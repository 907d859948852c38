"""Tests for generator-level zonotope calculus."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from zonoidal import (
    VirtualZonotope,
    Zonotope,
    canonical_eq,
    canonicalize,
    distribution_from_dict,
    face_data_from_dict,
    hausdorff_estimate,
    intrinsic_volume,
    length,
    linear_image,
    measure_from_dict,
    minkowski_sum,
    mixed_volume,
    radius,
    radius_bounds,
    scale,
    support,
    support_many,
    tau,
    tensor_product,
    virtual_add,
    virtual_eq,
    virtual_length,
    virtual_negate,
    virtual_support,
    volume,
    zonotope,
    zonotope_from_dict,
    zonotope_to_dict,
)
from zonoidal.algebra import _chain
from zonoidal.jvolume import disc_zonotope, j_volume_zonotope
from zonoidal.sampling import direction_net
from zonoidal.testkit import length_brute, radius_brute, support_brute
from zonoidal.zonotope import COLLINEAR_SINE_TOL, _collinear_labels, _integer, _lex_order


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def random_zonotope(g, dim=None, max_gens=5):
    d = dim if dim is not None else int(g.integers(1, 5))
    return zonotope(g.standard_normal((int(g.integers(1, max_gens + 1)), d)))


def frac_zonotope(rows):
    arr = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        arr[i, :] = [Fraction(x) for x in row]
    return zonotope(arr)


def test_support_examples():
    seg = zonotope([[1.0, 0.0]])
    assert support(seg, [1.0, 0.0]) == 0.5
    square = zonotope([[1.0, 0.0], [0.0, 1.0]])
    assert math.isclose(support(square, [1.0, 1.0]), 1.0)
    origin = zonotope([], ambient_dim=3)
    assert support(origin, [1.0, 2.0, 3.0]) == 0.0


def test_support_matches_brute():
    g = rng(1)
    for _ in range(30):
        K = random_zonotope(g)
        u = g.standard_normal(K.ambient_dim)
        assert math.isclose(support(K, u), support_brute(K.generators, u),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_support_even_and_sublinear():
    g = rng(2)
    for _ in range(20):
        K = random_zonotope(g)
        u = g.standard_normal(K.ambient_dim)
        v = g.standard_normal(K.ambient_dim)
        assert math.isclose(support(K, u), support(K, -u), rel_tol=1e-12)
        assert support(K, u + v) <= support(K, u) + support(K, v) + 1e-12


def test_support_exact_rational():
    K = frac_zonotope([[Fraction(1, 3), Fraction(2, 7)], [Fraction(-4, 5), Fraction(1, 2)]])
    u = np.array([Fraction(2), Fraction(3)], dtype=object)
    val = support(K, u)
    assert isinstance(val, Fraction)
    expected = (abs(Fraction(2, 3) + Fraction(6, 7)) + abs(Fraction(-8, 5) + Fraction(3, 2))) / 2
    assert val == expected


def test_support_many_matches_support():
    g = rng(3)
    K = random_zonotope(g, dim=3)
    U = g.standard_normal((40, 3))
    vals = support_many(K, U)
    for u, v in zip(U, vals):
        assert math.isclose(v, support(K, u), rel_tol=1e-12)


def test_length():
    square = zonotope([[1.0, 0.0], [0.0, 1.0]])
    assert math.isclose(length(square), 2.0)
    g = rng(4)
    K = random_zonotope(g)
    assert math.isclose(length(K), length_brute(K.generators), rel_tol=1e-12)


def test_length_exact_in_dim_one():
    K = frac_zonotope([[Fraction(1, 3)], [Fraction(-2, 5)]])
    val = length(K)
    assert isinstance(val, Fraction)
    assert val == Fraction(1, 3) + Fraction(2, 5)
    # object rows of other numbers take the exact route's row norms
    assert length(Zonotope(1, np.array([[1.5], [-0.5]], dtype=object))) == 2.0


def test_canonical_eq_of_exact_bodies_compares_fractions():
    K = frac_zonotope([[Fraction(1, 2), 1], [1, 2], [0, Fraction(1, 3)]])
    assert canonical_eq(K, frac_zonotope([[0, Fraction(-1, 3)], [Fraction(3, 2), 3]]))
    # 10^-30 apart: equal within any float tolerance, not as Fractions
    off = frac_zonotope([[0, Fraction(-1, 3)], [Fraction(3, 2), 3 + Fraction(1, 10 ** 30)]])
    assert not canonical_eq(K, off)


def test_minkowski_sum_merges_and_supports_add():
    a = zonotope([[1.0, 0.0]])
    b = zonotope([[2.0, 0.0]])
    s = canonicalize(minkowski_sum(a, b))
    assert s.n_generators == 1
    assert np.allclose(s.generators, [[3.0, 0.0]])
    g = rng(5)
    K = random_zonotope(g, dim=3)
    L = random_zonotope(g, dim=3)
    u = g.standard_normal(3)
    assert math.isclose(support(minkowski_sum(K, L), u),
                        support(K, u) + support(L, u), rel_tol=1e-12)


def test_sum_with_origin_is_identity():
    g = rng(6)
    K = random_zonotope(g, dim=2)
    O = zonotope([], ambient_dim=2)
    assert canonical_eq(minkowski_sum(K, O), K)


def test_scale():
    g = rng(7)
    K = random_zonotope(g, dim=3)
    u = g.standard_normal(3)
    assert math.isclose(support(scale(K, 2.5), u), 2.5 * support(K, u), rel_tol=1e-12)
    assert math.isclose(length(scale(K, 3.0)), 3.0 * length(K), rel_tol=1e-12)
    Z = scale(K, 0.0)
    assert support(Z, u) == 0.0
    with pytest.raises(ValueError):
        scale(K, -1.0)


def test_scale_takes_the_factor_in_the_body_field():
    rows = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(1), Fraction(0)]]
    K = zonotope(np.array(rows, dtype=object))
    half = scale(K, 0.5)
    want = canonicalize(zonotope(np.array([[Fraction(3, 10), Fraction(2, 5)],
                                           [Fraction(1, 2), Fraction(0)]], dtype=object)))
    assert half.exact
    assert half.generators.tolist() == want.generators.tolist()
    L = zonotope([[0.6, 0.8], [1.0, 0.0]])
    by_fraction = scale(L, Fraction(1, 2))
    assert by_fraction.generators.dtype == np.float64
    assert np.array_equal(by_fraction.generators, scale(L, 0.5).generators)


def test_linear_image():
    K = zonotope([[1.0, 0.0], [0.0, 1.0]])
    M = np.array([[1.0, 0.0]])
    P = canonicalize(linear_image(M, K))
    assert P.ambient_dim == 1
    assert math.isclose(length(P), 1.0)
    # rotations preserve length
    g = rng(8)
    K = random_zonotope(g, dim=2)
    t = 0.7
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert math.isclose(length(linear_image(R, K)), length(K), rel_tol=1e-12)


def test_canonicalize_rules():
    K = zonotope([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    C = canonicalize(K)
    assert C.n_generators == 2
    assert np.allclose(sorted(C.generators.tolist()), [[0.0, 1.0], [4.0, 0.0]])
    # sign normalization: first nonzero coordinate positive
    D = canonicalize(zonotope([[-1.0, 2.0]]))
    assert np.allclose(D.generators, [[1.0, -2.0]])


def test_canonicalize_idempotent_and_support_preserving():
    g = rng(9)
    for _ in range(10):
        K = random_zonotope(g, dim=3, max_gens=8)
        C = canonicalize(K)
        assert canonical_eq(C, canonicalize(C))
        U = direction_net(3, 100)
        assert np.allclose(support_many(K, U), support_many(C, U), rtol=1e-12, atol=1e-12)


def _rotated(v, t):
    """v turned by angle t in the plane of its first two coordinates."""
    c, s = math.cos(t), math.sin(t)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], *v[2:]])


def test_canonicalize_merges_collinear_pair_far_apart_in_lex_order():
    # a and b are collinear (sine 5e-11) but 100 unit rows lie between them
    # in lexicographic order; 9000 fillers make the list longer than 8192.
    a = np.array([0.6, 0.8, 0.0])
    b = _rotated(a, 5e-11)
    g = rng(20)
    x = np.linspace(b[0], a[0], 102)[1:-1]
    phi = np.linspace(0.3, 2.8, 100)
    r = np.sqrt(1.0 - x * x)
    between = np.column_stack([x, r * np.cos(phi), r * np.sin(phi)])
    fillers = np.column_stack([2.0 + g.random(9000), g.uniform(-1, 1, (9000, 2))])
    C = canonicalize(zonotope(np.vstack([a, between, b, fillers])))
    assert C.n_generators == 9101
    assert canonical_eq(C, zonotope(np.vstack([a + b, between, fillers])))


def test_canonicalize_merges_a_chain_of_near_collinear_generators():
    # sine(a, b) = sine(b, c) = 7e-11 <= tol < sine(a, c) = 1.4e-10
    a = np.array([1.0, 0.0, 0.0])
    b, c = _rotated(a, 7e-11), _rotated(a, 1.4e-10)
    C = canonicalize(zonotope([a, -2.0 * c, b, [0.0, 0.0, 1.0]]))
    assert C.n_generators == 2
    assert canonical_eq(C, zonotope([a + b + 2.0 * c, [0.0, 0.0, 1.0]]))


def test_canonicalize_merges_many_copies_of_one_direction():
    v = np.array([0.3, -1.2, 0.5, 2.0])
    scales = rng(21).uniform(-3.0, 3.0, 20000)
    C = canonicalize(zonotope(scales[:, None] * v))
    assert C.n_generators == 1
    assert np.allclose(C.generators[0], np.sum(np.abs(scales)) * v,
                       rtol=1e-12, atol=0.0)


def _components_brute(unit):
    """Smallest index in each row's component, from the dense matrix of
    pairwise sines ||u_j - <u_j, u_i> u_i||."""
    cos = unit @ unit.T
    sine = np.linalg.norm(unit[None, :, :] - cos[:, :, None] * unit[:, None, :], axis=2)
    near = sine <= COLLINEAR_SINE_TOL
    labels = np.arange(len(unit))
    for i in range(len(unit)):
        comp = np.zeros(len(unit), dtype=bool)
        comp[i] = True
        while not np.array_equal(grown := near[comp].any(axis=0) | comp, comp):
            comp = grown
        labels[i] = np.flatnonzero(comp)[0]
    return labels


def test_collinear_labels_match_dense_components():
    # Each new row rescales, negates or turns an earlier row by 0.2-0.9 or
    # 1.1-2.5 times the tolerance, so chains form; no pair's sine lies
    # within rounding of the tolerance itself.
    g = rng(22)
    for _ in range(60):
        dim = int(g.integers(2, 6))
        rows = list(g.standard_normal((int(g.integers(1, 12)), dim)))
        for _ in range(int(g.integers(0, 25))):
            v = rows[int(g.integers(len(rows)))]
            t = COLLINEAR_SINE_TOL * g.choice([0.0, g.uniform(0.2, 0.9), g.uniform(1.1, 2.5)])
            w = g.standard_normal(dim)
            w -= (w @ v) / (v @ v) * v
            w *= np.linalg.norm(v) / np.linalg.norm(w)
            rows.append(g.uniform(-3.0, 3.0) * (math.cos(t) * v + math.sin(t) * w))
        unit = np.array(rows)
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        assert np.array_equal(_collinear_labels(unit), _components_brute(unit))


def _partner(g, v):
    """A random vector orthogonal to v, of v's length."""
    w = g.standard_normal(len(v))
    w -= (w @ v) / (v @ v) * v
    return w * (np.linalg.norm(v) / np.linalg.norm(w))


def _turned(v, w, t):
    """v turned by angle t towards its partner w."""
    return math.cos(t) * v + math.sin(t) * w


def _multi_run_rows(g, dim):
    """Generator rows whose sort keys fall into many runs at once: 2-row
    runs of duplicates, negations and turns by 0.3-0.45 tolerances, 3-row
    chains whose ends are 1.2-1.8 tolerances apart, a 5-row chain whose
    ends are 3 tolerances apart, rows that share one key without being
    collinear, and leading 0.0 and -0.0."""
    tol = COLLINEAR_SINE_TOL
    rows = []
    for _ in range(int(g.integers(5, 40))):
        v = g.standard_normal(dim)
        w = _partner(g, v)
        t = tol * g.uniform(0.6, 0.9)  # the ends of a 3-row chain: 2t > tol
        kind = int(g.integers(5))
        if kind == 0:
            rows += [v, v.copy()]
        elif kind == 1:
            rows += [v, -g.uniform(0.5, 3.0) * v]
        elif kind == 2:
            rows += [v, g.uniform(-3.0, 3.0) * _turned(v, w, t / 2.0)]
        elif kind == 3:
            rows += [_turned(v, w, t), v, -_turned(v, w, -t)]
        else:
            rows.append(v)
    v = g.standard_normal(dim)
    w = _partner(g, v)
    rows += [g.choice([-2.0, 0.5, 1.0]) * _turned(v, w, 0.75 * k * tol) for k in range(5)]
    p = np.cos(np.arange(1.0, dim + 1.0))
    p /= np.linalg.norm(p)
    for _ in range(int(g.integers(2, 8))):
        a = g.uniform(0.1, 0.9)
        for _ in range(int(g.integers(2, 6))):
            w = g.standard_normal(dim)
            w -= (w @ p) * p
            u = a * p + math.sqrt(1.0 - a * a) * w / np.linalg.norm(w)
            rows += [u] if g.random() < 0.7 else [u, -3.0 * u]
    lead0 = np.column_stack([np.zeros(4), g.standard_normal((4, dim - 1))])
    rows += [*lead0, *-lead0, *-(2.0 * lead0)]
    if dim > 2:
        rows.append(np.r_[-0.0, -0.0, g.standard_normal(dim - 2)])
    G = np.array(rows)
    return G[g.permutation(len(G))]


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_collinear_labels_match_dense_components_on_multi_run_batches(dim):
    g = rng(30 + dim)
    for _ in range(8):
        G = _multi_run_rows(g, dim)
        unit = G / np.linalg.norm(G, axis=1)[:, None]
        labels = _collinear_labels(unit)
        assert np.array_equal(labels, _components_brute(unit))
        assert len(np.unique(labels)) < len(G)


def _canonicalize_dense(G):
    """canonicalize by its definition: drop zero rows, make each first
    nonzero entry positive, merge each dense component into its rows'
    sum (turned to the smallest row's side, in index order, with the
    rounding of np.add.reduceat), sort rows."""
    def sign_normalized(rows):
        lead = np.array([next(x for x in row if abs(x) > 0.0) for row in rows])
        return rows * np.where(lead < 0, -1.0, 1.0)[:, None]

    G = G[np.linalg.norm(G, axis=1) > 0.0]
    if len(G) == 0:
        return G
    g = sign_normalized(G)
    unit = g / np.linalg.norm(G, axis=1)[:, None]
    labels = _components_brute(unit)
    merged = []
    for c in np.unique(labels):
        rows = [g[i] if unit[i] @ unit[c] >= 0 else -g[i] for i in np.flatnonzero(labels == c)]
        merged.append(np.add.reduceat(np.array(rows), [0])[0])
    g = sign_normalized(np.array(merged))
    return g[np.lexsort(g.T[::-1])]


def _dense_oracle_cases():
    g = rng(40)
    cases = {f"multi-run R^{d}": _multi_run_rows(g, d) for d in (2, 3, 5)}
    P = zonotope(g.standard_normal((8, 6)), cgrading=(3, 1))
    cases["C^3 P ^ P"] = _chain([P, P]).generators
    z1, z2 = g.standard_normal(2) + 1j * g.standard_normal(2), np.array([1.0, 1j])
    cases["disc wedge C^2"] = _chain([disc_zonotope(z1, 12), disc_zonotope(z2, 12)]).generators
    cases["disc wedge C^3"] = _chain([disc_zonotope(z, 6) for z in g.standard_normal((3, 3))
                                      + 1j * g.standard_normal((3, 3))]).generators
    cases["with zero rows"] = np.vstack([np.zeros((3, 4)), -np.zeros((2, 4)),
                                         _multi_run_rows(g, 4)])
    return cases


@pytest.mark.parametrize("case", list(_dense_oracle_cases()))
def test_canonicalize_matches_dense_oracle_bit_for_bit(case):
    G = _dense_oracle_cases()[case]
    C = canonicalize(zonotope(G)).generators
    expected = _canonicalize_dense(G)
    assert C.shape == expected.shape and len(C) < len(G)
    assert C.tobytes() == expected.tobytes()


def _lex_order_cases():
    g = rng(23)
    ints = g.integers(-2, 3, (500, 4)).astype(np.float64)
    tied0 = np.column_stack([np.full(300, 1.5), g.integers(-1, 2, (300, 3))])
    last_only = np.column_stack([np.tile([0.25, -1.0, 3.0], (200, 1)),
                                 g.permutation(200) % 37 - 18.0])
    zeros = np.where(g.random((400, 6)) < 0.9, 0.0, g.standard_normal((400, 6)))
    signed_zeros = g.choice([-0.0, 0.0, 1.0], size=(300, 3))
    duplicates = g.permutation(np.tile(g.standard_normal((5, 3)), (40, 1)))
    return {
        "gaussian": g.standard_normal((1000, 5)),
        "all tied in column 0": tied0,
        "tied in every column but the last": last_only,
        "zero-heavy": zeros,
        "integer-valued": ints,
        "-0.0 beside 0.0": signed_zeros,
        "duplicate rows": duplicates,
        "one row": g.standard_normal((1, 4)),
        "one column": g.integers(0, 5, (60, 1)).astype(np.float64),
        "zero rows": np.zeros((0, 3)),
    }


@pytest.mark.parametrize("case", list(_lex_order_cases()))
def test_lex_order_is_the_lexsort_permutation(case):
    rows = _lex_order_cases()[case]
    assert np.array_equal(_lex_order(rows), np.lexsort(rows.T[::-1]))


def _primitive_rows(g, count):
    """count distinct sign-normalized primitive integer rows of R^3: no
    two are collinear, and many share their first entry."""
    box = np.array([r for r in np.ndindex(7, 7, 7)], dtype=np.float64) - 3.0
    lead = box[np.arange(len(box)), np.argmax(box != 0.0, axis=1)]
    primitive = np.gcd.reduce(box.astype(int), axis=1) == 1
    return g.permutation(box[primitive & (lead > 0.0)])[:count]


@pytest.mark.parametrize("kind", ["gaussian", "integer"])
def test_canonicalize_of_a_tensor_product_is_lexsorted(kind):
    # 10000 pairwise products, no two collinear; the integer rows tie in
    # their first entries again and again.
    g = rng(24)
    if kind == "gaussian":
        a, b = g.standard_normal((100, 3)), g.standard_normal((100, 3))
    else:
        a, b = _primitive_rows(g, 100), _primitive_rows(g, 100)
    rows = np.einsum("ia,jb->ijab", a, b).reshape(10000, 9)
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0.0, axis=1)]
    rows = rows * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    want = rows[np.lexsort(rows.T[::-1])]
    assert np.array_equal(tensor_product(zonotope(a), zonotope(b)).generators, want)
    assert np.array_equal(canonicalize(zonotope(g.permutation(rows))).generators, want)


def test_zonotope_holds_float64_generators_without_a_copy():
    g = rng(25).standard_normal((6, 2))
    assert np.shares_memory(Zonotope(2, g).generators, g)
    ints = np.array([[1, 2], [3, 4]])
    K = Zonotope(2, ints)
    assert K.generators.dtype == np.float64
    assert np.array_equal(K.generators, ints)


def test_zonotope_rejects_complex_generators():
    # casting to float64 would drop the imaginary parts
    with pytest.raises(ValueError):
        zonotope([[1j, 1.0]])
    with pytest.raises(ValueError):
        Zonotope(2, np.array([[1.0 + 0.0j, 2.0]]))


def test_canonicalize_exact():
    K = frac_zonotope([[1, 2], [2, 4], [-3, -6], [0, 1]])
    C = canonicalize(K)
    assert C.exact
    assert C.n_generators == 2
    gens = sorted(tuple(r) for r in C.generators)
    assert gens == [(Fraction(0), Fraction(1)), (Fraction(6), Fraction(12))]


def canonicalize_by_fraction_keys(rows):
    """Plain-Fraction canonical form: sign-normalize each nonzero row,
    group rows by the row divided by its first nonzero entry, add up
    each group in input order and sort the sums."""
    groups = {}
    for row in rows:
        vec = [Fraction(x) for x in row]
        if not any(vec):
            continue
        if next(x for x in vec if x) < 0:
            vec = [-x for x in vec]
        key = tuple(x / next(y for y in vec if y) for x in vec)
        groups[key] = [a + b for a, b in zip(groups[key], vec)] if key in groups else vec
    return sorted(groups.values())


def test_canonicalize_exact_matches_the_fraction_key_reference():
    # collinear rows of both signs over different denominators, zero
    # rows, plain ints and a float entry in one object array
    g = rng(80)
    base = [[Fraction(int(g.integers(-4, 5)), int(g.integers(1, 6))) for _ in range(3)]
            for _ in range(4)]
    rows = [r for v in base for r in ([x * Fraction(2, 3) for x in v], [-x / 7 for x in v])]
    rows += base + [[0, 0, 0], [3, 0, -1], [Fraction(-6, 5), 0, Fraction(2, 5)],
                    [0.5, 0, Fraction(1, 3)], [0, 0, Fraction(-1, 9)]]
    arr = np.empty((len(rows), 3), dtype=object)
    arr[:, :] = rows
    C = canonicalize(zonotope(arr))
    assert all(type(x) is Fraction for x in C.generators.flat)
    assert C.generators.tolist() == canonicalize_by_fraction_keys(rows)
    assert C.n_generators == 7


def test_length_of_exact_segments_over_mixed_denominators():
    K = zonotope(np.array([[Fraction(1, 6)], [Fraction(-3, 4)], [2], [Fraction(5, 9)]],
                          dtype=object))
    val = length(K)
    assert type(val) is Fraction and val == Fraction(1, 6) + Fraction(3, 4) + 2 + Fraction(5, 9)


def test_radius_examples():
    seg = zonotope([[3.0, 4.0]])
    assert math.isclose(radius(seg), 2.5)
    square = zonotope([[1.0, 0.0], [0.0, 1.0]])
    assert math.isclose(radius(square), math.sqrt(2.0) / 2.0)


def test_radius_matches_brute_and_bounds():
    g = rng(10)
    for _ in range(10):
        K = random_zonotope(g, dim=3, max_gens=6)
        r = radius(K)
        assert math.isclose(r, radius_brute(K.generators), rel_tol=1e-10)
        lo, hi = radius_bounds(K, net_count=2048, seed=3)
        assert lo <= r * (1 + 1e-12)
        assert r <= hi * (1 + 1e-12)
    big = zonotope(rng(11).standard_normal((23, 2)))
    with pytest.raises(ValueError):
        radius(big)


def test_norm_length_sandwich():
    g = rng(12)
    for _ in range(10):
        d = int(g.integers(1, 4))
        K = random_zonotope(g, dim=d)
        r = radius(K)
        ell = length(K)
        assert 2.0 * r <= ell * (1 + 1e-12)
        assert ell <= tau(d) * r * (1 + 1e-12)


def test_hausdorff_estimate():
    g = rng(13)
    K = random_zonotope(g, dim=2, max_gens=4)
    lo, hi = hausdorff_estimate(K, K, delta=1e-3)
    assert lo == 0.0
    assert hi <= length(K) * 1e-3 + 1e-15
    # distinct bodies: interval brackets the max support gap on the net
    L = scale(K, 2.0)
    lo2, hi2 = hausdorff_estimate(K, L, delta=1e-3)
    lb = radius_bounds(K)[0]
    assert hi2 >= lb  # true distance equals the norm of K
    assert lo2 <= radius_bounds(K)[1] + 1e-12


def test_virtual_difference_basics():
    g = rng(14)
    K = random_zonotope(g, dim=2)
    W = VirtualZonotope(K, K)
    u = g.standard_normal(2)
    assert abs(virtual_support(W, u)) < 1e-12
    assert abs(virtual_length(W)) < 1e-12
    L = random_zonotope(g, dim=2)
    V = VirtualZonotope(K, L)
    assert math.isclose(virtual_support(V, u), support(K, u) - support(L, u),
                        rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(virtual_length(V), length(K) - length(L), rel_tol=1e-12)


def test_virtual_add_negate():
    g = rng(15)
    K, L, M = (random_zonotope(g, dim=2) for _ in range(3))
    V = VirtualZonotope(K, L)
    W = VirtualZonotope(M, zonotope([], ambient_dim=2))
    S = virtual_add(V, W)
    u = g.standard_normal(2)
    assert math.isclose(virtual_support(S, u),
                        virtual_support(V, u) + virtual_support(W, u), rel_tol=1e-12)
    N = virtual_negate(V)
    assert math.isclose(virtual_support(N, u), -virtual_support(V, u), rel_tol=1e-12)
    assert virtual_eq(virtual_add(V, N), VirtualZonotope(K, K))


def test_segment_pair_distance_interval():
    # nearly parallel long segments at unit vertical offset stay 1/2 apart
    for n in (1, 10, 100):
        A = zonotope([[float(n), 1.0]])
        B = zonotope([[float(n), 0.0]])
        lo, hi = hausdorff_estimate(A, B, delta=1e-3)
        assert lo <= 0.5 <= hi


@pytest.mark.parametrize("dim", [4, 5])
def test_hausdorff_interval_certified_from_dimension_four(dim):
    # the net certifies no covering radius there; the upper end is
    # max(l(K), l(L)) / 2, which bounds max(||K||, ||L||) >= d_H(K, L)
    e = np.eye(dim)
    pairs = [(zonotope(e[:1]), zonotope(e[1:2]), 0.5),
             (zonotope(e[:1]), zonotope(3.0 * e[:1]), 1.0),
             (zonotope(e[:1] + e[1:2]), zonotope(e[2:3]), math.sqrt(2.0) / 2.0)]
    K = zonotope(rng(40 + dim).standard_normal((5, dim)))
    pairs.append((K, scale(K, 2.0), radius(K)))
    for A, B, truth in pairs:
        lo, hi = hausdorff_estimate(A, B, delta=1e-2, seed=dim)
        assert lo <= truth <= hi
        assert hi == max(lo, length(A) / 2.0, length(B) / 2.0)


def test_hausdorff_upper_end_below_dimension_four_is_lipschitz():
    for dim in (2, 3):
        A, B = zonotope(np.eye(dim)[:1]), zonotope(np.eye(dim)[1:2])
        lo, hi = hausdorff_estimate(A, B, delta=1e-2)
        assert hi == lo + (length(A) + length(B)) / 2.0 * 1e-2


def test_tensor_square_of_difference_grows():
    # support of (A - B) tensor (A - B) in a fixed direction grows linearly
    # in n even though the bodies stay at distance 1/2
    from zonoidal import virtual_tensor

    ratios = []
    for n in (1, 5, 20, 100):
        A = zonotope([[float(n), 1.0]])
        B = zonotope([[float(n), 0.0]])
        W = VirtualZonotope(A, B)
        P = virtual_tensor(W, W)
        w = np.array([1.0, -float(n), -float(n), 0.0])
        val = virtual_support(P, w)
        expected = n * n / math.sqrt(1.0 + 2.0 * n * n)
        ratio = val / float(np.linalg.norm(w))
        assert math.isclose(ratio, expected, rel_tol=1e-10)
        ratios.append(ratio)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_serialization_roundtrip_float():
    g = rng(16)
    K = zonotope(g.standard_normal((4, 3)), grading=(3, 1))
    d = zonotope_to_dict(K)
    back = zonotope_from_dict(d)
    assert back.grading == (3, 1)
    assert np.array_equal(back.generators, K.generators)


def test_serialization_roundtrip_exact():
    K = frac_zonotope([[Fraction(1, 3), Fraction(-2, 7)]])
    d = zonotope_to_dict(K)
    assert d["generators"][0][0] == "1/3"
    back = zonotope_from_dict(d)
    assert back.exact
    assert back.generators[0][0] == Fraction(1, 3)
    assert back.generators[0][1] == Fraction(-2, 7)


def test_serialization_cgrading_and_errors():
    K = zonotope(rng(17).standard_normal((2, 4)), cgrading=(2, 1))
    back = zonotope_from_dict(zonotope_to_dict(K))
    assert back.cgrading == (2, 1)
    with pytest.raises(KeyError):
        zonotope_from_dict({"ambient_dim": 2})


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_canonicalize_refuses_non_finite_entries(entry):
    K = zonotope([[entry, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        canonicalize(K)
    with pytest.raises(ValueError, match="finite"):
        volume(K)
    P = zonotope([[entry, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                 cgrading=(2, 1))
    with pytest.raises(ValueError, match="finite"):
        j_volume_zonotope(P)


def test_canonicalize_keeps_directions_of_rows_whose_squares_overflow():
    # numpy's row norm squares the entries, so it overflows at 1e160; the
    # rows are rescaled, and no warning is raised (filterwarnings = error)
    K = canonicalize(zonotope([[1e160, 0.0], [0.0, 1e160]]))
    assert np.array_equal(K.generators, [[0.0, 1e160], [1e160, 0.0]])
    K = canonicalize(zonotope([[1e200, 1e200], [0.0, 1.0], [1e300, 0.0]]))
    assert np.array_equal(K.generators, [[0.0, 1.0], [1e200, 1e200], [1e300, 0.0]])
    # finite entries whose norm is past the float64 range
    with pytest.raises(ValueError, match="norms must be finite"):
        canonicalize(zonotope([[1.5e308, 1.5e308], [0.0, 1.0]]))


def test_canonicalize_refuses_a_merge_past_the_float64_range():
    # each row is finite, but their collinear sum is not
    for rows in ([[1e308, 0.0], [1e308, 0.0]], [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="norms must be finite"):
            canonicalize(zonotope(rows))
    K = canonicalize(zonotope([[6e307, 0.0], [-6e307, 0.0]]))
    assert np.array_equal(K.generators, [[1.2e308, 0.0]])


@pytest.mark.parametrize("entry", [None, math.nan, math.inf, -math.inf])
def test_json_readers_refuse_null_and_non_finite_entries(entry):
    # numpy would read None as NaN, and canonicalize would drop that row
    rows = [[entry, 0.0], [0.0, 1.0]]
    with pytest.raises(KeyError, match="non-finite"):
        zonotope_from_dict({"ambient_dim": 2, "generators": rows})
    with pytest.raises(KeyError, match="non-finite"):
        zonotope_from_dict({"ambient_dim": 2, "generators": rows}, exact=True)
    with pytest.raises(KeyError, match="non-finite"):
        measure_from_dict({"atoms": rows, "weights": [1.0, 1.0]})
    with pytest.raises(KeyError, match="non-finite"):
        measure_from_dict({"atoms": [[1.0, 0.0]], "weights": [entry]})
    with pytest.raises(KeyError, match="non-finite"):
        distribution_from_dict({"atoms": rows, "probs": [0.5, 0.5]})
    with pytest.raises(KeyError, match="non-finite"):
        distribution_from_dict({"atoms": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.5, entry]})
    with pytest.raises(KeyError, match="non-finite"):
        face_data_from_dict({"ambient_dim": 2, "vertices": rows, "n_faces": [[0], [1]]})


def test_canonicalize_refuses_a_merge_whose_norm_passes_the_float64_range():
    # the merged row [1.6e308, 1.6e308] has finite entries and an infinite norm
    with pytest.raises(ValueError, match="norms must be finite"):
        canonicalize(zonotope([[8e307, 8e307], [8e307, 8e307]]))


def test_integer_reads_integers_and_integral_floats_only():
    assert [_integer(x) for x in (3, np.int64(3), np.intp(3), 3.0, np.float64(3.0))] == [3] * 5
    for x in (True, np.bool_(True), 2.5, float("nan"), float("inf"), "3", None, [3]):
        with pytest.raises(KeyError, match="not an integer"):
            _integer(x)


def test_zonotope_refuses_a_float_dimension():
    for gens in ([[1.0, 0.0]], []):
        with pytest.raises(KeyError, match="not an integer"):
            zonotope(gens, ambient_dim=2.5)
    K = zonotope([[1.0, 0.0]], ambient_dim=2.0)
    assert type(K.ambient_dim) is int and K.ambient_dim == 2


def test_lengths_and_volumes_follow_the_scale_law():
    # V_d(s K) = s^d V_d(K) wherever the true value is a normal float, also
    # where the squares of the entries of K's wedge powers underflow or
    # overflow (numpy's plain norm overflows first; the flagged rows are
    # then rescaled)
    K = zonotope(rng(3).standard_normal((7, 3)))
    laws = [(1, length), (2, lambda K: intrinsic_volume(K, 2)), (3, volume),
            (3, lambda K: mixed_volume([K] * 3))]
    base = [f(K) for _, f in laws]
    for e in range(-150, 151, 10):
        s = 10.0 ** e
        with np.errstate(over="ignore"):
            sK = zonotope(K.generators * s)
            for (d, f), v in zip(laws, base):
                want = v
                for _ in range(d):
                    want *= s
                if sys.float_info.min <= want < math.inf:
                    assert math.isclose(f(sK), want, rel_tol=1e-12), (e, d)
    # the exact route, on the same float inputs as Fractions: its squared
    # norms pass the float64 range at these scales
    for s in (1e-100, 1e100):
        sK = zonotope(K.generators * s)
        exact = zonotope(np.array([[Fraction(x) for x in row] for row in sK.generators],
                                  dtype=object))
        got = intrinsic_volume(exact, 2)
        assert got > 0.0 and math.isclose(got, intrinsic_volume(sK, 2), rel_tol=1e-12)
    tiny = canonicalize(zonotope([[1e-170, 0.0], [0.0, 1.0]]))
    assert np.array_equal(tiny.generators, [[0.0, 1.0], [1e-170, 0.0]])
    assert length(zonotope([[3e-170, 4e-170]])) == 5e-170


def test_a_volume_past_float64_is_one_value_error_in_both_fields():
    # V_2 is about 10^400: the exact route's norm and the float route's
    # wedge rows both pass float64, and both raise the same ValueError with
    # no warning (filterwarnings = error)
    rows = [[10 ** 200, 1, 2], [3, 10 ** 200, 5], [1, 1, 7]]
    K = zonotope(np.array(rows, dtype=np.float64))
    for body in (K, frac_zonotope(rows)):
        with pytest.raises(ValueError, match="^generator entries and norms must be finite$"):
            intrinsic_volume(body, 2)
    with pytest.raises(ValueError, match="^generator entries and norms must be finite$"):
        mixed_volume([K, K, K])
