"""Tests for the graded zonoid algebra: tensor, wedge, volumes, duality."""

import math
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest

from zonoidal import (
    VirtualZonotope,
    af_gap,
    canonical_eq,
    canonicalize,
    complex_wedge_zonoids,
    hodge_star_zonoid,
    induced_map,
    intrinsic_volume,
    length,
    linear_image,
    minkowski_sum,
    mixed_J_volume,
    mixed_volume,
    projection_body,
    radius_bounds,
    reverse_af_gap,
    scale,
    support,
    tensor_product,
    virtual_support,
    virtual_tensor,
    volume,
    wedge_power,
    wedge_product,
    zonotope,
)
from zonoidal import algebra
from zonoidal.algebra import _as_degree_one, _chain, _wedge_raw
from zonoidal.exterior import _ROW_BLOCK, realify_rows
from zonoidal.sampling import direction_net
from zonoidal.testkit import (
    _det_exact,
    intrinsic_brute,
    mixed_volume_brute,
    mixed_volume_brute_exact,
    volume_brute,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def graded(g, dim, max_gens=4):
    n = int(g.integers(1, max_gens + 1))
    return zonotope(g.standard_normal((n, dim)), grading=(dim, 1))


def cube(m):
    return zonotope(np.eye(m), grading=(m, 1))


def test_tensor_of_segments():
    a = zonotope([[1.0, 2.0]])
    b = zonotope([[3.0, 0.0, 4.0]])
    t = tensor_product(a, b)
    assert t.ambient_dim == 6
    assert np.allclose(canonicalize(t).generators,
                       canonicalize(zonotope([np.outer([1, 2], [3, 0, 4]).ravel()])).generators)


def test_tensor_length_multiplicative():
    g = rng(1)
    for _ in range(25):
        K = zonotope(g.standard_normal((int(g.integers(1, 5)), int(g.integers(1, 4)))))
        L = zonotope(g.standard_normal((int(g.integers(1, 5)), int(g.integers(1, 4)))))
        prod = length(K) * length(L)
        assert math.isclose(length(tensor_product(K, L)), prod, rel_tol=1e-12)


def test_tensor_with_origin():
    K = zonotope(rng(2).standard_normal((3, 2)))
    O = zonotope([], ambient_dim=2)
    assert length(tensor_product(K, O)) == 0.0


def test_tensor_associative():
    g = rng(3)
    K, L, M = (zonotope(g.standard_normal((2, 2))) for _ in range(3))
    assert canonical_eq(tensor_product(tensor_product(K, L), M),
                        tensor_product(K, tensor_product(L, M)))


def _raw_tensor(K, L):
    """canonicalize of the raw pairwise products, the reference route."""
    rows = np.einsum("ia,jb->ijab", K.generators, L.generators).reshape(
        K.n_generators * L.n_generators, K.ambient_dim * L.ambient_dim)
    return canonicalize(zonotope(rows, ambient_dim=K.ambient_dim * L.ambient_dim))


def _collinear_heavy(g, n, dim):
    """n Gaussian rows in R^dim, n collinear classes: with an exact
    duplicate, a negated scaled copy and a chain of three rows leading
    away from a third row, each 0.6e-10 from the one before, inside
    COLLINEAR_SINE_TOL, while the chain's ends are 1.8e-10 apart."""
    base = g.standard_normal((n, dim))
    v = base[2] / np.linalg.norm(base[2])
    w = g.standard_normal(dim)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    chain = [(np.cos(t) * v + np.sin(t) * w) * s
             for t, s in zip((0.6e-10, 1.2e-10, 1.8e-10), (0.7, 1.3, 2.1))]
    rows = np.vstack([base, base[0], -2.5 * base[1], chain])
    return zonotope(g.permutation(rows))


def test_tensor_of_collinear_factors_matches_the_raw_product():
    # The factors' classes merge before the product is formed, so the
    # merged rows are summed in another order than the raw route sums
    # them; they agree to a few units in the last place (measured: at most
    # 3.4e-16 times the row norm over these seeds).
    for seed in range(6):
        g = rng(100 + seed)
        K, L = _collinear_heavy(g, 5, 3), _collinear_heavy(g, 4, 2)
        got, want = tensor_product(K, L), _raw_tensor(K, L)
        assert got.n_generators == want.n_generators == 5 * 4
        gap = np.linalg.norm(got.generators - want.generators, axis=1)
        assert np.all(gap <= 1e-15 * np.linalg.norm(want.generators, axis=1))


def _factor_cases():
    g = rng(110)
    A, B = g.standard_normal((6, 3)), g.standard_normal((5, 3))
    lead = np.array([[1e-200, 1.0, -2.0], [1e-200, -3.0, 0.5]])
    return {
        "products overflow": (A * 1e160, B * 1e160),
        "product norms past the float64 range": (A * 1e154, B * 1e154),
        "large products": (A * 1e152, B * 1e152),
        "small normal products": (A * 1e-150, B * 1e-150),
        "products underflow to zero": (A * 1e-170, B * 1e-170),
        "products underflow to subnormals and zero": (A * 1e-162, B * 1e-162),
        "only the lead entry underflows": (lead, lead[::-1] * [1.0, -1.0, 1.0]),
        "a factor norm past float64": (np.full((2, 3), 1.5e308), B * 1e-300),
        "an empty canonical factor": (np.zeros((3, 3)), B),
    }


@pytest.mark.parametrize("case", list(_factor_cases()))
def test_tensor_at_the_float_range_limits_is_the_raw_product(case):
    # the same rows bit for bit, or the same ValueError; a warning would
    # fail the test (filterwarnings = error)
    K, L = (zonotope(x) for x in _factor_cases()[case])
    try:
        want = _raw_tensor(K, L)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            tensor_product(K, L)
        assert str(got.value) == str(err)
        return
    got = tensor_product(K, L)
    assert got.generators.shape == want.generators.shape
    assert got.generators.tobytes() == want.generators.tobytes()


def test_tensor_support_factorizes_on_split_directions():
    # h_{K (x) L}(u (x) v) = 2 h_K(u) h_L(v) under the segment convention
    # K(x) (x) K(y) = K(x (x) y), so the norm bound carries a factor 2
    g = rng(4)
    K = zonotope(g.standard_normal((3, 2)))
    L = zonotope(g.standard_normal((3, 3)))
    u = g.standard_normal(2)
    v = g.standard_normal(3)
    got = support(tensor_product(K, L), np.outer(u, v).ravel())
    assert math.isclose(got, 2.0 * support(K, u) * support(L, v), rel_tol=1e-12)
    _, hi_k = radius_bounds(K)
    _, hi_l = radius_bounds(L)
    lo_t, _ = radius_bounds(tensor_product(K, L))
    assert lo_t <= 2.0 * hi_k * hi_l * (1 + 1e-9)


def test_virtual_tensor_bilinear():
    g = rng(5)
    K, L, M = (zonotope(g.standard_normal((2, 2))) for _ in range(3))
    O = zonotope([], ambient_dim=2)
    V = VirtualZonotope(K, L)
    W = VirtualZonotope(M, O)
    P = virtual_tensor(V, W)
    u = g.standard_normal(4)
    want = virtual_support(VirtualZonotope(tensor_product(K, M), tensor_product(L, M)), u)
    assert math.isclose(virtual_support(P, u), want, rel_tol=1e-12, abs_tol=1e-12)


def test_wedge_product_of_segments():
    a = zonotope([[1.0, 0.0]], grading=(2, 1))
    b = zonotope([[0.0, 1.0]], grading=(2, 1))
    w = wedge_product(a, b)
    assert w.ambient_dim == 1
    assert w.grading == (2, 2)
    assert math.isclose(length(w), 1.0)


def test_wedge_product_commutes_canonically():
    g = rng(6)
    K = graded(g, 3)
    L = graded(g, 3)
    assert canonical_eq(wedge_product(K, L), wedge_product(L, K))


def test_wedge_requires_grading():
    K = zonotope([[1.0, 0.0]])
    L = zonotope([[0.0, 1.0]], grading=(2, 1))
    with pytest.raises(ValueError):
        wedge_product(K, L)


def test_wedge_length_submultiplicative():
    g = rng(7)
    for _ in range(15):
        K = graded(g, 4)
        L = graded(g, 4)
        assert length(wedge_product(K, L)) <= length(K) * length(L) * (1 + 1e-12)


def test_wedge_degree_overflow_gives_origin():
    K = zonotope(rng(8).standard_normal((2, 2)), grading=(2, 1))
    W = wedge_product(K, K)  # degree 2, fine
    over = wedge_product(W, K)  # degree 3 > ambient 2
    assert length(over) == 0.0


def test_wedge_power_matches_pair_wedge():
    g = rng(9)
    K = graded(g, 4, max_gens=5)
    assert canonical_eq(wedge_power(K, 2), wedge_product(K, K))


def test_wedge_power_top_degree_cube():
    K = cube(3)
    top = wedge_power(K, 3)
    assert top.ambient_dim == 1
    assert math.isclose(length(top), 6.0)  # 3! times the unit blade
    assert math.isclose(volume(K), 1.0)


def test_wedge_power_degenerate_and_zero():
    K = zonotope(rng(10).standard_normal((2, 4)), grading=(4, 1))
    assert length(wedge_power(K, 3)) == 0.0  # fewer generators than degree
    V0 = wedge_power(K, 0)
    assert V0.grading == (4, 0)
    assert math.isclose(length(V0), 1.0)


def test_degree_zero_unit_keeps_the_body_dtype():
    rows = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1, 3)]]
    Kq = zonotope(np.array(rows, dtype=object), grading=(2, 1))
    Kf = zonotope(np.array(rows, dtype=np.float64), grading=(2, 1))
    assert wedge_power(Kq, 0).exact and not wedge_power(Kf, 0).exact
    V0 = intrinsic_volume(Kq, 0)
    assert isinstance(V0, Fraction) and V0 == 1
    assert type(intrinsic_volume(Kf, 0)) is float and intrinsic_volume(Kf, 0) == 1.0
    # the unit wedges with an exact body: no exact/float mix
    assert reverse_af_gap([Kq, Kq], [0, 2]) == 0.0
    assert reverse_af_gap([Kf, Kf], [0, 2]) == 0.0


def test_induced_map_determinant():
    sq = cube(2)
    f = lambda v, w: np.array([v[0] * w[1] - v[1] * w[0]])
    D = induced_map(f, [sq, sq])
    assert D.ambient_dim == 1
    assert math.isclose(length(D), 2.0)
    assert canonical_eq(D, wedge_product(sq, sq))


def test_induced_map_equals_tensor():
    g = rng(11)
    K = zonotope(g.standard_normal((2, 2)))
    L = zonotope(g.standard_normal((3, 2)))
    f = lambda v, w: np.outer(v, w).ravel()
    assert canonical_eq(induced_map(f, [K, L]), tensor_product(K, L))


def test_induced_map_warns_on_nonlinear():
    K = zonotope(np.eye(2))
    with pytest.warns(UserWarning):
        induced_map(lambda v, w: v + w, [K, K])


def test_induced_map_warns_on_map_nonlinear_in_a_later_slot():
    K = zonotope(np.eye(2))
    with pytest.warns(UserWarning, match="multilinearity"):
        induced_map(lambda v, w: np.array([v[0] * w[0] ** 2]), [K, K])


def test_induced_map_with_a_factor_in_r0_is_the_zero_body():
    K, Z = zonotope(np.eye(2)), zonotope(np.zeros((0, 0)), ambient_dim=0)
    out = induced_map(lambda v, w: np.array([v.sum() * w.sum(), 0.0, 0.0]), [K, Z])
    assert (out.ambient_dim, out.n_generators) == (3, 0)
    with pytest.warns(UserWarning, match="multilinearity"):
        induced_map(lambda v, w: np.ones(2), [Z, K])


def test_induced_map_calls_f_once_per_basis_tuple_and_once_more():
    g = rng(5)
    calls = []

    def f(v, w):
        calls.append(1)
        return np.outer(v, w).ravel()

    K, L = zonotope(g.standard_normal((30, 2))), zonotope(g.standard_normal((20, 3)))
    D = induced_map(f, [K, L])
    assert len(calls) == 2 * 3 + 1
    assert canonical_eq(D, tensor_product(K, L))


def test_induced_map_of_an_empty_factor():
    f = lambda v, w: np.array([v[0] * w[1] - v[1] * w[0], v[1] * w[1], 0.0])
    D = induced_map(f, [zonotope([], ambient_dim=2), cube(2)])
    assert D.ambient_dim == 3 and D.n_generators == 0


def test_induced_triple_determinant_is_six_mixed_volumes():
    g = rng(31)
    Ks = [zonotope(g.standard_normal((n, 3)), grading=(3, 1)) for n in (5, 6, 7)]
    D = induced_map(lambda u, v, w: np.array([np.linalg.det(np.array([u, v, w]))]), Ks)
    assert D.ambient_dim == 1
    assert math.isclose(length(D) / math.factorial(3), mixed_volume(Ks), rel_tol=1e-12)


def _tuple_oracle(f, Ks, dim):
    """f at every tuple of generators, canonicalized."""
    rows = [f(*gs) for gs in product(*(K.generators for K in Ks))]
    return canonicalize(zonotope(np.array(rows).reshape(-1, dim), ambient_dim=dim))


def _induced_cases():
    g = rng(41)
    T = g.standard_normal((3, 2, 3, 2))
    yield "dense R^2 x R^3 x R^2 -> R^3", 3, (
        lambda u, v, w: np.einsum("sabc,a,b,c->s", T, u, v, w),
        [zonotope(g.standard_normal((n, d))) for n, d in ((4, 2), (5, 3), (3, 2))])
    assert 70 * 61 > _ROW_BLOCK  # the tuples fill more than one row block
    yield "cross product of 70 and 61", 3, (
        np.cross, [zonotope(g.standard_normal((n, 3))) for n in (70, 61)])
    yield "empty middle factor", 2, (
        lambda u, v, w: np.array([(u @ v) * w[0], u[1] * (v @ w)]),
        [zonotope(g.standard_normal((3, 2))), zonotope([], ambient_dim=2),
         zonotope(g.standard_normal((4, 2)))])


@pytest.mark.parametrize("case", list(_induced_cases()), ids=lambda c: c[0])
def test_induced_map_equals_f_at_every_generator_tuple(case):
    _, dim, (f, Ks) = case
    D = induced_map(f, Ks)
    assert D.ambient_dim == dim
    assert canonical_eq(D, _tuple_oracle(f, Ks, dim))


def test_induced_map_of_one_factor_is_its_linear_image():
    g = rng(42)
    M, K = g.standard_normal((2, 3)), zonotope(g.standard_normal((6, 3)))
    assert canonical_eq(induced_map(lambda v: M @ v, [K]), linear_image(M, K))


def test_induced_determinant_in_r4_never_forms_the_tensor_body():
    g = rng(43)
    Ks = [zonotope(g.standard_normal((10, 4)), grading=(4, 1)) for _ in range(4)]
    f = lambda *vs: np.array([np.linalg.det(np.array(vs))])
    tracemalloc.start()
    try:
        D = induced_map(f, Ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the body in R^256 of the 10^4 generator tuples alone is 20 MB
    assert peak < 5e6
    assert math.isclose(length(D) / math.factorial(4), mixed_volume(Ks), rel_tol=1e-12)


def test_induced_map_into_r0_is_the_zero_body():
    K = zonotope(rng(44).standard_normal((3, 2)))
    D = induced_map(lambda v, w: np.zeros(0), [K, K])
    assert (D.ambient_dim, D.n_generators) == (0, 0)


@pytest.mark.parametrize("call", [
    lambda: _chain([]),
    lambda: mixed_volume([]),
    lambda: reverse_af_gap([], []),
    lambda: mixed_J_volume(),
    lambda: complex_wedge_zonoids(),
    lambda: induced_map(lambda: np.zeros(1), []),
], ids=["chain", "mixed_volume", "reverse_af_gap", "mixed_J_volume",
        "complex_wedge_zonoids", "induced_map"])
def test_products_of_no_bodies_are_refused(call):
    with pytest.raises(ValueError, match="need at least one zonotope"):
        call()


def test_a_degree_one_tag_is_kept_and_a_missing_or_complex_one_set():
    G = rng(45).standard_normal((3, 4))
    K = zonotope(G, grading=(4, 1))
    assert _as_degree_one(K) is K
    for L in (zonotope(G), zonotope(G, cgrading=(2, 1))):
        D = _as_degree_one(L)
        assert (D.grading, D.cgrading) == ((4, 1), None)
        assert D.generators is L.generators


def test_mixed_volume_of_segments():
    segs = [zonotope([[1.0, 0.0]], grading=(2, 1)),
            zonotope([[1.0, 1.0]], grading=(2, 1))]
    assert math.isclose(mixed_volume(segs), 0.5)  # |det| / 2!
    square = cube(2)
    diag = zonotope([[1.0, 1.0]], grading=(2, 1))
    assert math.isclose(mixed_volume([square, diag]), 1.0)


def test_mixed_volume_diagonal_is_volume():
    g = rng(12)
    K = graded(g, 3, max_gens=5)
    assert math.isclose(mixed_volume([K, K, K]), volume(K), rel_tol=1e-12)
    assert math.isclose(volume(K), volume_brute(K.generators), rel_tol=1e-10)


def test_mixed_volume_matches_brute():
    g = rng(13)
    for _ in range(10):
        m = int(g.integers(2, 5))
        Ks = [graded(g, m, max_gens=3) for _ in range(m)]
        got = mixed_volume(Ks)
        want = mixed_volume_brute([K.generators for K in Ks])
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)


def test_mixed_volume_exact():
    rows1 = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1, 3)]]
    rows2 = [[Fraction(-2), Fraction(5, 7)]]
    def fz(rows):
        arr = np.empty((len(rows), 2), dtype=object)
        for i, r in enumerate(rows):
            arr[i, :] = r
        return zonotope(arr, grading=(2, 1))
    got = mixed_volume([fz(rows1), fz(rows2)])
    want = mixed_volume_brute_exact([rows1, rows2])
    assert isinstance(got, Fraction)
    assert got == want


def test_mixed_volume_multilinear():
    g = rng(14)
    K, K2, L, M = (graded(g, 3, max_gens=3) for _ in range(4))
    lhs = mixed_volume([minkowski_sum(K, K2), L, M])
    rhs = mixed_volume([K, L, M]) + mixed_volume([K2, L, M])
    assert math.isclose(lhs, rhs, rel_tol=1e-11)


def test_volume_examples():
    K = zonotope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], grading=(2, 1))
    assert math.isclose(volume(K), 3.0)
    g = rng(15)
    L = graded(g, 3)
    assert math.isclose(volume(scale(L, 2.0)), 8.0 * volume(L), rel_tol=1e-12)


def test_volume_over_more_subsets_than_one_row_block():
    # C(20, 4) = 4845 subsets: the blades are built in more than one block.
    assert math.comb(20, 4) > _ROW_BLOCK
    K = zonotope(rng(17).standard_normal((20, 4)), grading=(4, 1))
    assert math.isclose(volume(K), volume_brute(K.generators), rel_tol=1e-10)


def test_intrinsic_volumes_cube_and_brute():
    K = cube(4)
    for d in range(5):
        assert math.isclose(intrinsic_volume(K, d), math.comb(4, d), rel_tol=1e-12)
    g = rng(16)
    L = graded(g, 3, max_gens=4)
    for d in range(4):
        assert math.isclose(intrinsic_volume(L, d),
                            intrinsic_brute(L.generators, d), rel_tol=1e-10)
    assert intrinsic_volume(L, 0) == 1.0
    assert math.isclose(intrinsic_volume(L, 1), length(L), rel_tol=1e-12)
    with pytest.raises(ValueError):
        intrinsic_volume(L, 4)


def test_hodge_star_zonoid():
    seg = zonotope([[1.0, 0.0]], grading=(2, 1))
    st = hodge_star_zonoid(seg)
    assert st.grading == (2, 1)
    assert canonical_eq(st, zonotope([[0.0, 1.0]]))
    g = rng(17)
    K = graded(g, 3)
    assert math.isclose(length(hodge_star_zonoid(K)), length(K), rel_tol=1e-12)
    assert canonical_eq(hodge_star_zonoid(hodge_star_zonoid(K)), K)


def shadow_area(K, u):
    # area of the projection of K onto the hyperplane orthogonal to unit u
    m = K.ambient_dim
    _, _, vt = np.linalg.svd(np.asarray(u, dtype=float).reshape(1, m))
    B = vt[1:]
    P = linear_image(B, K)
    return volume(zonotope(P.generators, grading=(m - 1, 1)))


def test_projection_body_cube():
    P = projection_body(cube(3))
    assert canonical_eq(P, zonotope(2.0 * np.eye(3)))
    st = hodge_star_zonoid(wedge_power(cube(3), 2))
    assert canonical_eq(st, scale(P, math.factorial(2) / 2.0))


def test_projection_body_of_an_exact_body_is_exact():
    K = zonotope(np.array([[Fraction(3, 5), Fraction(4, 5)], [Fraction(1), Fraction(0)]],
                          dtype=object))
    P = projection_body(K)
    want = canonicalize(zonotope(np.array([[Fraction(0), Fraction(2)],
                                           [Fraction(8, 5), Fraction(-6, 5)]], dtype=object)))
    assert P.exact
    assert P.generators.tolist() == want.generators.tolist()


def test_products_refuse_to_mix_exact_and_float_bodies():
    E = zonotope(np.array([[Fraction(3, 5), Fraction(4, 5)], [Fraction(1), Fraction(0)]],
                          dtype=object), grading=(2, 1))
    F = zonotope([[1.0, 0.0]], grading=(2, 1))
    for op in (tensor_product, wedge_product, minkowski_sum):
        with pytest.raises(ValueError):
            op(E, F)
        with pytest.raises(ValueError):
            op(F, E)
    # an empty body takes the other body's field, in either argument order
    O = zonotope([], ambient_dim=2, grading=(2, 1))
    assert wedge_product(O, E).n_generators == 0
    E1 = zonotope(np.array([[Fraction(3, 5)]], dtype=object))
    O1 = zonotope([], ambient_dim=1)
    for K, L in ((E, O), (E1, O1)):
        for T in (tensor_product(K, L), tensor_product(L, K)):
            assert T.n_generators == 0 and T.generators.dtype == object
    for T in (tensor_product(E1, O1), tensor_product(O1, E1)):  # in R^1
        assert type(length(T)) is Fraction


def test_projection_body_support_is_shadow_area():
    g = rng(18)
    K = graded(g, 3, max_gens=5)
    P = projection_body(K)
    for u in direction_net(3, 20):
        assert math.isclose(support(P, u), shadow_area(K, u), rel_tol=1e-10, abs_tol=1e-12)


def test_wedge_hodge_orthogonality_criterion():
    K = zonotope([[1, 0, 0, 0], [0, 1, 0, 0.0]], grading=(4, 1))
    L_perp = zonotope([[0, 0, 1, 0], [0, 0, 0, 1.0]], grading=(4, 1))
    L_over = zonotope([[0, 1, 0, 0], [0, 0, 1, 0.0]], grading=(4, 1))
    assert length(wedge_product(K, hodge_star_zonoid(L_perp))) < 1e-12
    assert length(wedge_product(K, hodge_star_zonoid(L_over))) > 1e-6


def test_af_gap_nonnegative():
    g = rng(19)
    for _ in range(20):
        K1 = graded(g, 4, max_gens=3)
        K2 = graded(g, 4, max_gens=3)
        comp = [graded(g, 4, max_gens=2), graded(g, 4, max_gens=2)]
        gap = af_gap(K1, K2, companions=comp)
        rhs = length(wedge_product(wedge_product(K1, K1), wedge_product(comp[0], comp[1])))
        rhs *= length(wedge_product(wedge_product(K2, K2), wedge_product(comp[0], comp[1])))
        assert gap >= -1e-10 * max(rhs, 1.0)


def test_af_gap_zero_on_equal_bodies():
    g = rng(20)
    K = graded(g, 3, max_gens=3)
    C = graded(g, 3, max_gens=2)
    gap = af_gap(K, K, companions=[C])
    assert abs(gap) <= 1e-10 * max(length(wedge_product(wedge_product(K, K), C)) ** 2, 1.0)


def test_af_gap_middle_factor():
    g = rng(21)
    K1 = graded(g, 4, max_gens=3)
    K2 = graded(g, 4, max_gens=3)
    C = wedge_product(graded(g, 4, max_gens=2), graded(g, 4, max_gens=2))
    gap_pre = af_gap(K1, K2, middle=C)
    assert isinstance(gap_pre, float)
    with pytest.raises(ValueError):
        af_gap(K1, K2, companions=[K1], middle=C)


def test_reverse_af_gap():
    K1 = zonotope([[1, 0, 0, 0], [1, 2, 0, 0.0]], grading=(4, 1))
    K2 = zonotope([[0, 0, 1, 0], [0, 0, 1, -1.0]], grading=(4, 1))
    gap = reverse_af_gap([K1, K2], [2, 2])
    assert abs(gap) <= 1e-12  # orthogonal spans: product splits exactly
    g = rng(22)
    K3 = graded(g, 4, max_gens=4)
    K4 = graded(g, 4, max_gens=4)
    assert reverse_af_gap([K3, K4], [2, 2]) > 0.0
    with pytest.raises(ValueError):
        reverse_af_gap([K3, K4], [2, 1])


def degenerate_body(m, exact, seed=0):
    """Repeated, negated, collinear and zero generators in R^m.  Since
    u ^ v = u ^ (u + v) = (u + v) ^ v, the wedge powers of this body
    have collinear generators that canonicalize merges."""
    g = rng(40 + m + 10 * seed)
    v = np.arange(1, m + 1)
    w, u = g.integers(-4, 5, size=(2, m))
    rows = [v, v, -v, 3 * v, 0 * v, w, -2 * w, u, u + v]
    if not exact:
        return zonotope(np.asarray(rows, dtype=np.float64) / 3.0, grading=(m, 1))
    arr = np.empty((len(rows), m), dtype=object)
    for i, r in enumerate(rows):
        arr[i, :] = [Fraction(int(t), 3) for t in r]
    return zonotope(arr, grading=(m, 1))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("m", [3, 4])
def test_volumes_equal_length_of_canonical_wedge_power(m, exact):
    K = degenerate_body(m, exact)
    n_canon = canonicalize(K).n_generators
    assert wedge_power(K, 2).n_generators < math.comb(n_canon, 2)  # products merge
    for d in range(1, m + 1):
        want = length(wedge_power(K, d)) / math.factorial(d)
        got = intrinsic_volume(K, d)
        if exact and d == m:
            assert isinstance(got, Fraction) and got == want
            assert volume(K) == want
        else:
            assert math.isclose(got, want, rel_tol=1e-12)
    if not exact:
        assert math.isclose(volume(K), length(wedge_power(K, m)) / math.factorial(m),
                            rel_tol=1e-12)


@pytest.mark.parametrize("exact", [False, True])
def test_mixed_volume_equals_length_of_canonical_wedge_chain(exact):
    K, L = degenerate_body(3, exact), degenerate_body(3, exact, seed=1)
    chain = wedge_product(wedge_product(K, L), K)
    want = length(chain) / math.factorial(3)
    got = mixed_volume([K, L, K])
    if exact:
        assert isinstance(got, Fraction) and got == want
    else:
        assert math.isclose(got, want, rel_tol=1e-12)


def rational_rows(g, n, m, num_hi=6, den_hi=5):
    arr = np.empty((n, m), dtype=object)
    for i in range(n):
        arr[i, :] = [Fraction(int(g.integers(-num_hi, num_hi + 1)), int(g.integers(1, den_hi + 1)))
                     for _ in range(m)]
    return arr


def exact_support(rows, u) -> Fraction:
    return sum((abs(sum(x * y for x, y in zip(row, u))) for row in rows), Fraction(0)) / 2


@pytest.mark.parametrize("m", [2, 3, 4])
def test_exact_volumes_and_products_equal_brute_force(m):
    g = rng(60 + m)
    G = rational_rows(g, m + 2, m)
    K = zonotope(G, grading=(m, 1))
    got = volume(K)
    assert type(got) is Fraction and got == mixed_volume_brute_exact([G] * m)
    Gs = [rational_rows(g, 3, m) for _ in range(m)]
    got = mixed_volume([zonotope(H, grading=(m, 1)) for H in Gs])
    assert type(got) is Fraction and got == mixed_volume_brute_exact(Gs)
    U = rational_rows(g, 4, math.comb(m, m // 2))
    for d in range(1, m + 1):
        # reference generators: d! times the d x d minors of each d-subset
        rows = [[math.factorial(d) * _det_exact([[G[i][c] for c in cols] for i in S])
                 for cols in combinations(range(m), d)]
                for S in combinations(range(len(G)), d)]
        P = wedge_power(K, d)
        assert P.exact and all(type(x) is Fraction for x in P.generators.flat)
        for u in U[:, :math.comb(m, d)]:
            assert support(P, u) == exact_support(rows, u)
    Pi = projection_body(K)
    assert Pi.exact and all(type(x) is Fraction for x in Pi.generators.flat)
    for u in U[:, :m]:
        # h(u) = sum over (m-1)-subsets S of |det [u; G_S]|
        want = sum(abs(_det_exact([list(u)] + [list(G[i]) for i in S]))
                   for S in combinations(range(len(G)), m - 1))
        assert support(Pi, u) == want


def test_huge_rational_entries_stay_exact():
    # numerators of about 10^12 over denominators of about 10^9: the
    # products pass 2^62 and run on Python ints
    g = rng(70)
    G = np.empty((5, 3), dtype=object)
    for i in range(5):
        G[i, :] = [Fraction(int(g.integers(-10 ** 12, 10 ** 12)), int(g.integers(1, 10 ** 9)))
                   for _ in range(3)]
    K = zonotope(G, grading=(3, 1))
    got = volume(K)
    assert type(got) is Fraction and got == mixed_volume_brute_exact([G] * 3)
    Gs = [G[:2], G[2:4], G[3:]]
    got = mixed_volume([zonotope(H, grading=(3, 1)) for H in Gs])
    assert type(got) is Fraction and got == mixed_volume_brute_exact(Gs)


def test_mixed_volume_of_bodies_holding_plain_ints_is_exact():
    A = zonotope(np.array([[1, 2], [0, 3]], dtype=object), grading=(2, 1))
    B = zonotope(np.array([[2, 1]], dtype=object), grading=(2, 1))
    got = mixed_volume([A, B])
    assert type(got) is Fraction and got == Fraction(9, 2)


@pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-14])
def test_volume_of_a_near_collinear_pair_keeps_both_generators(eps):
    # e1 and e1 + eps e2 lie within COLLINEAR_SINE_TOL, and their merge
    # would lose about eps of the volume 7 + eps; the sum over the given
    # generators keeps it
    K = zonotope([[1.0, 0.0, 0.0], [1.0, eps, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                  [1.0, 1.0, 1.0]])
    want = 7 + Fraction(eps)
    assert abs(Fraction(volume(K)) - want) <= Fraction(1e-15) * want


def raw_and_canonical(exact: bool):
    """A body in R^3 whose generators repeat, negate, rescale and split
    four directions and add a zero row, and its canonical form.  No two
    rows of its wedge powers or projection body tie in their first entry,
    where ``canonical_eq``'s row order would turn on the last bit."""
    base = [[3, 2, 1], [1, 5, -2], [4, -1, 3], [2, 3, 7]]
    extra = [[-3, -2, -1], [2, 10, -4], [4, -1, 3], [0, 0, 0],
             [1, Fraction(3, 2), Fraction(7, 2)]]
    rows = [[Fraction(x) / 3 for x in row] for row in base + extra]
    K = zonotope(np.array(rows, dtype=object) if exact else np.array(rows, dtype=float))
    C = canonicalize(K)
    assert C.n_generators == 4 and K.exact == exact
    return K, C


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_functionals_of_a_raw_list_equal_those_of_its_canonical_form(exact):
    K, C = raw_and_canonical(exact)
    pairs = [(volume(K), volume(C))] + [(intrinsic_volume(K, d), intrinsic_volume(C, d))
                                        for d in range(4)]
    for got, want in pairs:
        assert type(got) is type(want)
        if isinstance(want, Fraction):
            assert got == want
        else:
            assert math.isclose(got, want, rel_tol=1e-13)
    # returned bodies against the route through the canonical form
    for d in range(4):
        assert canonical_eq(wedge_power(K, d), wedge_power(C, d))
    via_canonical = scale(hodge_star_zonoid(wedge_power(C, 2)), Fraction(2, math.factorial(2)))
    assert canonical_eq(projection_body(K), via_canonical)


# ---------------------------------------------------------------------------
# the wedge chain: repeated degree-1 factors enter as one wedge power


def _pairwise_chain(Ks):
    """The wedge chain over all ordered tuples of generators: a reduce over
    ``_wedge_raw`` whose intermediate products are canonicalized, the last
    one left raw.  The reference for ``_chain``'s power route."""
    out = reduce(lambda A, B: canonicalize(_wedge_raw(A, B)), Ks[1:-1], Ks[0])
    return _wedge_raw(out, Ks[-1]) if len(Ks) > 1 else out


def _chain_bodies(exact):
    """Degree-1 bodies in R^4, or in C^3 when exact is None: generic rows,
    repeated, negated, collinear and zero rows, a rank-deficient body, and
    bodies with one and two generators, fewer than most powers need."""
    g = rng(70)
    if exact is None:
        m = 3
        z = g.standard_normal((5, m)) + 1j * g.standard_normal((5, m))
        rows = {"generic": z,
                "repeats and zeros": np.array([z[0], z[0], -z[0], 1j * z[0], 0 * z[0], z[1],
                                               (2 - 1j) * z[1], z[2]]),
                "rank 2": np.array([z[0], z[1], z[0] + 1j * z[1], 3 * z[0] - z[1]]),
                "one generator": z[:1], "two generators": z[:2]}
        return {k: zonotope(realify_rows(v), cgrading=(m, 1)) for k, v in rows.items()}
    m = 4
    plane = g.integers(-3, 4, size=(2, m))
    rows = {"generic": g.integers(-5, 6, size=(6, m)),
            "repeats and zeros": np.array([plane[0], plane[0], -plane[0], 3 * plane[0],
                                           0 * plane[0], plane[1], plane[0] + plane[1]]),
            "rank 2": np.array([plane[0], plane[1], plane[0] - 2 * plane[1], 2 * plane[1]]),
            "one generator": plane[:1], "two generators": plane[:2]}
    if exact:
        return {k: zonotope(np.array([[Fraction(int(t), 3) for t in r] for r in v],
                                     dtype=object), grading=(m, 1)) for k, v in rows.items()}
    return {k: zonotope(v / 3.0, grading=(m, 1)) for k, v in rows.items()}


def _chains(bodies):
    """Chains with a body repeated: a power of every degree, the
    non-adjacent [K, L, K] and, with a third body, [K, K, L, M]."""
    names = list(bodies)
    K = bodies["generic"]
    m = (K.grading or K.cgrading)[0]
    for a in names:
        for r in range(2, m + 1):
            yield f"{a}^{r}", [bodies[a]] * r
        for b in names:
            if b != a:
                K, L = bodies[a], bodies[b]
                yield f"{a}, {b}, {a}", [K, L, K]
                yield f"{a}, {a}, {b}, generic", [K, K, L, bodies["generic"]]


@pytest.mark.parametrize("field", ["float", "fraction", "complex"])
def test_wedge_chain_with_repeated_factors_equals_the_pairwise_chain(field):
    """Fraction bodies: equal canonical forms.  Float bodies: the length and
    the support in 32 directions within 1e-13 of the product of the
    factors' lengths, which bounds the chain's length (several chains here
    are 0 up to rounding).  Float canonical forms are not compared: the
    pairwise chain keeps rows of rounding size from g ^ g = 0, and a lead
    entry of rounding size can flip a row's sign."""
    bodies = _chain_bodies({"float": False, "fraction": True, "complex": None}[field])
    g = rng(73)
    worst = 0.0
    for name, Ks in _chains(bodies):
        got, want = _chain(Ks), _pairwise_chain(Ks)
        assert got.grading == want.grading and got.cgrading == want.cgrading, name
        if all(K is Ks[0] for K in Ks):
            assert got.n_generators == math.comb(Ks[0].n_generators, len(Ks)), name
        if field == "fraction":
            assert got.exact and canonical_eq(got, want), name
            assert length(canonicalize(got)) == length(canonicalize(want)), name
            if got.ambient_dim == 1:  # the top degree: exact Fraction lengths
                assert type(length(got)) is Fraction and length(got) == length(want), name
            continue
        U = g.standard_normal((32, got.ambient_dim))
        gaps = [abs(length(got) - length(want))] + [abs(support(got, u) - support(want, u))
                                                    for u in U / np.linalg.norm(U, axis=1)[:, None]]
        worst = max(worst, max(gaps) / math.prod(length(K) for K in Ks))
    # largest relative change measured: 8.0e-17 (float), 8.1e-17 (complex)
    assert worst <= 1e-13


def test_wedge_chain_power_of_fewer_generators_than_factors_is_the_zero_body():
    for K in (zonotope([[1.0, 2.0, 3.0]], grading=(3, 1)),
              zonotope(realify_rows(np.array([[1.0, 1j], [2.0, 3.0]])), cgrading=(2, 1))):
        r = K.n_generators + 1
        P = _chain([K] * r)
        assert P.n_generators == 0 and length(P) == 0.0
        assert (P.grading or P.cgrading) == ((K.grading or K.cgrading)[0], r)


def test_wedge_chain_groups_a_body_by_value():
    g = rng(71)
    K = zonotope(g.standard_normal((5, 3)), grading=(3, 1))
    L = zonotope(g.standard_normal((4, 3)), grading=(3, 1))
    twin = zonotope(K.generators.copy(), grading=(3, 1))
    # an equal copy is the same body: one power of C(5, 2) rows, bit for bit
    for got, want in ((_chain([K, twin]), _chain([K, K])),
                      (_chain([K, L, twin]), _chain([K, L, K]))):
        assert got.n_generators == want.n_generators
        assert got.generators.tobytes() == want.generators.tobytes()
    assert _chain([K, twin]).n_generators == 10
    exact = zonotope(np.array([[Fraction(int(x), 3) for x in row]
                               for row in g.integers(-5, 6, size=(5, 3))]), grading=(3, 1))
    copy = zonotope(exact.generators.copy(), grading=(3, 1))
    assert _chain([exact, copy]).generators.tolist() == _chain([exact, exact]).generators.tolist()
    # one entry apart: all 5^2 pairs
    off = K.generators.copy()
    off[2, 1] = np.nextafter(off[2, 1], np.inf)
    assert _chain([K, zonotope(off, grading=(3, 1))]).n_generators == 25
    # a tag apart (degrees 1 and 3 of R^4, both in R^4): all 5^2 pairs
    G = g.standard_normal((5, 4))
    P = _chain([zonotope(G, grading=(4, 1)), zonotope(G, grading=(4, 3))])
    assert P.grading == (4, 4) and P.n_generators == 25
    # the field apart: not grouped, so the wedge refuses to mix them
    as_float = zonotope(exact.generators.astype(float), grading=(3, 1))
    with pytest.raises(ValueError, match="cannot mix exact and float"):
        _chain([exact, as_float])


def test_wedge_chain_leaves_a_repeated_degree_two_factor_ungrouped():
    # e1^e2 + e3^e4 is not simple: its square is 2 e1^e2^e3^e4, not 0
    W = zonotope([[1.0, 0.0, 0.0, 0.0, 0.0, 1.0]], grading=(4, 2))
    P = _chain([W, W])
    assert P.grading == (4, 4) and length(P) == 2.0
    assert np.array_equal(P.generators, _wedge_raw(W, W).generators)
    K = zonotope(rng(72).standard_normal((6, 4)), grading=(4, 1))
    V = wedge_power(K, 2)
    assert np.array_equal(_chain([V, V]).generators, _wedge_raw(V, V).generators)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_mixed_volume_with_a_repeated_body_takes_the_power_route(exact, monkeypatch):
    powers = []

    def spy(K, d):
        powers.append((K.n_generators, d))
        return subset_power(K, d)

    subset_power = algebra._subset_power
    monkeypatch.setattr(algebra, "_subset_power", spy)
    K, L = degenerate_body(3, exact), degenerate_body(3, exact, seed=1)
    got = mixed_volume([K, L, K])
    want = length(_pairwise_chain([_as_degree_one(K), _as_degree_one(L),
                                   _as_degree_one(K)])) / math.factorial(3)
    if exact:
        assert isinstance(got, Fraction) and got == want
    else:
        assert math.isclose(got, want, rel_tol=1e-13)
    # an untagged body passed three times is one repeated factor
    raw = zonotope(K.generators)
    assert mixed_volume([raw, raw, raw]) == volume(K)
    assert powers == [(K.n_generators, 2), (K.n_generators, 3), (K.n_generators, 3)]
