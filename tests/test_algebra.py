"""Tests for the graded zonoid algebra: tensor, wedge, volumes, duality."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from zonoidal import (
    VirtualZonotope,
    af_gap,
    canonical_eq,
    canonicalize,
    hodge_star_zonoid,
    induced_map,
    intrinsic_volume,
    length,
    linear_image,
    minkowski_sum,
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
from zonoidal.exterior import _ROW_BLOCK
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
    # an empty body takes the other body's field
    O = zonotope([], ambient_dim=2, grading=(2, 1))
    assert wedge_product(O, E).n_generators == 0
    assert tensor_product(E, O).n_generators == 0


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
