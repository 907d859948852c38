"""Tests for the graded zonoid algebra: tensor, wedge, volumes, duality."""

import math
from fractions import Fraction

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
