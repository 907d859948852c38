"""Tests for the exterior algebra layer."""

import math
import warnings
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from zonoidal import (
    ComplexMultivector,
    Multivector,
    blade_from_vectors,
    blade_rows,
    complex_blade_from_vectors,
    complex_wedge,
    exterior_dim,
    hodge_star,
    inner,
    mixed_volume,
    realify,
    realify_rows,
    unrealify,
    unrealify_rows,
    subset_blades,
    tensor_product,
    volume,
    wedge,
    wedge_pairs,
    wedge_rows,
    zonotope,
)
from zonoidal import exterior
from zonoidal.exterior import _ROW_BLOCK, _int_arrays, _split_exact, _subset_blocks
from zonoidal.testkit import mixed_volume_brute_exact, wedge_norm_brute


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def random_mv(m, k, gen):
    return Multivector(m, k, gen.standard_normal(exterior_dim(m, k)))


def test_exterior_dim():
    assert exterior_dim(4, 2) == 6
    assert exterior_dim(5, 0) == 1
    assert exterior_dim(3, 3) == 1


def test_wedge_basis_vectors():
    e1 = Multivector.from_vector(np.array([1.0, 0.0, 0.0]))
    e2 = Multivector.from_vector(np.array([0.0, 1.0, 0.0]))
    w = wedge(e1, e2)
    # lex order of 2-subsets of {0,1,2}: (0,1), (0,2), (1,2)
    assert np.allclose(w.coeffs, [1.0, 0.0, 0.0])
    assert wedge(e1, e1).norm() == 0.0


def test_wedge_anticommutes_on_vectors():
    g = rng(1)
    u = Multivector.from_vector(g.standard_normal(4))
    v = Multivector.from_vector(g.standard_normal(4))
    assert np.allclose(wedge(u, v).coeffs, -wedge(v, u).coeffs)


def test_wedge_associative():
    g = rng(2)
    for _ in range(20):
        m = int(g.integers(3, 6))
        a = random_mv(m, 1, g)
        b = random_mv(m, 1, g)
        c = random_mv(m, int(g.integers(1, m - 1)), g)
        left = wedge(wedge(a, b), c)
        right = wedge(a, wedge(b, c))
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_wedge_graded_commutativity():
    g = rng(3)
    for _ in range(20):
        m = int(g.integers(2, 7))
        k = int(g.integers(1, m + 1))
        l = int(g.integers(0, m - k + 1))
        a = random_mv(m, k, g)
        b = random_mv(m, l, g)
        sign = (-1) ** (k * l)
        assert np.allclose(wedge(a, b).coeffs, sign * wedge(b, a).coeffs, atol=1e-12)


def test_wedge_exact_fractions():
    a = Multivector(2, 1, np.array([Fraction(1, 3), Fraction(2, 5)], dtype=object))
    b = Multivector(2, 1, np.array([Fraction(7, 2), Fraction(-1, 4)], dtype=object))
    w = wedge(a, b)
    assert w.coeffs[0] == Fraction(1, 3) * Fraction(-1, 4) - Fraction(2, 5) * Fraction(7, 2)
    assert isinstance(w.coeffs[0], Fraction)


def test_blade_norm_is_abs_det():
    g = rng(4)
    for _ in range(25):
        m = int(g.integers(2, 6))
        vs = g.standard_normal((m, m))
        blade = blade_from_vectors(*vs)
        det = abs(np.linalg.det(vs))
        assert math.isclose(blade.norm(), det, rel_tol=1e-11, abs_tol=1e-12)


def test_blade_norm_gram_oracle():
    g = rng(5)
    for _ in range(25):
        m = int(g.integers(3, 7))
        k = int(g.integers(1, m))
        vs = g.standard_normal((k, m))
        assert math.isclose(
            blade_from_vectors(*vs).norm(), wedge_norm_brute(vs), rel_tol=1e-10
        )


def test_blade_alternating():
    g = rng(6)
    u, v, w = g.standard_normal((3, 4))
    a = blade_from_vectors(u, v, w)
    b = blade_from_vectors(v, u, w)
    assert np.allclose(a.coeffs, -b.coeffs)
    assert blade_from_vectors(u, v, u).norm() < 1e-12


def test_hodge_star_examples():
    e1 = Multivector.basis_blade(2, (0,))
    assert np.allclose(hodge_star(e1).coeffs, [0.0, 1.0])
    e12 = Multivector.basis_blade(3, (0, 1))
    assert np.allclose(hodge_star(e12).coeffs, [0.0, 0.0, 1.0])


def test_hodge_star_isometry_and_involution():
    g = rng(7)
    for _ in range(20):
        m = int(g.integers(2, 7))
        k = int(g.integers(0, m + 1))
        a = random_mv(m, k, g)
        s = hodge_star(a)
        assert s.degree == m - k
        assert math.isclose(s.norm(), a.norm(), rel_tol=1e-12)
        back = hodge_star(s)
        sign = (-1) ** (k * (m - k))
        assert np.allclose(back.coeffs, sign * a.coeffs, atol=1e-12)


def test_hodge_pairing_recovers_inner_product():
    # a ^ star(b) = <a, b> vol for equal-degree inputs
    g = rng(8)
    for _ in range(15):
        m = int(g.integers(2, 6))
        k = int(g.integers(1, m + 1))
        a = random_mv(m, k, g)
        b = random_mv(m, k, g)
        top = wedge(a, hodge_star(b))
        assert top.degree == m
        assert math.isclose(float(top.coeffs[0]), inner(a, b), rel_tol=1e-10, abs_tol=1e-12)


def test_multivector_arithmetic():
    g = rng(9)
    a = random_mv(4, 2, g)
    b = random_mv(4, 2, g)
    assert np.allclose((a + b).coeffs, a.coeffs + b.coeffs)
    assert np.allclose((a - b).coeffs, a.coeffs - b.coeffs)
    assert np.allclose((2.5 * a).coeffs, 2.5 * np.asarray(a.coeffs, dtype=float))
    with pytest.raises(ValueError):
        a + random_mv(4, 1, g)


def test_complex_wedge_determinant():
    g = rng(10)
    for _ in range(15):
        n = int(g.integers(2, 5))
        vs = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        blade = complex_blade_from_vectors(*vs)
        assert blade.degree == n
        assert math.isclose(blade.norm(), abs(np.linalg.det(vs)), rel_tol=1e-11)


def test_complex_wedge_complex_bilinear():
    g = rng(11)
    u = g.standard_normal(3) + 1j * g.standard_normal(3)
    v = g.standard_normal(3) + 1j * g.standard_normal(3)
    a = ComplexMultivector.from_vector(u)
    b = ComplexMultivector.from_vector(v)
    lam = 0.7 - 2.1j
    left = complex_wedge(ComplexMultivector.from_vector(lam * u), b)
    right = complex_wedge(a, b)
    assert np.allclose(left.coeffs, lam * right.coeffs)


def test_realify_unrealify_roundtrip():
    g = rng(12)
    for _ in range(10):
        n = int(g.integers(1, 5))
        k = int(g.integers(1, n + 1))
        a = ComplexMultivector(n, k, (g.standard_normal(exterior_dim(n, k))
                                      + 1j * g.standard_normal(exterior_dim(n, k))))
        r = realify(a)
        assert r.shape == (2 * exterior_dim(n, k),)
        assert math.isclose(float(np.linalg.norm(r)), a.norm(), rel_tol=1e-12)
        back = unrealify(r, n, k)
        assert np.allclose(back.coeffs, a.coeffs)


def test_realify_interleaves_coordinates():
    a = ComplexMultivector.from_vector(np.array([1.0 + 2.0j, 3.0 - 4.0j]))
    # slots: (re z1, im z1, re z2, im z2)
    assert np.allclose(realify(a), [1.0, 2.0, 3.0, -4.0])


def test_wedge_of_real_and_complex_is_the_complex_wedge():
    g = rng(13)
    u = g.standard_normal(4)
    v = g.standard_normal(4) + 1j * g.standard_normal(4)
    a, b = Multivector.from_vector(u), Multivector.from_vector(v)
    want = wedge(Multivector.from_vector(u.astype(np.complex128)), b)
    for got in (wedge(a, b), complex_wedge(a, b)):
        assert got.coeffs.dtype == np.complex128
        assert np.array_equal(got.coeffs, want.coeffs)


def test_unrealify_rows_inverts_realify_rows():
    g = rng(14)
    Z = g.standard_normal((7, 3)) + 1j * g.standard_normal((7, 3))
    R = realify_rows(Z)
    assert R.shape == (7, 6)
    assert np.array_equal(unrealify_rows(R), Z)


def test_realified_rows_are_views_of_complex128_memory():
    # signed zeros, infinities and NaN survive the round trip bit for bit,
    # with no invalid-value warning from a multiply by 1j
    v = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -1.5, 1.0, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = unrealify_rows(v)
        back = realify_rows(z)
    assert z.shape == (1, 4) and z[0, 3] == complex(1.0, np.inf)
    assert back.tobytes() == v.tobytes()
    assert np.shares_memory(z, v) and np.shares_memory(back, v)
    Z = rng(15).standard_normal((3, 4)) + 1j
    assert np.shares_memory(realify_rows(Z), Z)
    # other dtypes and strided rows are copied, in the same layout
    assert np.array_equal(realify_rows(np.array([[1, -2]])), [[1.0, 0.0, -2.0, 0.0]])
    strided = v[:, ::2]
    z = unrealify_rows(strided)
    assert not np.shares_memory(z, v) and realify_rows(z).tobytes() == strided.tobytes()


def test_inner_of_fraction_multivectors_is_exact():
    a = Multivector.from_vector(np.array([Fraction(1, 3), Fraction(1, 2), 0], dtype=object))
    b = Multivector.from_vector(np.array([3, Fraction(2, 3), 5], dtype=object))
    got = inner(a, b)
    assert type(got) is Fraction and got == Fraction(4, 3)


def test_norm_in_the_float_range_is_numpys_norm():
    g = rng(31)
    for size in (1, 3, 10, 56, 252):
        c = g.standard_normal(size) * 10.0 ** int(g.integers(-100, 100))
        for coeffs in (c, c + 1j * g.standard_normal(size) * np.abs(c).max()):
            assert Multivector.from_vector(coeffs).norm() == float(np.linalg.norm(coeffs))


def test_norm_at_extreme_scales_in_both_fields():
    # where the plain sum of squares would overflow or underflow; no
    # warning (filterwarnings = error)
    for coeffs, want in (([Fraction(10) ** 200, 1], 1e200), ([Fraction(1, 10 ** 200), 0], 1e-200),
                         ([1e200, 1.0], 1e200), ([1e-200, 0.0], 1e-200), ([1.0, 1e200j], 1e200)):
        dtype = object if isinstance(coeffs[0], Fraction) else None
        v = Multivector.from_vector(np.array(coeffs, dtype=dtype))
        assert math.isclose(v.norm(), want, rel_tol=1e-15)
    for coeffs in (np.array([Fraction(10) ** 400, 1], dtype=object), np.array([1.5e308, 1.5e308])):
        with pytest.raises(ValueError, match="norms must be finite"):
            Multivector.from_vector(coeffs).norm()


def test_inner_rejects_complex_coefficients():
    a = Multivector.from_vector(np.array([1.0 + 1.0j, 2.0]))
    b = Multivector.from_vector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        inner(a, b)
    with pytest.raises(ValueError):
        inner(b, a)


def test_basis_blade_subsets_are_lex_sorted():
    m, k = 5, 3
    subsets = list(combinations(range(m), k))
    for idx, ss in enumerate(subsets):
        mv = Multivector.basis_blade(m, ss)
        arr = np.zeros(exterior_dim(m, k))
        arr[idx] = 1.0
        assert np.allclose(mv.coeffs, arr)


def leibniz_det(rows):
    """Determinant by the permutation sum; exact on Fraction entries."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, p in enumerate(perm):
            term = term * rows[i][p]
        total = total + term
    return total


def minors(vectors):
    """All k x k minors of the k x m matrix of vectors, lexicographic columns."""
    k, m = len(vectors), len(vectors[0])
    return [leibniz_det([[v[c] for c in cols] for v in vectors])
            for cols in combinations(range(m), k)]


def random_batch(g, kind, shape):
    if kind == "float":
        return g.standard_normal(shape)
    if kind == "complex":
        return g.standard_normal(shape) + 1j * g.standard_normal(shape)
    num = g.integers(-6, 7, size=shape)
    den = g.integers(1, 5, size=shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = Fraction(int(num[idx]), int(den[idx]))
    return out


def assert_rows_equal(got, want, kind):
    assert got.shape == (len(want), len(want[0]) if len(want) else 0)
    for row, ref in zip(got, want):
        if kind == "fraction":
            assert all(isinstance(x, Fraction) for x in row)
            assert list(row) == list(ref)
        else:
            assert np.allclose(row, np.asarray(ref), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["float", "complex", "fraction"])
def test_blade_rows_are_minors(kind):
    g = rng(31)
    for m, k in ((3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (4, 4)):
        V = random_batch(g, kind, (6, k, m))
        B = blade_rows(V)
        assert_rows_equal(B, [minors(list(V[r])) for r in range(len(V))], kind)
        if kind != "complex":
            for r in range(len(V)):
                norm = math.sqrt(float(sum(x * x for x in B[r])))
                assert math.isclose(norm, wedge_norm_brute(V[r].astype(np.float64)),
                                    rel_tol=1e-10, abs_tol=1e-12)


@pytest.mark.parametrize("kind", ["float", "complex", "fraction"])
def test_wedge_rows_match_minors_of_stacked_blades(kind):
    # a[r] and b[r] are blades of U[r] and W[r], computed without the
    # kernel; their wedge must be the blade of U[r] stacked on W[r].
    g = rng(32)
    for m, k, l in ((3, 1, 1), (3, 1, 2), (4, 2, 2), (5, 2, 1), (5, 3, 2)):
        U = random_batch(g, kind, (5, k, m))
        W = random_batch(g, kind, (5, l, m))
        a = np.array([minors(list(U[r])) for r in range(5)])
        b = np.array([minors(list(W[r])) for r in range(5)])
        got = wedge_rows(a, b, m, k, l)
        want = [minors(list(U[r]) + list(W[r])) for r in range(5)]
        assert_rows_equal(got, want, kind)
        if kind == "float":
            for r in range(5):
                assert math.isclose(float(np.linalg.norm(got[r])),
                                    wedge_norm_brute(np.vstack([U[r], W[r]])),
                                    rel_tol=1e-10, abs_tol=1e-12)


@pytest.mark.parametrize("kind", ["float", "complex", "fraction"])
def test_wedge_rows_shapes_at_the_edges(kind):
    g = rng(33)
    # degree overflow: k + l > m gives no coefficients
    a = random_batch(g, kind, (4, exterior_dim(3, 2)))
    b = random_batch(g, kind, (4, exterior_dim(3, 2)))
    assert wedge_rows(a, b, 3, 2, 2).shape == (4, 0)
    assert blade_rows(random_batch(g, kind, (4, 4, 3))).shape == (4, 0)
    # empty batch keeps the output width
    a0 = random_batch(g, kind, (0, exterior_dim(5, 2)))
    b0 = random_batch(g, kind, (0, exterior_dim(5, 1)))
    assert wedge_rows(a0, b0, 5, 2, 1).shape == (0, exterior_dim(5, 3))
    assert blade_rows(random_batch(g, kind, (0, 3, 5))).shape == (0, exterior_dim(5, 3))


def fraction_rows(g, shape, num_hi, den_hi, scale=1):
    """Object rows of Fraction entries with mixed denominators, plus a
    plain int in every other slot; numerators reach num_hi * scale."""
    out = np.empty(shape, dtype=object)
    for n, idx in enumerate(np.ndindex(*shape)):
        num = int(g.integers(-num_hi, num_hi + 1)) * scale + int(g.integers(0, 2))
        out[idx] = num if n % 2 else Fraction(num, int(g.integers(1, den_hi + 1)))
    return out


def wedge_reference(a, b, m, k, l):
    """a ^ b by the definition: each disjoint pair (I, J) adds the sign of
    the shuffle that sorts I + J times a_I b_J to the slot of I u J."""
    rank = {S: i for i, S in enumerate(combinations(range(m), k + l))}
    out = [Fraction(0)] * len(rank)
    for x, I in zip(a, combinations(range(m), k)):
        for y, J in zip(b, combinations(range(m), l)):
            if not set(I) & set(J):
                sign = (-1) ** sum(i > j for i in I for j in J)
                out[rank[tuple(sorted(I + J))]] += sign * x * y
    return out


@pytest.mark.parametrize("num_hi, den_hi, scale",
                         [(6, 4, 1), (2 ** 40, 1, 1), (10 ** 12, 10 ** 9, 1), (2 ** 40, 3, 2 ** 30)])
def test_exact_rows_equal_a_plain_fraction_reference(num_hi, den_hi, scale):
    # Small entries run in int64; 2^40 numerators split into int64 but
    # their bound passes 2^62; the last two need Python ints to split.
    g = rng(34)
    for m, k, l in ((3, 1, 1), (4, 2, 1), (4, 2, 2), (5, 2, 3)):
        a = fraction_rows(g, (3, exterior_dim(m, k)), num_hi, den_hi, scale)
        b = fraction_rows(g, (3, exterior_dim(m, l)), num_hi, den_hi, scale)
        got = wedge_rows(a, b, m, k, l)
        want = [wedge_reference(a[r], b[r], m, k, l) for r in range(3)]
        assert_rows_equal(got, want, "fraction")
    for m, k in ((3, 2), (4, 3), (5, 5)):
        V = fraction_rows(g, (3, k, m), num_hi, den_hi, scale)
        assert_rows_equal(blade_rows(V), [minors(list(V[r])) for r in range(3)], "fraction")


def test_exact_products_switch_to_python_ints_above_the_bound():
    num, den, top = _split_exact(np.array([[2 ** 40, Fraction(1, 3)]], dtype=object))
    assert num.dtype == np.int64 and num.tolist() == [[3 * 2 ** 40, 1]] and den == 3
    assert _int_arrays(6 * top ** 3, num)[0].dtype == object
    assert _int_arrays(2 * top, num)[0].dtype == np.int64
    num, _, top = _split_exact(np.array([[2 ** 62, 1]], dtype=object))
    assert num.dtype == object and top == 2 ** 62
    assert _split_exact(np.array([[0.5, 1]], dtype=object)) is None  # a float entry
    assert _split_exact(np.zeros((2, 3))) is None


def test_exact_rows_at_the_edges_stay_fractions():
    g = rng(35)
    a = fraction_rows(g, (4, exterior_dim(3, 2)), 6, 4)
    over = wedge_rows(a, a, 3, 2, 2)
    assert over.shape == (4, 0) and over.dtype == object
    empty = wedge_rows(fraction_rows(g, (0, 10), 6, 4), fraction_rows(g, (0, 5), 6, 4), 5, 2, 1)
    assert empty.shape == (0, exterior_dim(5, 3)) and empty.dtype == object
    assert blade_rows(fraction_rows(g, (0, 3, 5), 6, 4)).shape == (0, exterior_dim(5, 3))
    ints = np.array([[1, 2, 3], [0, 1, 4]], dtype=object)
    got = blade_rows(ints[None])
    assert got.tolist() == [[1, 4, 5]] and all(type(x) is Fraction for x in got[0])


@pytest.mark.parametrize("kind", ["float", "complex", "fraction"])
def test_list_entry_points_match_the_row_kernels(kind):
    g = rng(36)
    m = 4
    a, b = random_batch(g, kind, (5, exterior_dim(m, 2))), random_batch(g, kind, (3, m))
    want = wedge_rows(np.repeat(a, 3, axis=0), np.tile(b, (5, 1)), m, 2, 1)
    G = random_batch(g, kind, (6, m))
    blades = np.concatenate([blade_rows(G[list(S)][None]) for S in combinations(range(6), 3)])
    if kind == "fraction":
        assert_rows_equal(wedge_pairs(a, b, m, 2, 1), want.tolist(), kind)
        assert_rows_equal(subset_blades(G, 3, 6), (blades * 6).tolist(), kind)
    else:  # the same gathers: equal bit for bit
        assert np.array_equal(wedge_pairs(a, b, m, 2, 1), want)
        assert np.array_equal(subset_blades(G, 3, 6), blades * 6)
    assert wedge_pairs(a, b[:0], m, 2, 1).shape == (0, exterior_dim(m, 3))


def same_kind_rows(g, kind, shape):
    """Float, complex or exact rows; "fraction" numerators stay in int64
    through every product, "bigint" ones need Python ints."""
    if kind == "bigint":
        return fraction_rows(g, shape, 2 ** 40, 3, 2 ** 30)
    return random_batch(g, kind, shape)


def assert_same_array(got, want):
    """Equal dtype, shape and memory order, and equal bytes; exact arrays
    hold equal entries, every one a Fraction."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert all(type(x) is Fraction for x in got.flat)
        assert got.tolist() == want.tolist()
        return
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.tobytes(order="A") == want.tobytes(order="A")


def subset_batch(G, d):
    """G's d-subsets, in ``combinations`` order, as one blade_rows batch."""
    idx = np.array(list(combinations(range(len(G)), d)), dtype=np.intp).reshape(-1, d)
    return G[idx]


@pytest.mark.parametrize("kind", ["float", "complex", "fraction", "bigint"])
@pytest.mark.parametrize("N, m, d", [
    (7, 4, 1), (4, 5, 4), (6, 4, 3), (5, 4, 5),  # d = 1, d = N, and d = N > m
    (3, 4, 4), (6, 3, 4), (0, 3, 2),  # d > N, d > m and no generators
    (32, 4, 4),  # C(32, 4) = 35960 subsets, 4495 of them prefixes of length 3
])
def test_subset_blades_are_the_blades_of_each_subset(kind, N, m, d):
    G = same_kind_rows(rng(37), kind, (N, m))
    if (N, d) == (32, 4):
        assert math.comb(N, d) > _ROW_BLOCK and math.comb(N - 1, d - 1) > _ROW_BLOCK
    want = blade_rows(subset_batch(G, d))
    assert want.shape == (math.comb(N, d), exterior_dim(m, d))
    for factor in (1, math.factorial(d)):
        assert_same_array(subset_blades(G, d, factor), want * factor)


@pytest.mark.parametrize("kind", ["float", "complex", "fraction"])
@pytest.mark.parametrize("N", [0, 4])
def test_subset_blades_of_degree_zero_are_the_empty_subsets_row(kind, N):
    G = random_batch(rng(40), kind, (N, 3))
    for factor in (1, 6):
        got = subset_blades(G, 0, factor)
        assert got.shape == (1, 1) and got.dtype == G.dtype and got[0, 0] == factor


def _tight_rows(M, m, k, l):
    """Rows a (degree k) and b (degree l, k + l = m) of entries +-M whose
    one wedge coordinate sums C(m, k) terms M^2 of one sign: the int64
    bound C(m, k) M^2 of ``wedge_rows``, reached."""
    ii, jj, ss = exterior._wedge_table(m, k, l)
    a = np.full((1, exterior_dim(m, k)), Fraction(M), dtype=object)
    b = np.empty((1, exterior_dim(m, l)), dtype=object)
    b[0, jj[0]] = [Fraction(int(s) * M) for s in ss[0]]
    return a, b


def _numerator_dtypes(monkeypatch):
    """The dtype of the operand each ``exterior._gather`` call reads."""
    seen = []
    gather = exterior._gather

    def spy(a, b, *rest):
        seen.append(b.dtype)
        return gather(a, b, *rest)

    monkeypatch.setattr(exterior, "_gather", spy)
    return seen


@pytest.mark.parametrize("route", ["rows", "pairs", "blades", "subsets", "tensor"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_exact_products_at_the_int64_bound(route, side, monkeypatch):
    """Just below the bound the gathers run in int64, whose overflow would
    wrap without an error; just above they take Python ints.  Every input
    reaches its bound (all terms of a sum share one sign), and the result
    equals Fraction determinants summed by definition, or for the tensor
    product, whose table has one term per slot, the Fraction products."""
    # terms per slot: multinomial (x factor) for wedges, 1 for the tensor
    terms = {"rows": 6, "pairs": 6, "blades": 2, "subsets": 2 * 2, "tensor": 1}
    M = math.isqrt((2 ** 62 - 1) // terms[route]) + (side == "above")
    assert (terms[route] * M * M < 2 ** 62) == (side == "below")
    seen = _numerator_dtypes(monkeypatch)
    if route in ("rows", "pairs"):  # k = l = 2 in R^4: six terms
        a, b = _tight_rows(M, 4, 2, 2)
        if route == "rows":
            got, want = wedge_rows(a, b, 4, 2, 2), [wedge_reference(a[0], b[0], 4, 2, 2)]
        else:
            b = np.concatenate([b, -b])
            got = wedge_pairs(a, b, 4, 2, 2)
            want = [wedge_reference(a[0], y, 4, 2, 2) for y in b]
    elif route == "tensor":  # the canonical row (M^2, M^2, -M^2, -M^2)
        K = zonotope(np.array([[Fraction(M), Fraction(-M)]], dtype=object))
        L = zonotope(np.array([[Fraction(M), Fraction(M)]], dtype=object))
        got = tensor_product(K, L).generators
        want = [[x * y for x in K.generators[0] for y in L.generators[0]]]
    else:  # two vectors of R^2 whose minor is 2 M^2, times factor 2 for subsets
        V = np.array([[Fraction(M), Fraction(M)], [Fraction(-M), Fraction(M)]], dtype=object)
        if route == "blades":
            got, want = blade_rows(V[None]), [minors(list(V))]
        else:
            got, want = subset_blades(V, 2, 2), [[2 * x for x in minors(list(V))]]
    assert_rows_equal(got, want, "fraction")
    assert max(abs(x) for x in got.flat) == terms[route] * M * M
    assert seen and set(seen) == {np.dtype(np.int64) if side == "below" else np.dtype(object)}


def test_exact_products_over_one_array_denominator_take_python_ints(monkeypatch):
    """One distinct prime denominator near 1000 per row: each row alone
    would split into small numerators, but the array's one denominator,
    the product of eight primes, lifts them past 2^62, so every gather
    runs on Python ints, and each result still equals its Fraction
    reference."""
    primes = [997, 1009, 1013, 1019, 1021, 1031, 1033, 1039]
    nums = rng(36).integers(1, 10, size=(8, 3)) * rng(37).choice([-1, 1], size=(8, 3))
    G = np.array([[Fraction(int(x), p) for x in row] for row, p in zip(nums, primes)],
                 dtype=object)
    assert _split_exact(G)[2] >= 2 ** 62
    seen = _numerator_dtypes(monkeypatch)
    got = volume(zonotope(G, grading=(3, 1)))
    assert type(got) is Fraction and got == mixed_volume_brute_exact([G] * 3)
    parts = [G[:6], G[2:], G[::2]]
    got = mixed_volume([zonotope(H, grading=(3, 1)) for H in parts])
    assert type(got) is Fraction and got == mixed_volume_brute_exact(parts)
    T = tensor_product(zonotope(G[:4]), zonotope(G[4:])).generators
    want = [[x * y for x in a for y in b] for a in G[:4] for b in G[4:]]
    assert all(type(x) is Fraction for x in T.flat)
    assert sorted(T.tolist()) == sorted(r if r[0] > 0 else [-x for x in r] for r in want)
    assert seen and set(seen) == {np.dtype(object)}


@pytest.mark.parametrize("N, d", [(0, 0), (3, 0), (0, 2), (5, 6), (9, 1), (9, 9), (9, 4), (40, 4)])
def test_subset_blocks_list_combinations_in_blocks(N, d):
    blocks = list(_subset_blocks(N, d))
    sizes = [len(b) for b in blocks]
    assert max(sizes) <= _ROW_BLOCK and max(sizes) - min(sizes) <= 1
    got = np.concatenate(blocks)
    assert got.shape == (math.comb(N, d), d) and got.dtype == np.intp
    assert list(map(tuple, got.tolist())) == list(combinations(range(N), d))


def _block_rows(monkeypatch):
    """The output rows of each block of every ``exterior._gather`` call."""
    seen = []
    gather = exterior._gather

    def spy(a, b, table, count, blocks):
        blocks = list(blocks)
        seen.extend(rows.stop - rows.start for rows, _, _ in blocks)
        return gather(a, b, table, count, blocks)

    monkeypatch.setattr(exterior, "_gather", spy)
    return seen


@pytest.mark.parametrize("kind", ["float", "complex", "fraction"])
def test_wedge_pairs_across_a_block_boundary(kind, monkeypatch):
    """Every row of a with every row of b, in blocks of at most _ROW_BLOCK
    output rows whatever len(a) and len(b) are (b can be longer than a
    block: mixed_volume([K, L, L, L]) in R^4 with 60 generators in L
    wedges K with the 34220 rows of L^3).  Wedges equal wedge_rows on
    repeated rows.  The tensor table gives np.einsum's outer products, as
    algebra's reference tensor product forms them, laid out as every
    gather's output is, with a block's rows as its fastest axis; tensor
    products are real, and np.einsum and the gather may round complex
    products differently (numpy's multiply loops may fuse them)."""
    g = rng(38)
    blocks = _block_rows(monkeypatch)
    m, k, l = 4, 2, 1
    assert 70 * 61 > _ROW_BLOCK and 70 * 61 % _ROW_BLOCK
    for na, nb in ((70, 61), (2, _ROW_BLOCK + 4), (0, 61), (70, 0)):
        a = random_batch(g, kind, (na, exterior_dim(m, k)))
        b = random_batch(g, kind, (nb, exterior_dim(m, l)))
        want = wedge_rows(np.repeat(a, nb, axis=0), np.tile(b, (na, 1)), m, k, l)
        blocks.clear()
        assert_same_array(wedge_pairs(a, b, m, k, l), want)
        assert max(blocks) <= _ROW_BLOCK and sum(blocks) == na * nb
        if kind == "complex":
            continue
        a, b = a[:, :3], b[:, :2]
        want = np.asfortranarray(np.einsum("ia,jb->ijab", a, b).reshape(na * nb, 6))
        blocks.clear()
        assert_same_array(exterior._pairs(a, b, exterior._tensor_table(3, 2)), want)
        assert max(blocks) <= _ROW_BLOCK and sum(blocks) == na * nb


def test_subset_blades_peak_memory_stays_near_the_output():
    import tracemalloc

    G = rng(39).standard_normal((40, 5))
    subset_blades(G[:6], 5)  # the wedge tables of R^5, kept per process
    tracemalloc.start()
    try:
        out = subset_blades(G, 5, 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (658008, 1)
    # the output, the prefix tables of its rows (two index arrays) and
    # the prefixes of length 4 come to about 4x; refolding every subset
    # from scratch, in blocks, peaks at 6.8x
    assert peak < 5 * out.nbytes


def test_multivector_wedge_keeps_fraction_coefficients():
    u = Multivector(3, 1, np.array([Fraction(1, 2), 2, Fraction(-3, 4)], dtype=object))
    v = Multivector(3, 1, np.array([1, Fraction(1, 3), 0], dtype=object))
    w = wedge(u, v)
    assert all(type(x) is Fraction for x in w.coeffs)
    assert list(w.coeffs) == [Fraction(1, 6) - 2, Fraction(3, 4), Fraction(1, 4)]
    assert all(type(x) is Fraction for x in wedge(w, u).coeffs)
    assert np.allclose(w.coeffs.astype(float),
                       wedge(Multivector(3, 1, u.coeffs.astype(float)),
                             Multivector(3, 1, v.coeffs.astype(float))).coeffs)


def test_row_blocks_are_the_fewest_near_equal_slices():
    for count in (0, 1, 2, 3, 4095, 4096, 4097, 8191, 8193, 12289):
        for size in (1, 2, 3, 1000, _ROW_BLOCK):
            blocks = exterior._row_blocks(count, size)
            sizes = [b.stop - b.start for b in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == count
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert len(blocks) == max(1, -(-count // size))
            assert max(sizes) <= size and max(sizes) - min(sizes) <= 1
    assert exterior._row_blocks(4097) == [slice(0, 2048), slice(2048, 4097)]


def test_a_row_has_the_bits_it_has_in_a_two_row_call(monkeypatch):
    """The last of 4097 rows (R^5, k = 2, l = 3) equals the same row of a
    2-row call, of wedge_rows and of wedge_pairs: no gather block of a call
    of two or more output rows holds one row, whose terms numpy would sum
    in another order.  A one-row call, such as ``wedge``, is the exception."""
    g = np.random.default_rng(0)
    m, k, l = 5, 2, 3
    for _ in range(100):
        a = g.standard_normal((4097, exterior_dim(m, k)))
        b = g.standard_normal((4097, exterior_dim(m, l)))
        assert np.array_equal(wedge_rows(a, b, m, k, l)[-1], wedge_rows(a[-2:], b[-2:], m, k, l)[-1])
        assert np.array_equal(wedge_pairs(a, b[:1], m, k, l)[-1],
                              wedge_pairs(a[-2:], b[:1], m, k, l)[-1])
    blocks = _block_rows(monkeypatch)
    for na, nb in ((4097, 1), (1, 4097), (3, _ROW_BLOCK + 4), (2, 2 * _ROW_BLOCK + 1), (70, 61)):
        blocks.clear()
        wedge_pairs(g.standard_normal((na, 10)), g.standard_normal((nb, 5)), 5, 2, 1)
        assert sum(blocks) == na * nb and 2 <= min(blocks) and max(blocks) <= _ROW_BLOCK
