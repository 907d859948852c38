"""Tests for the exterior algebra layer."""

import math
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
    realify,
    realify_rows,
    unrealify,
    unrealify_rows,
    subset_blades,
    wedge,
    wedge_pairs,
    wedge_rows,
)
from zonoidal.exterior import _int_arrays, _split_exact
from zonoidal.testkit import wedge_norm_brute


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
    assert num.dtype == np.int64 and num.tolist() == [[3 * 2 ** 40, 1]] and den.tolist() == [3]
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
