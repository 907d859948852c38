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
    unrealify,
    wedge,
    wedge_rows,
)
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
