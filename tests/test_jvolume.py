"""Tests for complex structures, sigma weights and J-volumes."""

import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from zonoidal import (
    PolytopeFaceData,
    Subspace,
    af_gap,
    canonical_eq,
    canonicalize,
    complex_wedge_zonoids,
    complex_zonotope,
    disc_zonotope,
    embed_real_zonotope,
    face_data_from_dict,
    face_data_to_dict,
    hodge_star_zonoid,
    j_frame,
    j_volume_polytope_mc,
    j_volume_zonotope,
    kazarnovskii_polytope_mc,
    kazarnovskii_zonotope,
    length,
    linear_image,
    minkowski_sum,
    mixed_J_volume,
    mixed_volume,
    normal_angle_mc,
    realify_rows,
    sigma_J,
    subspace_from_vectors,
    support,
    unrealify_rows,
    volume,
    wedge_product,
    zonotope,
    zonotope_face_data,
    zonotope_faces_for_span,
)
from zonoidal.exterior import _ROW_BLOCK, blade_from_vectors, complex_blade_from_vectors
from zonoidal.jvolume import _face_cone, _face_frame, _face_volume
from zonoidal.sampling import CHUNK, SeedStream, _mc_mean_se
from zonoidal.testkit import hull_area_brute, wedge_norm_brute
from zonoidal.zonotope import (_orthonormal_rows, _spans, _unique_rows, _vertex_signs,
                               _vertex_signs_many)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def random_complex_zonotope(g, n=2, n_gens=4):
    Z = g.standard_normal((n_gens, n)) + 1j * g.standard_normal((n_gens, n))
    return complex_zonotope(Z)


def realified_unitary(U):
    """Real 2n x 2n matrix acting on interleaved coordinates like U on C^n."""
    n = U.shape[0]
    R = np.zeros((2 * n, 2 * n))
    R[0::2, 0::2] = U.real
    R[1::2, 1::2] = U.real
    R[1::2, 0::2] = U.imag
    R[0::2, 1::2] = -U.imag
    return R


def standard_j(n):
    """The blockwise (x, y) -> (-y, x) on R^(2n), entry by entry."""
    J = np.zeros((2 * n, 2 * n))
    for j in range(n):
        J[2 * j, 2 * j + 1], J[2 * j + 1, 2 * j] = -1.0, 1.0
    return J


def test_standard_structure_is_multiplication_by_i():
    g = rng(40)
    for n in (1, 2, 3):
        J = standard_j(n)
        for _ in range(3):
            z = g.standard_normal(n) + 1j * g.standard_normal(n)
            assert np.array_equal(J @ realify_rows(z), realify_rows(1j * z))


def test_complex_structure_validation():
    j_frame(standard_j(2))
    with pytest.raises(ValueError, match="antisymmetric"):
        j_frame(np.eye(4))  # squares to +I, not -I
    for J in (np.eye(3), np.zeros((2, 4)), np.zeros(4), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="2n x 2n"):
            j_frame(J)


def test_sigma_extremes():
    real_plane = subspace_from_vectors([[1, 0, 0, 0], [0, 0, 1, 0.0]])
    assert math.isclose(sigma_J(real_plane), 1.0)
    complex_line = subspace_from_vectors([[1, 0, 0, 0], [0, 1, 0, 0.0]])
    assert sigma_J(complex_line) < 1e-14


def test_sigma_interpolates_squared_sine():
    for t in (0.2, 0.7, 1.1):
        E = subspace_from_vectors([[1, 0, 0, 0],
                                   [0, math.cos(t), math.sin(t), 0.0]])
        assert math.isclose(sigma_J(E), math.sin(t) ** 2, rel_tol=1e-12)


def test_sigma_basis_independent_and_unitary_invariant():
    g = rng(1)
    rows = g.standard_normal((2, 4))
    E = subspace_from_vectors(rows)
    mix = np.array([[0.6, 0.8], [-0.8, 0.6]])
    E2 = subspace_from_vectors(mix @ E.basis)
    assert math.isclose(sigma_J(E), sigma_J(E2), rel_tol=1e-12)
    CU = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
    U, _ = np.linalg.qr(CU)
    R = realified_unitary(U)
    E3 = subspace_from_vectors(E.basis @ R.T)
    assert math.isclose(sigma_J(E), sigma_J(E3), rel_tol=1e-10)


def test_sigma_requires_half_dimension():
    with pytest.raises(ValueError):
        sigma_J(subspace_from_vectors([[1, 0, 0, 0.0]]))


def test_complex_modulus_factors_through_sigma():
    # |z_1 ^_C ... ^_C z_n| = |real wedge of realified rows| * sigma(E)^(1/2)
    g = rng(2)
    for _ in range(10):
        Z = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
        lhs = complex_blade_from_vectors(*Z).norm()
        rows = np.empty((2, 4))
        rows[:, 0::2] = Z.real
        rows[:, 1::2] = Z.imag
        wedge_norm = blade_from_vectors(*rows).norm()
        s = sigma_J(subspace_from_vectors(rows))
        assert math.isclose(lhs, wedge_norm * math.sqrt(s), rel_tol=1e-10, abs_tol=1e-12)


def test_embed_real_zonotope():
    K = zonotope([[1.0, 0.0], [0.0, 1.0]])
    P = embed_real_zonotope(K)
    assert P.ambient_dim == 4
    assert P.cgrading == (2, 1)
    assert np.allclose(sorted(P.generators.tolist()),
                       [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    Z = complex_zonotope(np.array([[1.0 + 0.0j, 0.0], [0.0, 1.0 + 0.0j]]))
    assert canonical_eq(P, Z)


def test_mixed_j_volume_real_bodies_reduce_to_mixed_volume():
    g = rng(3)
    for _ in range(5):
        A = zonotope(g.standard_normal((3, 2)))
        B = zonotope(g.standard_normal((2, 2)))
        got = mixed_J_volume(embed_real_zonotope(A), embed_real_zonotope(B))
        want = mixed_volume([zonotope(A.generators, grading=(2, 1)),
                             zonotope(B.generators, grading=(2, 1))])
        assert math.isclose(got, want, rel_tol=1e-12)


def test_mixed_j_volume_argument_checks():
    P = random_complex_zonotope(rng(4))
    with pytest.raises(ValueError):
        mixed_J_volume(P)  # C^2 needs two bodies
    with pytest.raises(ValueError):
        mixed_J_volume(zonotope(np.eye(2)), zonotope(np.eye(2)))  # no cgrading


def test_complex_wedge_of_a_body_and_its_copy_is_its_square():
    # regression: an equal copy took the pairwise route and kept a row of
    # rounding size (norm 4.2e-17), 46 generators against 45
    g = np.random.default_rng(0)
    P = complex_zonotope(g.standard_normal((10, 2)) + 1j * g.standard_normal((10, 2)))
    copy = zonotope(P.generators.copy(), cgrading=(2, 1))
    got, want = complex_wedge_zonoids(P, copy), complex_wedge_zonoids(P, P)
    assert got.cgrading == want.cgrading and want.n_generators == 45
    assert got.generators.tobytes() == want.generators.tobytes()


def test_mixed_j_volume_equals_length_of_canonical_complex_wedge():
    # Repeated, negated, complex-collinear and zero generators, not
    # canonicalized; z ^ w = (z + w) ^ w makes the product merge too.
    g = rng(8)
    for n in (2, 3):
        z, w, u = g.standard_normal((3, n)) + 1j * g.standard_normal((3, n))
        rows = np.array([z, z, -z, 1j * z, 0 * z, w, -2 * w, z + w, u])
        Ps = [zonotope(realify_rows(rows[i:]), cgrading=(n, 1)) for i in range(n)]
        product = complex_wedge_zonoids(*Ps)
        assert product.n_generators < math.prod(P.n_generators for P in Ps)
        want = length(product) / math.factorial(n)
        assert math.isclose(mixed_J_volume(*Ps), want, rel_tol=1e-12)


def test_wedge_product_of_complex_graded_bodies_is_the_complex_wedge():
    g = rng(9)
    for n, (k, l) in ((2, (1, 1)), (3, (1, 1)), (3, (2, 1))):
        P = random_complex_zonotope(g, n=n, n_gens=4)
        Q = random_complex_zonotope(g, n=n, n_gens=3)
        if k == 2:
            P = complex_wedge_zonoids(P, random_complex_zonotope(g, n=n, n_gens=2))
        W = wedge_product(P, Q)
        assert W.cgrading == (n, k + l) and W.grading is None
        assert canonical_eq(W, complex_wedge_zonoids(P, Q))


def test_real_and_complex_graded_bodies_do_not_wedge():
    P = random_complex_zonotope(rng(10), n=2)
    K = zonotope(np.eye(2), grading=(2, 1))
    for A, B in ((K, P), (P, K)):
        with pytest.raises(ValueError):
            wedge_product(A, B)
    with pytest.raises(ValueError):
        complex_wedge_zonoids(K, K)
    with pytest.raises(ValueError):
        hodge_star_zonoid(P)


def test_real_functionals_read_a_complex_graded_body_as_real():
    # mixed volumes and AF gaps in R^(2n) ignore the complex tag
    g = rng(11)
    Ps = [random_complex_zonotope(g, n=2, n_gens=3) for _ in range(4)]
    Ks = [zonotope(P.generators) for P in Ps]
    assert mixed_volume(Ps) == mixed_volume(Ks) > 0.0
    assert af_gap(Ps[0], Ps[1], companions=Ps[2:]) == af_gap(Ks[0], Ks[1], companions=Ks[2:])


def test_j_volume_matches_volume_for_real_zonotopes():
    g = rng(5)
    for _ in range(5):
        K = zonotope(g.standard_normal((4, 2)))
        P = embed_real_zonotope(K)
        assert math.isclose(j_volume_zonotope(P),
                            volume(zonotope(K.generators, grading=(2, 1))),
                            rel_tol=1e-10)


def test_j_volume_dim_one_is_length():
    square = zonotope([[1.0, 0.0], [0.0, 1.0]], cgrading=(1, 1))
    assert math.isclose(j_volume_zonotope(square), 2.0, rel_tol=1e-12)
    D = disc_zonotope([1.0 + 0.0j], 32)
    assert math.isclose(j_volume_zonotope(D), length(D), rel_tol=1e-12)
    assert math.isclose(length(D), math.pi, rel_tol=1e-12)


def test_j_volume_equals_complex_wedge_length():
    g = rng(6)
    for _ in range(5):
        P = random_complex_zonotope(g, n_gens=int(g.integers(2, 7)))
        dual = length(complex_wedge_zonoids(P, P)) / 2.0
        assert math.isclose(j_volume_zonotope(P), dual, rel_tol=1e-10)


@pytest.mark.parametrize("n_gens, n", [(10, 2), (12, 2), (8, 3), (5, 3), (2, 3)])
def test_dual_j_volume_is_the_complex_wedge_power(n_gens, n):
    """length(P ^_C ... ^_C P) / n! = vol^J(P): the n-fold power wedges the
    C(N, n) n-subsets of P's generators (none when N < n), and has no
    rows of rounding size from g ^ g = 0."""
    z = np.random.default_rng(0).standard_normal((n_gens, n, 2)) @ [1.0, 1j]
    P = complex_zonotope(z)
    W = complex_wedge_zonoids(*[P] * n)
    assert W.n_generators == math.comb(n_gens, n)
    if n_gens >= n:
        norms = np.linalg.norm(W.generators, axis=1)
        assert norms.min() > 1e-8 * norms.max()
    assert math.isclose(length(W) / math.factorial(n), j_volume_zonotope(P), rel_tol=1e-12)
    assert math.isclose(mixed_J_volume(*[P] * n), j_volume_zonotope(P), rel_tol=1e-12)


def test_j_volume_counts_a_span_on_a_rounding_half_step_once():
    # Four generators in one plane whose projector has an entry on a
    # rounding half-step at 8 decimals (cos^2 t = 0.123456785), plus two more.
    c2 = 0.123456785
    w = np.array([0.0, math.sqrt(c2), math.sqrt(1.0 - c2), 0.0])
    e1, e4 = np.eye(4)[0], np.eye(4)[3]
    P = zonotope(np.array([e1, w, e1 + 0.7 * w, 0.3 * e1 - w, e4,
                           [0.2, 0.1, 0.3, 1.0]]), cgrading=(2, 1))
    dual = length(complex_wedge_zonoids(P, P)) / 2.0
    assert math.isclose(dual, 11.23, rel_tol=1e-3)
    assert math.isclose(j_volume_zonotope(P), dual, rel_tol=1e-10)
    assert len(_spans(P.generators[None], 2)[0]) == 1 + 4 + 4 + 1


def test_j_volume_of_near_dependent_generators_matches_dual_path():
    # Per body: a generator 1e-8 off the plane of two others, and a pair
    # 1e-8 from collinear; both stay above the span and merge tolerances.
    g = rng(13)
    for _ in range(10):
        A = g.standard_normal((3, 4))
        u = g.standard_normal(4)
        rows = [A[0], A[1], 0.4 * A[0] - 1.3 * A[1] + 1e-8 * u,
                A[2], A[2] + 1e-8 * u, g.standard_normal(4)]
        P = zonotope(np.array(rows), cgrading=(2, 1))
        dual = length(complex_wedge_zonoids(P, P)) / 2.0
        assert math.isclose(j_volume_zonotope(P), dual, rel_tol=1e-9)


def test_j_volume_over_more_subsets_than_one_row_block():
    # C(100, 2) = 4950 subsets: the sum runs over more than one block.
    assert math.comb(100, 2) > _ROW_BLOCK
    P = random_complex_zonotope(rng(14), n_gens=100)
    dual = length(complex_wedge_zonoids(P, P)) / 2.0
    assert math.isclose(j_volume_zonotope(P), dual, rel_tol=1e-10)


def test_j_volume_of_a_disc_in_a_complex_line_is_zero():
    D = disc_zonotope([0.3 + 1.0j, -0.5 + 0.2j], 64)
    bound = 1e-12 * length(D) ** 2
    assert 0.0 <= j_volume_zonotope(D) <= bound
    assert 0.0 <= kazarnovskii_zonotope(D) <= bound


def test_j_volume_and_kazarnovskii_for_nonstandard_structures():
    # Reference: sum over independent n-subsets S of the canonical
    # generators of ||wedge S|| weight(sigma^J(span S)), with sigma^J(E) =
    # |det [Q, JQ]| for orthonormal columns Q spanning E.  The functionals
    # under J are those of the rows in J's frame.  sigma^J is defined for
    # orthogonal J only; a non-orthogonal one is refused.
    g = rng(15)
    J0 = standard_j(2)
    R, _ = np.linalg.qr(g.standard_normal((4, 4)))
    R2, _ = np.linalg.qr(g.standard_normal((4, 4)))
    A = g.standard_normal((4, 4)) + 2.0 * np.eye(4)
    with pytest.raises(ValueError):
        j_frame(A @ J0 @ np.linalg.inv(A))
    for J in (R @ J0 @ R.T, R2 @ J0 @ R2.T):
        assert not np.allclose(J, J0)
        for n_gens in (2, 3, 5):
            P = random_complex_zonotope(g, n_gens=n_gens)
            root, plain = [], []
            for S in combinations(range(P.n_generators), 2):
                V = P.generators[list(S)]
                vol = wedge_norm_brute(V)
                if vol <= 1e-12 * float(np.max(np.linalg.norm(V, axis=1))) ** 2:
                    continue
                Q, _ = np.linalg.qr(V.T)
                sigma = abs(float(np.linalg.det(np.hstack([Q, J @ Q]))))
                root.append(vol * math.sqrt(sigma))
                plain.append(vol * sigma)
            PJ = zonotope(P.generators @ j_frame(J), cgrading=(2, 1))
            assert math.isclose(j_volume_zonotope(PJ), math.fsum(root), rel_tol=1e-10)
            assert math.isclose(kazarnovskii_zonotope(PJ), math.fsum(plain), rel_tol=1e-10)


def exact_j_sums_c2(rows):
    """(J-volume, Kazarnovskii) of the zonotope with these rows in C^2:
    sums over pairs S of |det_C S| and |det_C S|^2 / ||wedge S||, from
    the rows as exact rationals, square roots taken to 40 digits."""
    def dec(q):
        return Decimal(q.numerator) / Decimal(q.denominator)

    rows = [[Fraction(x) for x in row] for row in rows]
    jvol = kaza = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 40
        for a, b in combinations(rows, 2):
            re = a[0] * b[2] - a[1] * b[3] - a[2] * b[0] + a[3] * b[1]
            im = a[0] * b[3] + a[1] * b[2] - a[2] * b[1] - a[3] * b[0]
            det2 = re * re + im * im
            wedge2 = sum((a[i] * b[j] - a[j] * b[i]) ** 2 for i, j in combinations(range(4), 2))
            if wedge2:
                jvol += dec(det2).sqrt()
                kaza += dec(det2) / dec(wedge2).sqrt()
    return float(jvol), float(kaza)


def near_dependent_rows(g):
    # a generator 1e-8 off the plane of two others, and a pair 1e-8 from collinear
    A = g.standard_normal((3, 4))
    u = g.standard_normal(4)
    return np.array([A[0], A[1], 0.4 * A[0] - 1.3 * A[1] + 1e-8 * u,
                     A[2], A[2] + 1e-8 * u, g.standard_normal(4)])


@pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
def test_j_volume_and_kazarnovskii_match_an_exact_reference(s):
    # Both sums stay within a few ulps of the exact value on near-dependent
    # and scaled bodies, which a Gram-determinant norm would not.
    g = rng(13)
    for _ in range(10):
        rows = s * near_dependent_rows(g)
        P = zonotope(rows, cgrading=(2, 1))
        jvol, kaza = exact_j_sums_c2(rows)
        assert math.isclose(j_volume_zonotope(P), jvol, rel_tol=1e-14)
        assert math.isclose(kazarnovskii_zonotope(P), kaza, rel_tol=1e-14)


def test_exactly_dependent_subsets_add_zero_without_warnings():
    # e1, e3, e1 + e3, e5 in R^6 = C^3: three unimodular real triples and
    # one dependent triple, whose ||wedge S|| is exactly 0.
    e = np.eye(6)
    P = zonotope(np.array([e[0], e[2], e[0] + e[2], e[4]]), cgrading=(3, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert j_volume_zonotope(P) == 3.0
        assert kazarnovskii_zonotope(P) == 3.0


def test_rotated_structure_equals_rotated_body():
    # J = R J0 R^T on P, the rows G j_frame(J), gives what J0 gives on P
    # rotated by R^T (rows G R): the two frames differ by a unitary map.
    g = rng(16)
    for n in (2, 3):
        J0 = standard_j(n)
        for _ in range(3):
            R, _ = np.linalg.qr(g.standard_normal((2 * n, 2 * n)))
            P = random_complex_zonotope(g, n=n, n_gens=2 * n + 1)
            rotated = zonotope(P.generators @ R, cgrading=(n, 1))
            framed = zonotope(P.generators @ j_frame(R @ J0 @ R.T), cgrading=(n, 1))
            assert math.isclose(j_volume_zonotope(framed), j_volume_zonotope(rotated),
                                rel_tol=1e-12)
            assert math.isclose(kazarnovskii_zonotope(framed), kazarnovskii_zonotope(rotated),
                                rel_tol=1e-12)


def test_j_frame_is_the_identity_for_the_standard_structure():
    for n in (1, 2, 3):
        J0 = standard_j(n)
        # J0 acts as multiplication by i on each basis vector
        assert np.array_equal(J0, realify_rows(1j * unrealify_rows(np.eye(2 * n))).T)
        assert np.array_equal(j_frame(J0), np.eye(2 * n))
    real_plane = subspace_from_vectors([[1, 0, 0, 0], [0, 0, 1, 0.0]])
    assert sigma_J(real_plane) == 1.0
    complex_line = subspace_from_vectors([[1, 0, 0, 0], [0, 1, 0, 0.0]])
    assert sigma_J(complex_line) == 0.0
    # any orthogonal J: orthonormal frame columns a_k, J a_k
    R, _ = np.linalg.qr(rng(17).standard_normal((6, 6)))
    J = R @ standard_j(3) @ R.T
    F = j_frame(J)
    assert np.allclose(F.T @ F, np.eye(6), atol=1e-14)
    assert np.allclose(F.T @ J @ F, standard_j(3), atol=1e-14)


def test_complex_structure_must_be_orthogonal():
    # A J0 A^-1 squares to -I but is not orthogonal, so sigma^J would leave [0, 1].
    g = rng(18)
    J0 = standard_j(2)
    A = g.standard_normal((4, 4)) + 2.0 * np.eye(4)
    J = A @ J0 @ np.linalg.inv(A)
    assert np.allclose(J @ J, -np.eye(4), atol=1e-12)
    with pytest.raises(ValueError, match="antisymmetric"):
        j_frame(J)


def test_j_volume_unitary_invariant():
    g = rng(7)
    P = random_complex_zonotope(g)
    CU = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
    U, _ = np.linalg.qr(CU)
    img = linear_image(realified_unitary(U), P)
    img = zonotope(img.generators, cgrading=(2, 1))
    assert math.isclose(j_volume_zonotope(P), j_volume_zonotope(img), rel_tol=1e-10)


def test_kazarnovskii_weights():
    # identity weight never exceeds the square-root weight since sigma <= 1
    g = rng(8)
    for _ in range(5):
        P = random_complex_zonotope(g)
        assert kazarnovskii_zonotope(P) <= j_volume_zonotope(P) * (1 + 1e-12)
    K = zonotope(np.eye(2))
    P = embed_real_zonotope(K)
    assert math.isclose(kazarnovskii_zonotope(P), 1.0, rel_tol=1e-12)


def test_kazarnovskii_ball_normalization():
    # for a real line E in C^1: vol(B(E) + J B(E)) = omega_1^2 sigma(E)
    square = zonotope([[2.0, 0.0], [0.0, 2.0]], grading=(2, 1))
    E = subspace_from_vectors([[1.0, 0.0]])
    assert math.isclose(volume(square), (2.0 ** 2) * sigma_J(E))


def test_disc_zonotope_lengths():
    g = rng(9)
    for q in (2, 3, 4, 5, 8, 16, 64):
        z = g.standard_normal(2) + 1j * g.standard_normal(2)
        D = disc_zonotope(z, q)
        norm = float(np.linalg.norm(z))
        assert math.isclose(length(D), math.pi * norm, rel_tol=1e-12)


def test_disc_zonotope_support_apothem():
    z = np.array([0.8 + 0.3j, -0.2 + 1.1j])
    norm = float(np.linalg.norm(z))
    u = np.empty(4)
    u[0::2], u[1::2] = z.real, z.imag
    u /= norm
    for q in (4, 16, 64):
        h = support(disc_zonotope(z, q), u)
        assert h <= norm * (1 + 1e-12)
        assert h >= norm * math.cos(math.pi / (2 * q)) * (1 - 1e-12)


def test_disc_zonotope_edge_cases():
    with pytest.raises(ValueError):
        disc_zonotope([1.0 + 0.0j], 1)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        D = disc_zonotope([0.0 + 0.0j, 0.0 + 0.0j], 8)
    assert len(w) == 1
    assert D.n_generators == 0


def test_normal_angle_facet_deterministic():
    square = zonotope([[1.0, 0.0], [0.0, 1.0]])
    E = subspace_from_vectors([[1.0, 0.0]])
    theta, se = normal_angle_mc(square, (E, (1,)), 50, seed=0)
    assert theta == 0.5
    assert se == 0.0


def test_normal_angle_vertex():
    square = zonotope([[1.0, 0.0], [0.0, 1.0]])
    E0 = Subspace(2, np.zeros((0, 2)))
    theta, se = normal_angle_mc(square, (E0, (1, 1)), 40000, seed=3)
    assert se > 0.0
    assert abs(theta - 0.25) <= 3.0 * se


def test_normal_angle_stderr_is_bessel_corrected():
    # the hit indicator's sample variance: se^2 = p (1 - p) / (n - 1), and
    # the mean is the hit fraction
    square = zonotope([[1.0, 0.0], [0.0, 1.0]])
    E0 = Subspace(2, np.zeros((0, 2)))
    for n in (40_000, 100_000):
        theta, se = normal_angle_mc(square, (E0, (1, 1)), n, seed=3)
        assert math.isclose(se, math.sqrt(theta * (1.0 - theta) / (n - 1)), rel_tol=1e-9)
    assert normal_angle_mc(square, (E0, (1, 1)), 40_000, seed=3)[0] == 0.249575
    with pytest.raises(ValueError):
        normal_angle_mc(square, (E0, (1, 1)), 1, seed=3)
    E = subspace_from_vectors([[1.0, 0.0]])
    assert normal_angle_mc(square, (E, (1,)), 1, seed=0) == (0.5, 0.0)


def test_normal_angles_partition_sphere():
    g = rng(10)
    P = random_complex_zonotope(g, n_gens=4)
    spans = [Subspace(4, V[:2]) for V in _spans(P.generators[None], 2)[2]]
    for E in spans[:2]:
        eps_list = zonotope_faces_for_span(P, E)
        total, var = 0.0, 0.0
        for eps in eps_list:
            th, se = normal_angle_mc(P, (E, eps), 20000, seed=11)
            total += th
            var += se * se
        assert abs(total - 1.0) <= max(3.0 * math.sqrt(var), 1e-12)


def test_faces_for_span_chamber_counts():
    g = rng(11)
    P = random_complex_zonotope(g, n_gens=4)
    P = __import__("zonoidal").canonicalize(P)
    spans = [Subspace(4, V[:2]) for V in _spans(P.generators[None], 2)[2]]
    for E in spans:
        eps_list = zonotope_faces_for_span(P, E)
        n_out = P.n_generators - np.count_nonzero(E.members(P.generators))
        assert len(eps_list) == 2 * n_out  # chambers of n_out lines in the plane


def test_zonotope_face_data_square():
    fd = zonotope_face_data(zonotope([[1.0, 0.0], [0.0, 1.0]], cgrading=(1, 1)))
    assert fd.vertices.shape == (4, 2)
    assert len(fd.n_faces) == 4
    assert all(len(f) == 2 for f in fd.n_faces)


def test_zonotope_face_data_is_scale_invariant():
    # Vertices are keyed by sign vector, so no scale merges or splits them.
    Z = rng(21).standard_normal((4, 2)) + 1j * rng(22).standard_normal((4, 2))
    unit = zonotope_face_data(complex_zonotope(Z))
    radius_ = float(np.max(np.linalg.norm(unit.vertices, axis=1)))
    for s in (1e-10, 1.0, 1e9):
        fd = zonotope_face_data(complex_zonotope(s * Z))
        assert len(fd.n_faces) == 24
        assert fd.vertices.shape == (16, 4)
        # Each scaled vertex is s times a distinct unit-scale vertex.
        dist = np.linalg.norm(fd.vertices[:, None, :] / s - unit.vertices[None], axis=2)
        assert np.all(dist.min(axis=1) <= 1e-12 * radius_)
        assert len(set(dist.argmin(axis=1))) == 16


def test_zonotope_face_data_counts_in_c3():
    # Each span has a 3-dimensional complement: cells of planes in R^3.
    Z = rng(23).standard_normal((5, 3)) + 1j * rng(24).standard_normal((5, 3))
    fd = zonotope_face_data(complex_zonotope(Z))
    assert len(fd.n_faces) == 40
    assert fd.vertices.shape == (32, 6)


def _fourteen_cell_body(theta):
    """E = span(e1, e2, e3) in R^6 plus four outside generators whose
    planes in E's complement are in general position, two of them
    meeting at theta rad: 14 cells, 2 (1 + 3 + 3)."""
    p1 = np.array([1.0, 0.3, -0.2]) / math.sqrt(1.13)
    w = np.cross(np.cross(p1, [0.0, 0.0, 1.0]), p1)
    p2 = math.cos(theta) * p1 + math.sin(theta) * w / np.linalg.norm(w)
    G = np.zeros((7, 6))
    G[:3, :3] = np.eye(3)
    G[3:, :3] = [[0.3, 0.0, 0.2], [0.3, -0.1, 0.2], [0.3, -0.2, 0.2], [0.3, -0.3, 0.2]]
    G[3:, 3:] = [p1, p2, [0.2, 1.0, 0.4], [-0.5, 0.3, 1.0]]
    return zonotope(G, cgrading=(3, 1)), Subspace(6, np.eye(6)[:3])


def test_faces_for_span_keeps_cells_at_narrow_angles():
    for theta in (0.1, 1e-3, 1e-5):
        P, E = _fourteen_cell_body(theta)
        assert len(zonotope_faces_for_span(P, E)) == 14, theta


def _lp_cells(A):
    """Sign vectors s for which s_i <a_i, x> >= 1 is feasible, by
    linprog over all 2^N sign vectors.  A prefix that is infeasible on
    its rows prunes every extension of it, and -s is feasible with s, so
    only s_1 = +1 is searched."""
    from scipy.optimize import linprog

    def feasible(s):
        k = len(s)
        res = linprog(np.zeros(A.shape[1]), A_ub=-np.array(s)[:, None] * A[:k],
                      b_ub=-np.ones(k), bounds=(None, None), method="highs")
        return res.status == 0

    cells = [()]
    for _ in range(len(A)):
        cells = [s + (e,) for s in cells for e in (-1.0, 1.0)
                 if (s or e > 0) and feasible(s + (e,))]
    return set(cells) | {tuple(-e for e in s) for s in cells}


def _faces_match_lp_oracle(P):
    """Assert that every span's faces of P's canonical form are the LP
    oracle's cells (sign vectors run over the outside generators in
    canonical order); return the number of faces."""
    P = canonicalize(P)
    n = P.ambient_dim // 2
    G = P.generators
    total = 0
    for V in _spans(G[None], n)[2]:
        E = Subspace(P.ambient_dim, V[:n])
        eps = zonotope_faces_for_span(P, E)
        outside = G[~E.members(G)] @ E.complement().basis.T
        assert set(eps) == _lp_cells(outside)
        total += len(eps)
    return total


def _mixed_span_bodies():
    """Bodies whose spans mix generic and degenerate shapes, with their
    face counts where known: two disc sums, a near-parallel pair, a body
    with flats of three and four generators, and the 14-cell body."""
    g = rng(27)
    near = g.standard_normal((4, 2)) + 1j * g.standard_normal((4, 2))
    near[1] = near[0] * np.exp(1e-4j) + 1e-4 * near[2]
    w = np.array([0.0, math.sqrt(0.123456785), math.sqrt(1.0 - 0.123456785), 0.0])
    e1, e4 = np.eye(4)[0], np.eye(4)[3]
    flats = zonotope(np.array([e1, w, e1 + 0.7 * w, 0.3 * e1 - w, e4,
                               [0.2, 0.1, 0.3, 1.0]]), cgrading=(2, 1))
    discs = [minkowski_sum(disc_zonotope([1.0, 0.3j], q),
                           disc_zonotope([0.2 - 0.5j, 1.0], q)) for q in (4, 6)]
    return [(discs[0], 80), (discs[1], 168), (complex_zonotope(near), None),
            (flats, None), (_fourteen_cell_body(1e-3)[0], None)]


def test_faces_for_span_match_lp_oracle():
    for P, want_total in _mixed_span_bodies():
        total = _faces_match_lp_oracle(P)
        assert want_total is None or total == want_total
    fd = zonotope_face_data(minkowski_sum(disc_zonotope([1.0, 0.3j], 16),
                                          disc_zonotope([0.2 - 0.5j, 1.0], 16)))
    # The product of two 32-gons.
    assert len(fd.n_faces) == 1088
    assert fd.vertices.shape == (1024, 4)


def _face_data_span_by_span(P):
    """zonotope_face_data's vertices and faces with each span's two
    arrangements enumerated on their own, one _vertex_signs call each."""
    G, n = canonicalize(P).generators, P.ambient_dim // 2
    signs, sizes = [], []
    for mask, V in zip(*_spans(G[None], n)[1:]):
        faces, inside = _vertex_signs(G[~mask] @ V[n:].T), _vertex_signs(G[mask] @ V[:n].T)
        block = np.empty((len(faces), len(inside), len(G)))
        block[:, :, ~mask] = faces[:, None, :]
        block[:, :, mask] = inside
        signs.append(block.reshape(-1, len(G)))
        sizes += [len(inside)] * len(faces)
    verts, index = _unique_rows(np.concatenate(signs))
    return 0.5 * verts @ G, tuple(tuple(f.tolist()) for f in np.split(index, np.cumsum(sizes)[:-1]))


def test_batched_face_data_equals_the_span_by_span_reference():
    bodies = [P for P, _ in _mixed_span_bodies()]
    bodies += [zonotope(_degenerate_rows(np.random.default_rng(s), n), cgrading=(n, 1))
               for s, n in ((0, 2), (1, 3))]
    for P in bodies:
        fd = zonotope_face_data(P)
        verts, faces = _face_data_span_by_span(P)
        assert fd.vertices.tobytes() == verts.tobytes() and fd.vertices.shape == verts.shape
        assert fd.n_faces == faces


def _adversarial_arrangements(c):
    """Arrangements of rank c: a direction repeated at several scales and
    signs among generic rows; from c = 2, c + 1 rows whose hyperplanes
    all contain the last axis, plus one more; integer rows from
    {-1, 0, 1}^c with repeats and parallels; and rank-deficient copies in
    R^(c + 1): the integer rows times an integer c x (c + 1) matrix, and
    the first arrangement padded by a zero column."""
    g = np.random.default_rng(40 + c)
    u = g.standard_normal(c)
    parallel = np.vstack([u, -2.0 * u, 0.5 * u, g.standard_normal((c, c))])
    ray = np.vstack([np.c_[g.standard_normal((c + 1, c - 1)), np.zeros(c + 1)],
                     g.standard_normal(c)])
    rows = g.integers(-1, 2, size=(c + 4, c))
    rows = rows[rows.any(axis=1)].astype(float)
    M = g.integers(-2, 3, size=(c, c + 1)).astype(float)
    while np.linalg.matrix_rank(M) < c:
        M = g.integers(-2, 3, size=(c, c + 1)).astype(float)
    return [parallel, rows, rows @ M, np.c_[parallel, np.zeros(len(parallel))]] + [ray] * (c > 1)


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_vertex_signs_match_lp_oracle_on_adversarial_arrangements(c):
    for A in _adversarial_arrangements(c):
        cells = _vertex_signs(A)
        assert set(map(tuple, cells.tolist())) == _lp_cells(A)
        assert np.array_equal(cells, np.unique(cells, axis=0))  # sorted and distinct


def test_vertex_signs_many_equals_each_arrangement_alone():
    # shapes repeat, one shape holds two ranks, and one arrangement is empty
    g = np.random.default_rng(6)
    As = [g.standard_normal((5, 3)), g.standard_normal((5, 2)) @ g.standard_normal((2, 3)),
          np.zeros((0, 2)), [[1.0], [-3.0], [0.5]], g.standard_normal((3, 3)),
          *_adversarial_arrangements(3), g.standard_normal((5, 3)), [[1, 2], [2, 4], [0, 1]]]
    many = _vertex_signs_many(As)
    assert len(many) == len(As)
    for A, cells in zip(As, many):
        alone = _vertex_signs(A)
        assert cells.shape == alone.shape and np.array_equal(cells, alone)
    assert many[2].shape == (1, 0)
    assert _vertex_signs_many([]) == []


def test_vertex_signs_refuses_a_zero_row():
    A = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 2], [0, 0, 0], [2, 1, 1],
                  [-1, 3, 1]])
    with pytest.raises(ValueError, match="^row 5 of arrangement 0 is zero in row-space "
                                         "coordinates: a zero normal cuts no cell$"):
        _vertex_signs(A)
    with pytest.raises(ValueError, match="^row 0 of arrangement 0 is zero"):
        _vertex_signs(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="^row 5 of arrangement 1 is zero"):
        _vertex_signs_many([A[:5], A])
    # rank is read off the unit rows, so a short nonzero row is a normal like any other
    assert len(_vertex_signs([[1.0, 0.0], [0.0, 1e-20]])) == 4


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_cells_and_spans_do_not_depend_on_row_lengths(c):
    """A hyperplane does not depend on the length of its normal: each row
    scaled by 10^e, e in [-16, 16], cuts the same cells, and the spans of
    d-subsets contain the same rows."""
    g = np.random.default_rng(60 + c)
    for A in _adversarial_arrangements(c):
        B = A * 10.0 ** g.integers(-16, 17, size=(len(A), 1))
        assert np.array_equal(_vertex_signs(B), _vertex_signs(A))
        for d in range(1, min(A.shape) + 1):
            owner, mask, _ = _spans(A[None], d)
            owner_b, mask_b, _ = _spans(B[None], d)
            assert np.array_equal(owner_b, owner) and np.array_equal(mask_b, mask)


def test_a_short_row_is_not_dependent_on_long_ones():
    # the lines x = 0 and x = -y cut 4 cells, whatever the second normal's length
    assert len(_vertex_signs([[1.0, 0.0], [1e-20, 1e-20]])) == 4
    G = np.random.default_rng(3).standard_normal((5, 4))
    assert len(zonotope_face_data(zonotope(G, cgrading=(2, 1))).n_faces) == 60
    for s in (1e-12, 1e-14, 1e-16):
        H = G.copy()
        H[0] *= s
        F = zonotope_face_data(zonotope(H, cgrading=(2, 1)))
        assert len(F.n_faces) == 60 and len(F.vertices) == 30


def test_polytope_mc_of_scaled_body_is_scale_invariant():
    # Faces of a span are sorted by sign vector, so their per-face seeds
    # do not follow the orientation of the span's complement.
    Z = rng(21).standard_normal((4, 2)) + 1j * rng(22).standard_normal((4, 2))
    unit = j_volume_polytope_mc(zonotope_face_data(complex_zonotope(Z)), 2000, 3)[0]
    for s in (1e-10, 1e-9, 1e9):
        val = j_volume_polytope_mc(zonotope_face_data(complex_zonotope(s * Z)), 2000, 3)[0]
        assert math.isclose(val / s**2, unit, rel_tol=1e-12), s


def test_face_data_of_a_flat_body():
    # A hexagon in a Lagrangian plane of C^2 is its own only 2-face.
    P = embed_real_zonotope(zonotope([[1.0, 0.0], [0.3, 1.0], [-0.5, 0.7]]))
    fd = zonotope_face_data(P)
    assert len(fd.n_faces) == 1 and fd.vertices.shape == (6, 4)
    val, se = j_volume_polytope_mc(fd, 100, seed=0)
    assert se == 0.0 and math.isclose(val, j_volume_zonotope(P), rel_tol=1e-12)


def test_polytope_mc_is_scale_invariant():
    fd = zonotope_face_data(random_complex_zonotope(rng(25), n_gens=4))
    val, se = j_volume_polytope_mc(fd, 20000, seed=5)
    for s in (1e-10, 1e-12):
        scaled = PolytopeFaceData(4, s * fd.vertices, fd.n_faces)
        sval, sse = j_volume_polytope_mc(scaled, 20000, seed=5)
        assert math.isclose(sval / s**2, val, rel_tol=1e-10)
        assert math.isclose(sse / s**2, se, rel_tol=1e-10)


def test_face_data_of_a_body_with_fewer_than_n_independent_generators():
    # One generator in C^2 spans no 2-plane: no 2-faces, J-volume 0.
    for P in (complex_zonotope([[1.0, 1j]]), zonotope([], ambient_dim=4, cgrading=(2, 1))):
        fd = zonotope_face_data(P)
        assert fd.vertices.shape == (0, 4) and fd.n_faces == ()
        assert j_volume_zonotope(P) == 0.0
        assert j_volume_polytope_mc(fd, 100, seed=0) == (0.0, 0.0)
        assert kazarnovskii_polytope_mc(fd, 100, seed=0) == (0.0, 0.0)
        back = face_data_from_dict(face_data_to_dict(fd))
        assert back.vertices.shape == (0, 4) and back.n_faces == ()


@pytest.mark.parametrize("shape", [(0, 3), (1, 5), (400, 8), (4000, 32)])
def test_unique_rows_matches_np_unique_on_sign_rows(shape):
    rows = np.where(rng(27).random(shape) < 0.5, -1.0, 1.0)
    if shape[0] > 1:
        rows = np.vstack([rows, rows[::3]])
    got, inverse = _unique_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(got, want)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(got[inverse], rows)


def test_face_volume_of_a_polygon():
    # The monotone-chain area against the exact brute force, on clouds with
    # interior points, repeated vertices and points inside an edge, and on
    # the parallelogram charts of a C^2 body's faces; the chart is scaled
    # by a power of two, so 2^k times the points gives 4^k times the area.
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    fd = zonotope_face_data(random_complex_zonotope(rng(12), n_gens=3))
    cases = [(rng(26).standard_normal((12, 2)), None),
             (np.vstack([square, square[::-1], [[1.0, 1.0], [1.0, 0.0], [2.0, 0.5],
                                                [0.5, 1.5], [0.0, 0.25]]]), 4.0),
             (np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 2.0], [3.0, 0.0]]), 3.0)]
    cases += [(_face_frame(fd, face)[1], None) for face in fd.n_faces]
    assert len(cases) == 3 + 6
    for pts, want in cases:
        area = _face_volume(pts, 2)
        assert want is None or area == want
        for k in (500, -500):
            assert _face_volume(2.0 ** k * pts, 2) == 4.0 ** k * area
        for s in 10.0 ** np.arange(-9, 10, 3):
            assert math.isclose(_face_volume(s * pts, 2), hull_area_brute(s * pts),
                                rel_tol=1e-13)
    assert _face_volume(np.outer(np.arange(5.0), [1.0, 2.0]), 2) == 0.0
    assert _face_volume(cases[0][0][:2], 2) == 0.0


def test_face_volume_of_a_3d_chart():
    # faces of dimension >= 3 go to Qhull; a flat chart is a QhullError, 0.0
    cube = np.array([[float(b) for b in f"{i:03b}"] for i in range(8)])
    assert math.isclose(_face_volume(cube, 3), 1.0, rel_tol=1e-13)
    simplex = np.vstack([np.zeros(3), np.eye(3)])
    assert math.isclose(_face_volume(simplex, 3), 1.0 / 6.0, rel_tol=1e-13)
    coplanar = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert _face_volume(coplanar, 3) == 0.0


def test_polygon_areas_import_no_scipy():
    # Only faces of dimension >= 3 go to Qhull; the polytope Monte Carlo
    # sums of a C^2 body measure 2-faces, so they load no scipy module.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from zonoidal import (complex_zonotope, j_volume_polytope_mc,\n"
        "                      kazarnovskii_polytope_mc, zonotope_face_data)\n"
        "g = np.random.default_rng(5)\n"
        "fd = zonotope_face_data(complex_zonotope(g.standard_normal((4, 2))\n"
        "                                         + 1j * g.standard_normal((4, 2))))\n"
        "assert j_volume_polytope_mc(fd, 200, 1)[0] > 0.0\n"
        "assert kazarnovskii_polytope_mc(fd, 200, 1)[0] > 0.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_face_data_dict_roundtrip():
    fd = zonotope_face_data(random_complex_zonotope(rng(12), n_gens=3))
    back = face_data_from_dict(face_data_to_dict(fd))
    assert back.ambient_dim == fd.ambient_dim
    assert np.array_equal(back.vertices, fd.vertices)
    assert back.n_faces == fd.n_faces


def test_polytope_mc_square_deterministic():
    # every edge normal cone is a half line: zero variance, exact answer
    P = zonotope([[1.0, 0.0], [0.0, 1.0]], cgrading=(1, 1))
    fd = zonotope_face_data(P)
    val, se = j_volume_polytope_mc(fd, 100, seed=0)
    assert se == 0.0
    assert math.isclose(val, j_volume_zonotope(P), rel_tol=1e-12)


def test_polytope_mc_matches_exact():
    # in C^3 the n-faces are 3-dimensional: their volumes come from Qhull
    for seed, n, n_gens in [(13, 2, 4), (27, 3, 5)]:
        P = random_complex_zonotope(rng(seed), n=n, n_gens=n_gens)
        exact = j_volume_zonotope(P)
        fd = zonotope_face_data(P)
        val, se = j_volume_polytope_mc(fd, 20000, seed=5)
        assert se > 0.0
        assert abs(val - exact) <= 3.0 * se
        kval, kse = kazarnovskii_polytope_mc(fd, 20000, seed=5)
        assert abs(kval - kazarnovskii_zonotope(P)) <= 3.0 * kse


def test_polytope_mc_point_and_rank_checks():
    point = PolytopeFaceData(4, [[0.0, 0.0, 0.0, 0.0]], [[0]])
    assert j_volume_polytope_mc(point, 100, seed=0) == (0.0, 0.0)
    cube3 = [[float(b) for b in f"{i:03b}"] + [0.0] for i in range(8)]
    overfull = PolytopeFaceData(4, cube3, [list(range(8))])
    with pytest.raises(ValueError):
        j_volume_polytope_mc(overfull, 100, seed=0)


def test_face_data_index_validation():
    with pytest.raises(ValueError):
        PolytopeFaceData(2, [[0.0, 0.0]], [[0, 5]])


def test_face_data_refuses_equal_vertex_rows():
    # -0.0 == 0.0: the two rows are one point, which the face's own index
    # list could not tell from a vertex outside it
    with pytest.raises(ValueError, match="two vertex rows are equal"):
        PolytopeFaceData(2, [[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]], [[0, 1]])


def test_face_cone_of_face_data_holds_the_vertices_outside_the_face():
    fd = zonotope_face_data(random_complex_zonotope(rng(12), n_gens=4))
    for fi, face in enumerate(fd.n_faces):
        cone = _face_cone(fd, fi)
        assert len(cone) == 2
        C, W = cone
        assert W.shape == (len(fd.vertices) - len(face), len(C))
        # the outside vertices lie strictly on the far side of the face's
        # supporting hyperplanes, so no row of W is a rounding-size zero
        assert np.all(np.linalg.norm(W, axis=1) > 1e-6)


def test_face_data_takes_integer_arrays_and_refuses_bool_arrays():
    verts = [[0.0, 0.0], [1.0, 0.0]]
    for face in (np.array([0, 1]), np.array([0, 1], dtype=np.uint8), np.array([0.0, 1.0]), [0, 1]):
        fd = PolytopeFaceData(2, verts, [face])
        assert fd.n_faces == ((0, 1),) and all(type(i) is int for i in fd.n_faces[0])
    with pytest.raises(KeyError, match="not an integer: False"):
        PolytopeFaceData(2, verts, [np.array([False, True])])
    with pytest.raises(KeyError, match="not an integer: 0.5"):
        PolytopeFaceData(2, verts, [np.array([0.5, 1.0])])
    with pytest.raises(ValueError, match="face refers to a missing vertex"):
        PolytopeFaceData(2, verts, [np.array([0, 2])])


@pytest.mark.parametrize("face", [[], [-1, 0, 1, 2], [0, 99]])
def test_normal_angle_refuses_a_vertex_list_with_a_missing_vertex(face):
    fd = zonotope_face_data(random_complex_zonotope(rng(12), n_gens=3))
    with pytest.raises(ValueError, match="face refers to a missing vertex"):
        normal_angle_mc(fd, face, 100, seed=0)


def _ambient_normal_angle(P, face, samples, seed):
    """normal_angle_mc by sampling the face's complement in R^2n: the same
    seeded chunks lifted by the same complement rows, then face data's
    test (the face's vertices maximize <u, v> within a tie) or a zonotope
    face's (each outside generator has the face's sign on u)."""
    if isinstance(P, PolytopeFaceData):
        idx = list(P.n_faces[face] if isinstance(face, int) else face)
        fverts = P.vertices[idx]
        comp = Subspace(P.ambient_dim,
                        _orthonormal_rows(fverts - fverts.mean(axis=0))).complement().basis
        tie = 1e-12 * float(np.max(np.linalg.norm(P.vertices, axis=1)))

        def hits(U):
            dots = U @ P.vertices.T
            return dots[:, idx].min(axis=1) >= dots.max(axis=1) - tie
    else:
        E, signs = face
        outside = P.generators[~E.members(P.generators)]
        comp = E.complement().basis

        def hits(U):
            return np.all(np.asarray(signs) * (U @ outside.T) > 0.0, axis=1)

    return _mc_mean_se(SeedStream(seed).derive("normal_angle"), samples, lambda stream, size:
                       hits(stream.sphere(size, len(comp)) @ comp).astype(np.float64))


@pytest.mark.parametrize("seed, n, n_gens", [(13, 2, 4), (14, 2, 5), (15, 3, 4)])
def test_cone_test_in_the_complement_equals_the_ambient_test(seed, n, n_gens):
    fd = zonotope_face_data(random_complex_zonotope(rng(seed), n=n, n_gens=n_gens))
    assert len(fd.n_faces) > 0
    for fi, idx in enumerate(fd.n_faces):
        want = _ambient_normal_angle(fd, fi, 3000, seed=fi)
        assert normal_angle_mc(fd, fi, 3000, seed=fi) == want
        assert normal_angle_mc(fd, list(idx), 3000, seed=fi) == want


def test_zonotope_cone_test_in_the_complement_equals_the_ambient_test():
    P = random_complex_zonotope(rng(16), n_gens=5)
    E = Subspace(4, _spans(P.generators[None], 2)[2][0][:2])
    faces = zonotope_faces_for_span(P, E)
    assert len(faces) == 6
    for k, eps in enumerate(faces):
        samples = CHUNK + 1000 if k == 0 else 3000  # the first crosses a chunk boundary
        want = _ambient_normal_angle(P, (E, eps), samples, seed=k)
        assert normal_angle_mc(P, (E, eps), samples, seed=k) == want


@pytest.mark.parametrize("c, k, samples", [(2, 2, 5000), (3, 4, CHUNK + 1000), (4, 3, 5000),
                                            (4, 6, 20_000)])
def test_cone_angle_reads_raw_gaussian_rows_as_unit_rows(c, k, samples):
    # the cone test is positively homogeneous: raw Gaussian rows give the
    # hits, so the estimate, of the unit rows SeedStream.sphere draws
    from zonoidal import jvolume

    g = rng(30 + c + k)
    W = g.standard_normal((k, c))
    want = _mc_mean_se(SeedStream(7).derive("normal_angle"), samples, lambda stream, size:
                       np.all(stream.sphere(size, c) @ W.T >= 0.0, axis=1).astype(np.float64))
    assert jvolume._cone_angle_mc(np.eye(c), W, samples, 7) == want
    assert 0.0 < want[0] < 1.0
    fd = zonotope_face_data(random_complex_zonotope(g, n=2, n_gens=4))
    for fi in range(3):  # complements of dimension 2 in C^2
        C, W = jvolume._face_cone(fd, fi)
        want = _mc_mean_se(SeedStream(fi).derive("normal_angle"), 3000, lambda stream, size:
                           np.all(stream.sphere(size, 2) @ W.T >= 0.0, axis=1).astype(np.float64))
        assert normal_angle_mc(fd, fi, 3000, seed=fi) == want


def test_zonotope_face_data_refuses_an_odd_ambient_dimension():
    with pytest.raises(ValueError, match="even ambient dimension"):
        zonotope_face_data(zonotope([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))


def _near_parallel_body(seed, s, n=2, n_gens=5):
    """n_gens - 1 Gaussian generators in C^n and one more, 1.3 times the
    first's direction tilted by sine s toward a random orthogonal direction."""
    g = np.random.default_rng(seed)
    G = g.standard_normal((n_gens - 1, 2 * n))
    u = G[0] / np.linalg.norm(G[0])
    w = g.standard_normal(2 * n)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    h = 1.3 * (math.sqrt(1.0 - s * s) * u + s * w)
    return zonotope(np.vstack([G, h]), cgrading=(n, 1))


def test_near_parallel_pair_stays_apart_and_keeps_its_vertices():
    # What holds in the near-parallel case: canonicalize keeps the pair
    # apart (sine 1e-9 > COLLINEAR_SINE_TOL); the vertices are those of five
    # generic generators in R^4, 2 (C(4, 0) + ... + C(4, 3)) = 30; and the
    # exact and dual routes agree.
    P = _near_parallel_body(0, 1e-9)
    assert canonicalize(P).n_generators == 5
    assert zonotope_face_data(P).vertices.shape == (30, 4)
    dual = length(complex_wedge_zonoids(P, P)) / 2.0
    assert math.isclose(j_volume_zonotope(P), dual, rel_tol=1e-10)


def test_face_data_of_a_near_parallel_pair_has_every_face():
    P = _near_parallel_body(0, 1e-9)
    fd = zonotope_face_data(P)
    # five generic generators: C(5, 2) spans, each with the 2 * 3 cells of
    # the three outside generators in its complement
    assert len(fd.n_faces) == 60
    val, se = j_volume_polytope_mc(fd, 20_000, seed=1)
    assert abs(val - j_volume_zonotope(P)) <= 4.0 * se


_NEAR_PARALLEL_SINES = (1.05e-10, 3e-10, 1e-9, 2e-9, 1e-8, 1e-7, 3e-7, 1e-6)


@pytest.mark.parametrize("n, n_gens, seeds, sines, faces", [
    (2, 5, 20, _NEAR_PARALLEL_SINES, 60),
    (2, 7, 10, (1.05e-10, 1e-9, 1e-8, 1e-7), 210),
    (3, 5, 10, (1.05e-10, 1e-9, 1e-8, 1e-7), 40),
    (3, 6, 10, (1.05e-10, 1e-9, 1e-8, 1e-7), 160),
])
def test_face_data_of_near_parallel_pairs_has_the_generic_count(n, n_gens, seeds, sines, faces):
    # canonicalize keeps a pair at sine above COLLINEAR_SINE_TOL apart, so
    # the body is generic: C(N, n) spans, each with the cells of the N - n
    # outside hyperplanes in its n-dimensional complement
    wrong = [(seed, s) for s in sines for seed in range(seeds)
             if len(zonotope_face_data(_near_parallel_body(seed, s, n, n_gens)).n_faces) != faces]
    assert wrong == []


def _degenerate_rows(g, n):
    """Gaussian rows G in R^2n (3 for n = 2, 4 for n = 3) and three rows
    exactly dependent on them, so that some flats hold three generators."""
    G = g.standard_normal((3 if n == 2 else 4, 2 * n))
    third = G[2] if n == 2 else G[3]
    middle = 0.3 * G[0] - G[1] + (0.0 if n == 2 else 2.0 * G[2])
    return np.vstack([G, G[0] + 0.7 * G[1], middle, third - 1.7 * G[0]])


@pytest.mark.parametrize("n, seeds", [(2, 30), (3, 20)])
def test_face_count_of_a_degenerate_body_survives_rotation_and_scale(n, seeds):
    # Rounding leaves exactly dependent rows off each other's flats by
    # about 1e-16 relative, which a rotation or a scale moves around; one
    # tolerance far above that decides rank and membership alike.
    for seed in range(seeds):
        g = np.random.default_rng(seed)
        A = _degenerate_rows(g, n)
        P = zonotope(A, cgrading=(n, 1))
        want = len(zonotope_face_data(P).n_faces)
        bodies = [P]
        for _ in range(3):
            Q, R = np.linalg.qr(g.standard_normal((2 * n, 2 * n)))
            c = 10.0 ** g.uniform(-3.0, 3.0)
            bodies.append(zonotope(c * A @ (Q * np.sign(np.diag(R))).T, cgrading=(n, 1)))
            assert len(zonotope_face_data(bodies[-1]).n_faces) == want, seed
        if seed < 3:
            assert _faces_match_lp_oracle(P) == want
            assert _faces_match_lp_oracle(bodies[-1]) == want


def test_rows_parallel_within_the_flat_tolerance_span_a_line():
    # as canonicalize merges them; the rank rule is relative to s_0
    assert subspace_from_vectors([[1.0, 0.0, 0.0, 0.0], [1.0, 1e-14, 0.0, 0.0]]).dim == 1
    assert subspace_from_vectors([[1.0, 0.0, 0.0, 0.0], [1.0, 1e-12, 0.0, 0.0]]).dim == 2
    assert subspace_from_vectors(1e-200 * np.eye(4)[:3]).dim == 3


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_j_volumes_of_a_raw_list_equal_those_of_its_canonical_form(exact):
    # four directions in C^2, repeated, negated, rescaled by reals and split,
    # plus a zero row
    Z = np.array([[1 + 2j, -1j], [2, 1 + 1j], [-1 + 1j, 3], [1j, 2 - 1j]])
    raw = np.vstack([Z, -Z[0], 2 * Z[1], Z[2], np.zeros(2), Z[3] / 2])
    rows = [[Fraction(int(x), 3) for x in row] for row in realify_rows(raw * 2)]
    P = zonotope(np.array(rows, dtype=object) if exact else np.array(rows, dtype=float),
                 cgrading=(2, 1))
    C = canonicalize(P)
    assert C.n_generators == 4
    for f in (j_volume_zonotope, kazarnovskii_zonotope):
        assert math.isclose(f(P), f(C), rel_tol=1e-13)


@pytest.mark.parametrize("s", [1e-100, 1e-80, 1e80, 1e100])
def test_kazarnovskii_scales_as_the_square_at_extreme_scales(s):
    # each term is |det_C S| (|det_C S| / ||wedge S||), so no square of a
    # minor underflows or overflows (a numpy warning is an error here)
    g = np.random.default_rng(0)
    Z = g.standard_normal((5, 2)) + 1j * g.standard_normal((5, 2))
    want = kazarnovskii_zonotope(complex_zonotope(Z))
    assert math.isclose(kazarnovskii_zonotope(complex_zonotope(Z * s)) / (s * s), want,
                        rel_tol=1e-15)
    assert math.isclose(j_volume_zonotope(complex_zonotope(Z * s)) / (s * s),
                        j_volume_zonotope(complex_zonotope(Z)), rel_tol=1e-15)


def test_subspace_orthonormalizes_a_basis_that_is_not():
    B = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 2.0, 0.0, 3.0]])
    E = Subspace(4, B)
    assert np.allclose(E.basis @ E.basis.T, np.eye(2), atol=1e-12)
    Q = np.linalg.qr(B.T)[0]  # orthonormal columns with B's span
    assert np.allclose(E.basis.T @ E.basis, Q @ Q.T, atol=1e-12)
    assert math.isclose(sigma_J(E), sigma_J(Subspace(4, Q.T)), rel_tol=1e-12)


def test_normal_angle_of_a_span_given_as_vectors_equals_the_subspace_form():
    P = canonicalize(random_complex_zonotope(rng(17), n_gens=4))
    V = P.generators[:2]
    E = subspace_from_vectors(V)
    faces = zonotope_faces_for_span(P, E)
    assert len(faces) == 4
    for k, eps in enumerate(faces):
        assert normal_angle_mc(P, (V, eps), 2000, seed=k) == normal_angle_mc(P, (E, eps), 2000,
                                                                            seed=k)


def test_faces_of_zero_j_weight_are_skipped(monkeypatch):
    """Of the 24 2-faces of the unit cube in C^2, the 8 spanned by e1, Je1
    or by e3, Je3 are complex lines.  The flat rank rule gives them J-weight
    exactly 0, and sigma^J exactly 0, whatever the rounding of their frames;
    the polytope sums sample no normal angle for any of the 8, and
    J-volume and Kazarnovskii read 4, 16 faces of weight 1 and angle 1/4."""
    from zonoidal import jvolume

    fd = zonotope_face_data(zonotope(np.eye(4)))
    frames = [_face_frame(fd, f)[0] for f in fd.n_faces]
    weights = [jvolume._j_weight(B) for B in frames]
    sigmas = [sigma_J(Subspace(4, B)) for B in frames]
    assert len(weights) == 24 and sum(w == 0.0 for w in weights) == 8
    assert [s == 0.0 for s in sigmas] == [w == 0.0 for w in weights]
    assert all(math.isclose(w, 1.0, rel_tol=1e-15) for w in weights if w)
    calls = []
    angle = jvolume._cone_angle_mc
    monkeypatch.setattr(jvolume, "_cone_angle_mc", lambda *a: calls.append(a) or angle(*a))
    for estimate in (j_volume_polytope_mc, kazarnovskii_polytope_mc):
        calls.clear()
        val, se = estimate(fd, 4000, seed=2)
        assert len(calls) == 16
        assert abs(val - 4.0) <= 4.0 * se


def test_face_data_merges_vertices_that_round_together():
    """Generators that differ in scale past float resolution: the tiny one
    moves no vertex row, so rows that round together merge (16 cube
    vertices) and faces that then coincide are listed once."""
    P = zonotope(np.vstack([np.eye(4), 1e-20 * np.array([1.0, 2.0, 3.0, 5.0])]))
    fd = zonotope_face_data(P)
    corners = sorted(product((-0.5, 0.5), repeat=4))
    assert sorted(map(tuple, fd.vertices.tolist())) == corners
    assert len(fd.n_faces) == 48 and len(set(fd.n_faces)) == 48
    val, se = j_volume_polytope_mc(fd, 20000, seed=0)
    assert j_volume_zonotope(P) == 4.0
    assert abs(val - 4.0) <= 4.0 * se


def test_subspace_and_face_data_refuse_rows_of_the_wrong_length():
    with pytest.raises(ValueError, match="basis rows must have length ambient_dim"):
        Subspace(4, np.eye(3))
    with pytest.raises(ValueError, match="vertices must be rows of length ambient_dim"):
        PolytopeFaceData(4, [[0.0, 0.0, 0.0]], [[0]])


def test_mixed_j_volume_refuses_a_body_of_degree_two():
    P = random_complex_zonotope(rng(4))
    with pytest.raises(ValueError, match="degree-1 bodies in C"):
        mixed_J_volume(P, complex_wedge_zonoids(P, P))


def test_face_cone_refuses_a_short_sign_vector_and_a_body_of_another_kind():
    P = random_complex_zonotope(rng(5))
    E = subspace_from_vectors(P.generators[:2], 4)
    signs = zonotope_faces_for_span(P, E)[0]
    assert _face_cone(P, (E, signs))[1].shape == (len(signs), 2)
    with pytest.raises(ValueError, match="sign vector must match"):
        _face_cone(P, (E, signs[:-1]))
    with pytest.raises(TypeError, match="P must be a Zonotope or PolytopeFaceData"):
        _face_cone(P.generators, 0)


def test_normal_angle_refuses_a_face_spanning_the_space():
    fd = zonotope_face_data(random_complex_zonotope(rng(6), n_gens=4))
    with pytest.raises(ValueError, match="the face spans the ambient space"):
        normal_angle_mc(fd, list(range(len(fd.vertices))), 100, seed=0)


def test_polytope_sum_skips_a_face_whose_area_underflows(monkeypatch):
    # a triangle at scale 1e-200 in the totally real plane R^2 of C^2: rank
    # 2 and J-weight 1, but its area, 5e-401, rounds to 0, so it adds
    # nothing and samples no normal angle
    from zonoidal import jvolume

    tri = 1e-200 * np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    fd = PolytopeFaceData(4, tri, [[0, 1, 2]])
    B = _face_frame(fd, fd.n_faces[0])[0]
    assert B.shape[0] == 2 and math.isclose(jvolume._j_weight(B), 1.0)
    assert _face_volume(_face_frame(fd, fd.n_faces[0])[1], 2) == 0.0
    monkeypatch.setattr(jvolume, "_cone_angle_mc", lambda *a: pytest.fail("sampled"))
    assert j_volume_polytope_mc(fd, 100, seed=0) == (0.0, 0.0)
