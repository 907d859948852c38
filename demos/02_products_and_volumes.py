"""Tensor and wedge products of zonotopes, mixed and intrinsic volumes.

Run with: python3 demos/02_products_and_volumes.py

Products are computed generator pair by generator pair, so a product of
zonotopes is again a zonotope, now living in a tensor or exterior power of
the original space.  Generator lengths of wedge products encode mixed
volumes, which makes volume computations a matter of summing wedge norms.
"""

import math

import numpy as np

import zonoidal as zn


def banner(text):
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


g = np.random.Generator(np.random.Philox(key=22))


# ----------------------------------------------------------------------
banner("1. Tensor products")

K = zn.zonotope(g.standard_normal((4, 2)))
L = zn.zonotope(g.standard_normal((3, 3)))
T = zn.tensor_product(K, L)
print("K has 4 generators in R^2, L has 3 in R^3")
print("K (x) L has", T.n_generators, "generators in R^%d" % T.ambient_dim)

# Generator length is exactly multiplicative.
print("length(K(x)L) =", zn.length(T))
print("length(K)*length(L) =", zn.length(K) * zn.length(L))

# On split directions u (x) v the support factorizes with a factor 2,
# matching the segment identity seg(x) (x) seg(y) = seg(x (x) y).
u = g.standard_normal(2)
v = g.standard_normal(3)
w = np.outer(u, v).ravel()
print("h_T(u(x)v) =", zn.support(T, w))
print("2 h_K(u) h_L(v) =", 2.0 * zn.support(K, u) * zn.support(L, v))


# ----------------------------------------------------------------------
banner("2. Wedge products and mixed volumes")

# Wedge products need graded inputs: a plain zonotope in R^m is degree-1
# material over base dimension m.
A = zn.zonotope(g.standard_normal((5, 3)), grading=(3, 1))
B = zn.zonotope(g.standard_normal((4, 3)), grading=(3, 1))
C = zn.zonotope(g.standard_normal((3, 3)), grading=(3, 1))

AB = zn.wedge_product(A, B)
print("A^B grading:", AB.grading, " ambient:", AB.ambient_dim)

# Mixed volume is a normalized generator length of the full wedge.
mv = zn.mixed_volume([A, B, C])
print("V(A,B,C) =", mv)
print("V is symmetric:", math.isclose(mv, zn.mixed_volume([C, A, B]), rel_tol=1e-12))

# Any multilinear map induces one on zonoids; the determinant sends
# (A, B, C) to a segment of length 3! V(A, B, C).
D = zn.induced_map(lambda u, v, w: np.array([np.linalg.det(np.array([u, v, w]))]), [A, B, C])
print("length(det(A, B, C)) / 3! =", zn.length(D) / math.factorial(3))

# Wedging a body with itself d times gives its d-homogeneous content;
# the top power recovers the volume.
cube = zn.zonotope(np.eye(3), grading=(3, 1))
print("volume of unit cube via top wedge power:", zn.volume(cube))
hexagon = zn.zonotope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], grading=(2, 1))
print("area of the hexagon {e1, e2, (1,1)}:", zn.volume(hexagon))


# ----------------------------------------------------------------------
banner("3. Intrinsic volumes")

# V_d(K) sums d-wise wedge norms; for the unit cube in R^m the values are
# binomial coefficients.
cube4 = zn.zonotope(np.eye(4), grading=(4, 1))
print("intrinsic volumes of the unit 4-cube:",
      [zn.intrinsic_volume(cube4, d) for d in range(5)])


# ----------------------------------------------------------------------
banner("4. Hodge star and projection bodies")

# The Hodge star maps a degree-d zonotope in Lambda^d R^m to a degree
# (m-d) one; on wedge powers of a body it produces its projection body up
# to a scalar.
sq = zn.wedge_power(cube, 2)
star = zn.hodge_star_zonoid(sq)
pk = zn.projection_body(cube)
print("projection body of cube generators:")
print(zn.canonicalize(pk).generators)
print("star of cube^[2] equals (2!/2) * projection body:",
      zn.canonical_eq(star, zn.scale(pk, math.factorial(2) / 2.0)))

# Its support function computes shadow areas: h_{PiK}(u) is the area of
# the projection of K onto u-perp.
u = np.array([0.0, 0.0, 1.0])
print("shadow area of cube along e3:", zn.support(pk, u))


# ----------------------------------------------------------------------
banner("5. Alexandrov-Fenchel style gaps")

# af_gap returns V(K1,K2,...)^2 - V(K1,K1,...) V(K2,K2,...), which is
# nonnegative; reverse_af_gap bounds products of wedge lengths from the
# other side for bodies in complementary position.
K1 = zn.zonotope(g.standard_normal((4, 3)), grading=(3, 1))
K2 = zn.zonotope(g.standard_normal((4, 3)), grading=(3, 1))
K3 = zn.zonotope(g.standard_normal((4, 3)), grading=(3, 1))
gap = zn.af_gap(K1, K2, companions=(K3,))
print("AF gap V(K1,K2,K3)^2 - V(K1,K1,K3)V(K2,K2,K3) =", gap)
print("nonnegative:", gap >= -1e-12)

E1 = zn.zonotope([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], grading=(3, 1))
E2 = zn.zonotope([[0.0, 0.0, 2.0]], grading=(3, 1))
print("reverse gap on orthogonal spans (should vanish):",
      zn.reverse_af_gap([E1, E2], [2, 1]))
