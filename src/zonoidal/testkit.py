"""Brute-force oracles for the test suite.

Everything here recomputes a quantity by the most direct route
available (explicit determinant sums, exhaustive sign enumeration,
dense Gram matrices) so the library's structured paths have an
independent reference.  Joint enumerations are capped at 10^4 states.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .randomdet import brute_force_expected_abs_det  # noqa: F401  (re-export)

__all__ = [
    "support_brute",
    "length_brute",
    "radius_brute",
    "volume_brute",
    "intrinsic_brute",
    "mixed_volume_brute",
    "mixed_volume_brute_exact",
    "wedge_norm_brute",
    "hull_area_brute",
    "brute_force_expected_abs_det",
]

ENUM_CAP = 10**4


def support_brute(generators, u) -> float:
    """h(u) = (1/2) sum |<v, u>| by direct accumulation."""
    u = np.asarray(u, dtype=np.float64)
    return 0.5 * math.fsum(
        abs(float(np.dot(np.asarray(v, dtype=np.float64), u))) for v in generators
    )


def length_brute(generators) -> float:
    return math.fsum(
        float(np.linalg.norm(np.asarray(v, dtype=np.float64))) for v in generators
    )


def radius_brute(generators) -> float:
    """max ||(1/2) sum eps_i v_i|| over all sign vectors (exponential)."""
    G = np.asarray(generators, dtype=np.float64)
    if G.shape[0] == 0:
        return 0.0
    if 2 ** G.shape[0] > ENUM_CAP * 16:
        raise ValueError("too many generators for sign enumeration")
    best = 0.0
    for eps in product((-1.0, 1.0), repeat=G.shape[0]):
        best = max(best, float(np.linalg.norm(0.5 * (np.asarray(eps) @ G))))
    return best


def volume_brute(generators) -> float:
    """vol_m = sum over m-subsets of |det|."""
    G = np.asarray(generators, dtype=np.float64)
    m = G.shape[1]
    total = [
        abs(float(np.linalg.det(G[list(idx)])))
        for idx in combinations(range(G.shape[0]), m)
    ]
    return math.fsum(total)


def intrinsic_brute(generators, d: int) -> float:
    """V_d = sum over d-subsets of the parallelotope volume (Gram root)."""
    G = np.asarray(generators, dtype=np.float64)
    if d == 0:
        return 1.0
    vals = []
    for idx in combinations(range(G.shape[0]), d):
        A = G[list(idx)]
        vals.append(math.sqrt(max(float(np.linalg.det(A @ A.T)), 0.0)))
    return math.fsum(vals)


def mixed_volume_brute(generator_lists) -> float:
    """MV = (1/m!) sum over ordered generator tuples of |det|."""
    mats = [np.asarray(G, dtype=np.float64) for G in generator_lists]
    m = len(mats)
    count = 1
    for G in mats:
        count *= max(G.shape[0], 1)
    if count > ENUM_CAP * 100:
        raise ValueError("tuple enumeration too large")
    vals = []
    for pick in product(*[range(G.shape[0]) for G in mats]):
        M = np.stack([mats[j][pick[j]] for j in range(m)])
        vals.append(abs(float(np.linalg.det(M))))
    return math.fsum(vals) / math.factorial(m)


def _det_exact(rows) -> Fraction:
    """Fraction determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = Fraction(rows[0][j]) * _det_exact(minor)
        total += term if j % 2 == 0 else -term
    return total


def mixed_volume_brute_exact(generator_lists) -> Fraction:
    """Exact-rational version of the ordered-tuple determinant sum."""
    mats = [[[Fraction(x) for x in row] for row in G] for G in generator_lists]
    m = len(mats)
    total = Fraction(0)
    for pick in product(*[range(len(G)) for G in mats]):
        rows = [mats[j][pick[j]] for j in range(m)]
        total += abs(_det_exact(rows))
    return total / math.factorial(m)


def wedge_norm_brute(vectors) -> float:
    """||v_1 ^ ... ^ v_k|| = sqrt(det Gram): parallelotope volume."""
    A = np.asarray(vectors, dtype=np.float64)
    return math.sqrt(max(float(np.linalg.det(A @ A.T)), 0.0))


def hull_area_brute(points) -> float:
    """Convex hull area of a 2D point cloud, exactly, then rounded once.

    The directed segment p -> q is a counterclockwise hull edge when
    every other point lies strictly to its left or on the closed segment,
    by exact ``Fraction`` orientation tests on the float inputs; the area
    is half the sum of x_p y_q - x_q y_p over those edges.  Only exact
    duplicates are merged, so no scale is special.  A flat cloud has
    both directions of its extreme segment as edges, which cancel.
    """
    P = [tuple(map(Fraction, p)) for p in
         {tuple(p) for p in np.asarray(points, dtype=np.float64).reshape(-1, 2).tolist()}]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(p, q, r):
        return all(min(p[i], q[i]) <= r[i] <= max(p[i], q[i]) for i in range(2))

    twice = Fraction(0)
    for p, q in product(P, repeat=2):
        if p != q and all(cross(p, q, r) > 0 or (cross(p, q, r) == 0 and on_segment(p, q, r))
                          for r in P if r not in (p, q)):
            twice += p[0] * q[1] - q[0] * p[1]
    return float(twice / 2)
