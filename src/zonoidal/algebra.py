"""Products of zonotopes and the volume identities they compute.

Every product here expands a multilinear map over generator tuples:
the tensor product takes all pairwise outer products, the wedge product
all pairwise exterior products, and a user-supplied multilinear map is
expanded the same way.  Mixed, intrinsic and ordinary volumes then fall
out of wedge-product lengths:

    MV(K_1, ..., K_m) = length(K_1 ^ ... ^ K_m) / m!
    V_d(K)            = length(K^(^d)) / d!
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np

from . import exterior
from .exterior import exterior_dim, realify_rows, unrealify_rows
from .zonotope import (
    Zonotope,
    VirtualZonotope,
    _one_field,
    canonicalize,
    length,
    minkowski_sum,
    scale,
    zonotope,
)

__all__ = [
    "tensor_product",
    "wedge_product",
    "wedge_power",
    "induced_map",
    "mixed_volume",
    "volume",
    "intrinsic_volume",
    "hodge_star_zonoid",
    "projection_body",
    "af_gap",
    "reverse_af_gap",
    "virtual_tensor",
]


def _require_grading(K: Zonotope) -> tuple[int, int, bool]:
    """(m, k, complex) from either tag: ``grading=(m, k)`` for the k-th
    exterior power of R^m, ``cgrading=(m, k)`` for the realified k-th
    complex exterior power of C^m."""
    is_complex = K.cgrading is not None
    if K.grading is None and not is_complex:
        raise ValueError("operation requires a graded zonotope (base_dim, degree)")
    m, k = K.cgrading if is_complex else K.grading
    if K.ambient_dim != (2 if is_complex else 1) * exterior_dim(m, k):
        raise ValueError("ambient_dim does not match the grading")
    return m, k, is_complex


def _as_degree_one(K: Zonotope) -> Zonotope:
    """Interpret a zonotope in R^m as degree 1 in R^m.  A complex tag is
    dropped: the wedge chain would read it as complex."""
    if K.grading is not None and K.grading[1] != 1:
        raise ValueError("expected a degree-1 zonotope")
    return replace(K, grading=K.grading or (K.ambient_dim, 1), cgrading=None)


def tensor_product(K: Zonotope, L: Zonotope) -> Zonotope:
    """Zonotope of the tensor of independent representatives.

    Generators are all pairwise outer products, flattened row-major.
    """
    K, L = _one_field(K, L)
    if K.n_generators == 0 or L.n_generators == 0:
        return zonotope([], ambient_dim=K.ambient_dim * L.ambient_dim)
    gens = np.einsum("ia,jb->ijab", K.generators, L.generators).reshape(
        K.n_generators * L.n_generators, K.ambient_dim * L.ambient_dim
    )
    return canonicalize(Zonotope(K.ambient_dim * L.ambient_dim, gens))


def virtual_tensor(W1: VirtualZonotope, W2: VirtualZonotope) -> VirtualZonotope:
    """Bilinear extension of the tensor product to formal differences."""
    plus = minkowski_sum(
        tensor_product(W1.plus, W2.plus), tensor_product(W1.minus, W2.minus)
    )
    minus = minkowski_sum(
        tensor_product(W1.plus, W2.minus), tensor_product(W1.minus, W2.plus)
    )
    return VirtualZonotope(plus, minus)


def _wedge_raw(K: Zonotope, L: Zonotope) -> Zonotope:
    """Wedge of graded zonotopes before canonicalization: one generator
    per pair, K's generators in the outer order.  Complex-graded bodies
    are wedged as complex rows over C^m and realified again."""
    m, k, is_complex = _require_grading(K)
    m2, l, l_complex = _require_grading(L)
    if m != m2:
        raise ValueError("base dimension mismatch in wedge product")
    if is_complex != l_complex:
        raise ValueError("cannot wedge a real-graded with a complex-graded zonotope")
    K, L = _one_field(K, L)
    a, b = K.generators, L.generators
    if is_complex:
        a, b = unrealify_rows(a), unrealify_rows(b)
    gens = exterior.wedge_rows(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1)), m, k, l)
    if is_complex:
        return Zonotope(2 * exterior_dim(m, k + l), realify_rows(gens), cgrading=(m, k + l))
    return Zonotope(exterior_dim(m, k + l), gens, grading=(m, k + l))


def wedge_product(K: Zonotope, L: Zonotope) -> Zonotope:
    """Wedge of graded zonotopes: all pairwise exterior products, real or
    complex by the tags of K and L."""
    return canonicalize(_wedge_raw(K, L))


def _wedge_power_raw(K: Zonotope, d: int) -> Zonotope:
    """d-fold wedge before canonicalization (see ``wedge_power``)."""
    if d < 0:
        raise ValueError("power must be nonnegative")
    K = _as_degree_one(K)
    m, _ = K.grading
    if d == 0:
        return zonotope([[1.0]], ambient_dim=1, grading=(m, 0))
    G = canonicalize(K).generators
    gens = np.concatenate([exterior.blade_rows(G[idx])
                           for idx in exterior._subset_blocks(len(G), d)]) * math.factorial(d)
    return Zonotope(exterior_dim(m, d), gens, grading=(m, d))


def wedge_power(K: Zonotope, d: int) -> Zonotope:
    """d-fold wedge of K with itself.

    Antisymmetry kills tuples with repeats and merges the d!
    permutations of a subset, so it suffices to take the blades of the
    d-subsets of the generators and scale each by d!.
    """
    return canonicalize(_wedge_power_raw(K, d))


def induced_map(f, zonotopes, out_dim: int | None = None, probe_seed: int = 7) -> Zonotope:
    """Zonotope of f(X_1, ..., X_p) for a multilinear callback f.

    f takes p vectors and returns a vector; it is expanded over all
    generator tuples.  Multilinearity is the caller's responsibility
    and is spot-checked on random inputs (warning on failure).
    """
    Ks = [canonicalize(K) for K in zonotopes]
    if not Ks:
        raise ValueError("need at least one zonotope")
    _probe_linearity(f, Ks, probe_seed)
    rows = [
        np.asarray(f(*picked), dtype=np.float64)
        for picked in product(*(K.generators.astype(np.float64) for K in Ks))
    ]
    if not rows:
        if out_dim is None:
            probe = f(*[np.zeros(K.ambient_dim) for K in Ks])
            out_dim = len(np.asarray(probe))
        return zonotope([], ambient_dim=out_dim)
    return canonicalize(Zonotope(len(rows[0]), np.asarray(rows)))


def _probe_linearity(f, Ks, seed, rtol=1e-8):
    rng = np.random.Generator(np.random.Philox(key=seed))
    slot = int(rng.integers(len(Ks)))
    args_u = [rng.standard_normal(K.ambient_dim) for K in Ks]
    args_v = list(args_u)
    u = rng.standard_normal(Ks[slot].ambient_dim)
    v = rng.standard_normal(Ks[slot].ambient_dim)
    a, b = float(rng.standard_normal()), float(rng.standard_normal())
    args_u[slot] = u
    args_v[slot] = v
    args_c = list(args_u)
    args_c[slot] = a * u + b * v
    lhs = np.asarray(f(*args_c), dtype=np.float64)
    rhs = a * np.asarray(f(*args_u), dtype=np.float64) + b * np.asarray(
        f(*args_v), dtype=np.float64
    )
    tol = rtol * max(1.0, float(np.max(np.abs(rhs))))
    if np.any(np.abs(lhs - rhs) > tol):
        warnings.warn("callback failed the multilinearity spot check", stacklevel=3)


def _chain(zonotopes) -> Zonotope:
    """K_1 ^ ... ^ K_p, real or complex by the factors' tags.  The
    intermediate products are canonicalized, so repeated factors do not
    grow as N^p; the last one is not, so that callers reading only its
    length skip the merge, which keeps length.
    """
    if not zonotopes:
        raise ValueError("need at least one zonotope")
    out = zonotopes[0]
    for K in zonotopes[1:-1]:
        out = wedge_product(out, K)
    if len(zonotopes) > 1:
        out = _wedge_raw(out, zonotopes[-1])
    return out


def _per_factorial(ell, d: int):
    """ell / d!, exact for a Fraction length and float otherwise."""
    if isinstance(ell, Fraction):
        return ell / math.factorial(d)
    return float(ell) / math.factorial(d)


def mixed_volume(zonotopes):
    """MV(K_1, ..., K_m) = length(K_1 ^ ... ^ K_m) / m!.

    Expects exactly m degree-1 zonotopes in R^m.  Exact-rational inputs
    give an exact Fraction.
    """
    Ks = [_as_degree_one(K) for K in zonotopes]
    m = Ks[0].grading[0]
    if len(Ks) != m:
        raise ValueError(f"mixed volume in R^{m} needs exactly {m} bodies")
    if any(K.grading != (m, 1) for K in Ks):
        raise ValueError("all bodies must be degree 1 in the same space")
    return _per_factorial(length(_chain(Ks)), m)


def volume(K: Zonotope):
    """vol_m(K) = length(K^(^m)) / m! = sum over m-subsets of |det|."""
    K = _as_degree_one(K)
    m = K.grading[0]
    return _per_factorial(length(_wedge_power_raw(K, m)), m)


def intrinsic_volume(K: Zonotope, d: int):
    """V_d(K) = length(K^(^d)) / d!; V_0 = 1 and V_1 = length."""
    K = _as_degree_one(K)
    m = K.grading[0]
    if not 0 <= d <= m:
        raise ValueError("intrinsic volume degree out of range")
    if d == 0:
        return 1.0
    return _per_factorial(length(_wedge_power_raw(K, d)), d)


def hodge_star_zonoid(K: Zonotope) -> Zonotope:
    """Star every generator; an isometry of zonoids (length preserved)."""
    m, k, is_complex = _require_grading(K)
    if is_complex:
        raise ValueError("Hodge star needs a real-graded zonotope")
    gens = exterior.hodge_rows(K.generators, m, k)
    return canonicalize(Zonotope(exterior_dim(m, m - k), gens, grading=(m, m - k)))


def projection_body(K: Zonotope) -> Zonotope:
    """Projection body: h(u) = ||u|| vol_{m-1}(K projected along u).

    Computed as (2 / (m-1)!) * star(K^(m-1)).
    """
    K = _as_degree_one(K)
    m = K.grading[0]
    if m < 2:
        raise ValueError("projection body needs ambient dimension >= 2")
    starred = hodge_star_zonoid(wedge_power(K, m - 1))
    return scale(starred, Fraction(2, math.factorial(m - 1)))


def af_gap(K1: Zonotope, K2: Zonotope, companions=(), middle: Zonotope | None = None):
    """Signed gap of the Alexandrov-Fenchel-type length inequality

        length(K1 ^ K2 ^ C)^2 >= length(K1 ^ K1 ^ C) length(K2 ^ K2 ^ C)

    where C is the wedge of the companions (or ``middle`` directly).
    Nonnegative up to roundoff; tolerances belong to the caller.
    """
    K1, K2 = _as_degree_one(K1), _as_degree_one(K2)
    if middle is not None and companions:
        raise ValueError("pass either companions or a prewedged middle factor")
    C = [middle] if middle is not None else [_as_degree_one(K) for K in companions]

    def term(A, B):
        return float(length(_chain([A, B] + C)))

    return term(K1, K2) ** 2 - term(K1, K1) * term(K2, K2)


def reverse_af_gap(zonotopes, degrees):
    """Signed gap of the reverse inequality

        prod_i length(K_i^(^d_i)) / m!  -  MV(K_1[d_1], ..., K_p[d_p])

    which vanishes exactly when the spans are pairwise orthogonal (or a
    factor vanishes) and is positive otherwise.
    """
    Ks = [_as_degree_one(K) for K in zonotopes]
    degrees = [int(d) for d in degrees]
    if len(Ks) != len(degrees):
        raise ValueError("need one multiplicity per body")
    m = Ks[0].grading[0]
    if sum(degrees) != m:
        raise ValueError("multiplicities must sum to the ambient dimension")
    powers = [wedge_power(K, d) for K, d in zip(Ks, degrees)]
    chain = float(length(_chain(powers)))
    bound = 1.0
    for P in powers:
        bound *= float(length(P))
    return (bound - chain) / math.factorial(m)
