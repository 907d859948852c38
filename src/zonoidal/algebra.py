"""Products of zonotopes and the volume identities they compute.

The tensor product takes all pairwise outer products of generators, the
wedge product all pairwise exterior products, and a user-supplied
multilinear map f its values at all generator tuples, contracting its
structure tensor one factor at a time.  Mixed, intrinsic and ordinary
volumes then fall out of wedge-product lengths:

    MV(K_1, ..., K_m) = length(K_1 ^ ... ^ K_m) / m!
    V_d(K)            = length(K^(^d)) / d!
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np

from . import exterior
from .exterior import _row_norms, exterior_dim, realify_rows, unrealify_rows
from .zonotope import (
    Zonotope,
    VirtualZonotope,
    _lex_order,
    _one_field,
    canonicalize,
    length,
    minkowski_sum,
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
    """K read as degree 1 in R^m, itself if so tagged; a complex tag is
    dropped, since the wedge chain would read it as complex."""
    if K.grading is not None and K.grading[1] != 1:
        raise ValueError("expected a degree-1 zonotope")
    if K.grading is not None and K.cgrading is None:
        return K
    return replace(K, grading=K.grading or (K.ambient_dim, 1), cgrading=None)


def _canonical_factors(K: Zonotope, L: Zonotope) -> tuple | None:
    """The canonical rows of the float K and L, or None when a factor's
    canonical form or a product row may leave the normal float64 range
    (see ``tensor_product``)."""
    try:
        a, b = canonicalize(K).generators, canonicalize(L).generators
    except ValueError:  # a factor row or merge past float64; the product may fit
        return None
    # Python floats, whose products overflow without a warning; an empty
    # factor gives inf and 0, and an empty product
    tiny = (float(np.abs(a[a != 0.0]).min(initial=np.inf))
            * float(np.abs(b[b != 0.0]).min(initial=np.inf)))
    huge = float(_row_norms(a).max(initial=0.0)) * float(_row_norms(b).max(initial=0.0))
    # half the float64 range: room for the rounding of each product's norm
    return (a, b) if tiny >= sys.float_info.min and huge < 2.0 ** 1023 else None


def tensor_product(K: Zonotope, L: Zonotope) -> Zonotope:
    """Zonotope of the tensor of independent representatives.

    Generators are all pairwise outer products, flattened row-major, in
    canonical form, from ``exterior``'s tensor table (exact bodies on their
    integer numerators).  A float product is formed from the canonical
    factors, and the products of canonical rows are canonical but for
    their order, so they need only ``_lex_order``:
    cos(a (x) b, a' (x) b') = cos(a, a') cos(b, b'), so the sine of two
    product rows is at least either factor sine, and the collinear
    classes of the product are the products of the factors' classes;
    and each lead entry is the product of two positive leads.

    That argument needs every product of nonzero entries to be a normal
    float (an underflow could zero a row or its lead) and every product
    row norm to be finite.  The smallest nonzero entries and largest row
    norms of the canonical factors show both; when they do not, or a
    factor's canonical form leaves float64, the pairwise products of K
    and L are canonicalized as they are.
    """
    K, L = _one_field(K, L)
    dim = K.ambient_dim * L.ambient_dim
    factors = None if K.exact else _canonical_factors(K, L)
    a, b = factors or (K.generators, L.generators)
    with np.errstate(over="ignore", invalid="ignore"):  # see _subset_power
        g = exterior._pairs(a, b, exterior._tensor_table(K.ambient_dim, L.ambient_dim))
    if factors is None:  # C order, as np.einsum gave: row norms depend on it
        return canonicalize(Zonotope(dim, np.ascontiguousarray(g)))
    return Zonotope(dim, g[_lex_order(g)])


def virtual_tensor(W1: VirtualZonotope, W2: VirtualZonotope) -> VirtualZonotope:
    """Bilinear extension of the tensor product to formal differences."""
    plus = minkowski_sum(
        tensor_product(W1.plus, W2.plus), tensor_product(W1.minus, W2.minus)
    )
    minus = minkowski_sum(
        tensor_product(W1.plus, W2.minus), tensor_product(W1.minus, W2.plus)
    )
    return VirtualZonotope(plus, minus)


def _graded(gens: np.ndarray, m: int, k: int, is_complex: bool) -> Zonotope:
    """The degree-k body of wedge rows gens over R^m, or of complex wedge rows
    over C^m, realified: every tagged body derived from computed rows."""
    if is_complex:
        return Zonotope(2 * exterior_dim(m, k), realify_rows(gens), cgrading=(m, k))
    return Zonotope(exterior_dim(m, k), gens, grading=(m, k))


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
    with np.errstate(over="ignore", invalid="ignore"):  # see _subset_power
        gens = exterior.wedge_pairs(a, b, m, k, l)
    return _graded(gens, m, k + l, is_complex)


def wedge_product(K: Zonotope, L: Zonotope) -> Zonotope:
    """Wedge of graded zonotopes: all pairwise exterior products, real or
    complex by the tags of K and L."""
    return canonicalize(_wedge_raw(K, L))


def _subset_power(K: Zonotope, d: int) -> Zonotope:
    """K^(^d), d >= 0, of a degree-1 body with either tag, before
    canonicalization: the blades of the d-subsets of the generators as
    given, each scaled by d!, one row per subset.  A complex-tagged body
    is wedged as complex rows over C^m and realified again."""
    m, _, is_complex = _require_grading(K)
    G = unrealify_rows(K.generators) if is_complex else K.generators
    # a product past float64 is an inf or nan row, which length and
    # canonicalize refuse with the ValueError of the exact route's norms
    with np.errstate(over="ignore", invalid="ignore"):
        gens = exterior.subset_blades(G, d, math.factorial(d))
    return _graded(gens, m, d, is_complex)


def wedge_power(K: Zonotope, d: int) -> Zonotope:
    """d-fold wedge of K with itself.

    Antisymmetry kills tuples with repeats and merges the d! permutations
    of a subset, so the blades of the d-subsets of the generators as
    given, each scaled by d!, are merged once; a complex tag reads as real.
    """
    if d < 0:
        raise ValueError("power must be nonnegative")
    return canonicalize(_subset_power(_as_degree_one(K), d))


def induced_map(f, zonotopes) -> Zonotope:
    """Zonotope of f(X_1, ..., X_p) for a multilinear callback f.

    f takes p vectors and returns a vector.  Its structure tensor T, entry
    (S, a_1, ..., a_p) = f(e_a1, ..., e_ap)_S, is contracted with one
    factor's float64 generators at a time, last axis first, by
    ``exterior._pairs`` under the contraction table, so the rows are f at
    every generator tuple and no body in R^(prod_j d_j) is formed.  The
    last of f's prod_j d_j + 1 calls checks f(x) = T(x_1, ..., x_p), all
    slots at once, at one random tuple by the same contraction, and warns.
    """
    Gs = [np.asarray(K.generators, dtype=np.float64) for K in zonotopes]
    if not Gs:
        raise ValueError("need at least one zonotope")
    dims = [G.shape[1] for G in Gs]
    cols = [np.asarray(f(*e), dtype=np.float64) for e in product(*(np.eye(d) for d in dims))]
    rng = np.random.Generator(np.random.Philox(key=7))
    x = [rng.standard_normal(d) for d in dims]
    fx = np.asarray(f(*x), dtype=np.float64)
    T = np.column_stack(cols) if cols else np.zeros((fx.size, 0))

    def contract(rows):  # one row of T(g_1, ..., g_p) per tuple, g_p outermost
        if not cols:  # a factor in R^0: f is zero, into R^s, s the size of f(x)
            return np.zeros((math.prod(map(len, rows)), len(T)))
        x = T.reshape(1, -1)
        for G in reversed(rows):
            x = exterior._pairs(x, G, exterior._contraction_table(x.shape[1], G.shape[1]))
        return x

    Tx = contract([v[None] for v in x])[0]
    if np.any(np.abs(fx - Tx) > 1e-8 * max(1.0, float(np.max(np.abs(Tx), initial=0.0)))):
        warnings.warn("callback failed the multilinearity spot check", stacklevel=2)
    return canonicalize(Zonotope(len(T), contract(Gs)))


def _same_body(K: Zonotope, L: Zonotope) -> bool:
    """Whether K and L hold the same generators under the same tags: equal
    dtype, shape and entries (the bytes of a float array, the values of an
    exact one)."""
    g, h = K.generators, L.generators
    if (K.grading, K.cgrading, g.dtype, g.shape) != (L.grading, L.cgrading, h.dtype, h.shape):
        return False
    if g is h:
        return True
    return g.tolist() == h.tolist() if g.dtype == object else g.tobytes() == h.tobytes()


def _chain(zonotopes) -> Zonotope:
    """K_1 ^ ... ^ K_p, real or complex by the factors' tags.

    The product is commutative (up to generator signs, which a zonotope
    ignores), and K ^ K depends only on the body K, so a degree-1 factor
    passed r >= 2 times, as one object or as equal ones (``_same_body``),
    enters once, as its r-th power: the C(N, r) blades of the r-subsets
    of its generators, scaled by r! (``_subset_power``), in place of N^r
    ordered tuples.  Higher degrees are not grouped, since g ^ g need not
    vanish there.  The intermediate products are canonicalized; the last
    one is not, so that callers reading only its length skip the merge,
    which keeps length.
    """
    if not zonotopes:
        raise ValueError("need at least one zonotope")
    groups = []
    for K in zonotopes:
        for Ks in groups:
            if _same_body(Ks[0], K):
                Ks.append(K)
                break
        else:
            groups.append([K])
    factors = []
    for Ks in groups:
        if len(Ks) > 1 and _require_grading(Ks[0])[1] == 1:
            factors.append(_subset_power(Ks[0], len(Ks)))
        else:
            factors.extend(Ks)
    out = factors[0]
    for K in factors[1:-1]:
        out = wedge_product(out, K)
    if len(factors) > 1:
        out = _wedge_raw(out, factors[-1])
    return out


def mixed_volume(zonotopes):
    """MV(K_1, ..., K_m) = length(K_1 ^ ... ^ K_m) / m!.

    Expects exactly m degree-1 zonotopes in R^m.  Exact-rational inputs
    give an exact Fraction.  A body passed r times (or equal copies of it)
    is wedged as its r-th power, the r-subsets of its generators
    (``_chain``), so MV(K[r], ...) costs C(N, r) rows for K, not N^r.
    """
    Ks = [_as_degree_one(K) for K in zonotopes]
    if not Ks:
        raise ValueError("need at least one zonotope")
    m = Ks[0].grading[0]
    if len(Ks) != m:
        raise ValueError(f"mixed volume in R^{m} needs exactly {m} bodies")
    if any(K.grading != (m, 1) for K in Ks):
        raise ValueError("all bodies must be degree 1 in the same space")
    return length(_chain(Ks)) / math.factorial(m)


def volume(K: Zonotope):
    """vol_m(K) = V_m(K) = sum over m-subsets of |det|."""
    K = _as_degree_one(K)
    return intrinsic_volume(K, K.grading[0])


def intrinsic_volume(K: Zonotope, d: int):
    """V_d(K) = length(K^(^d)) / d!; V_0 = 1 and V_1 = length."""
    K = _as_degree_one(K)
    m = K.grading[0]
    if not 0 <= d <= m:
        raise ValueError("intrinsic volume degree out of range")
    return length(_subset_power(K, d)) / math.factorial(d)


def hodge_star_zonoid(K: Zonotope) -> Zonotope:
    """Star every generator; an isometry of zonoids (length preserved)."""
    m, k, is_complex = _require_grading(K)
    if is_complex:
        raise ValueError("Hodge star needs a real-graded zonotope")
    return canonicalize(_graded(exterior.hodge_rows(K.generators, m, k), m, m - k, False))


def projection_body(K: Zonotope) -> Zonotope:
    """Projection body: h(u) = ||u|| vol_{m-1}(K projected along u).

    Computed as (2 / (m-1)!) * star(K^(m-1)), merged once, after the scaling.
    """
    K = _as_degree_one(K)
    m = K.grading[0]
    if m < 2:
        raise ValueError("projection body needs ambient dimension >= 2")
    lam = Fraction(2, math.factorial(m - 1))
    gens = exterior.hodge_rows(_subset_power(K, m - 1).generators, m, m - 1)
    return canonicalize(_graded(gens * (lam if K.exact else float(lam)), m, 1, False))


def af_gap(K1: Zonotope, K2: Zonotope, companions=(), middle: Zonotope | None = None):
    """Signed gap of the Alexandrov-Fenchel-type length inequality

        length(K1 ^ K2 ^ C)^2 >= length(K1 ^ K1 ^ C) length(K2 ^ K2 ^ C)

    where C is the wedge of the companions (or ``middle`` directly).
    Nonnegative up to roundoff; tolerances belong to the caller.  K1 ^ K1
    and K2 ^ K2, and any body among the companions more than once, take
    the wedge power route of ``_chain``.
    """
    if middle is not None and companions:
        raise ValueError("pass either companions or a prewedged middle factor")
    K1, K2, *C = [_as_degree_one(K) for K in (K1, K2, *companions)]
    if middle is not None:
        C = [middle]

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
    if not Ks:
        raise ValueError("need at least one zonotope")
    m = Ks[0].grading[0]
    if sum(degrees) != m:
        raise ValueError("multiplicities must sum to the ambient dimension")
    powers = [wedge_power(K, d) for K, d in zip(Ks, degrees)]
    chain = float(length(_chain(powers)))
    bound = 1.0
    for P in powers:
        bound *= float(length(P))
    return (bound - chain) / math.factorial(m)
