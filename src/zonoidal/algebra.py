"""Products of zonotopes and the volume identities they compute.

The tensor product takes all pairwise outer products of generators, the
wedge product all pairwise exterior products, and a user-supplied
multilinear map f = L o (x) induces the linear image under L of the
tensor product.  Mixed, intrinsic and ordinary volumes then fall out of
wedge-product lengths:

    MV(K_1, ..., K_m) = length(K_1 ^ ... ^ K_m) / m!
    V_d(K)            = length(K^(^d)) / d!
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import reduce

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
    linear_image,
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


def _pair_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All outer products a[i] (x) b[j], i in the outer order, flattened row-major."""
    return np.einsum("ia,jb->ijab", a, b).reshape(len(a) * len(b), a.shape[1] * b.shape[1])


def _canonical_pair_rows(K: Zonotope, L: Zonotope) -> np.ndarray | None:
    """The canonical rows of the float K (x) L from the canonical factors,
    or None when a factor's canonical form or a product row may leave
    the normal float64 range (see ``tensor_product``)."""
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
    if not (tiny >= sys.float_info.min and huge < 2.0 ** 1023):
        return None
    g = _pair_rows(a, b)
    return g[_lex_order(g)]


def tensor_product(K: Zonotope, L: Zonotope) -> Zonotope:
    """Zonotope of the tensor of independent representatives.

    Generators are all pairwise outer products, flattened row-major, in
    canonical form.  A float product is formed from the canonical
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
    if K.n_generators == 0 or L.n_generators == 0:
        return zonotope([], ambient_dim=dim)
    g = None if K.exact else _canonical_pair_rows(K, L)
    if g is None:
        return canonicalize(Zonotope(dim, _pair_rows(K.generators, L.generators)))
    return Zonotope(dim, g)


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
    with np.errstate(over="ignore", invalid="ignore"):  # see _wedge_power_raw
        gens = exterior.wedge_pairs(a, b, m, k, l)
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
        return zonotope(np.ones((1, 1), dtype=K.generators.dtype), grading=(m, 0))
    G = canonicalize(K).generators
    # a product past float64 is an inf or nan row, which length and
    # canonicalize refuse with the ValueError of the exact route's norms
    with np.errstate(over="ignore", invalid="ignore"):
        gens = exterior.subset_blades(G, d, math.factorial(d))
    return Zonotope(exterior_dim(m, d), gens, grading=(m, d))


def wedge_power(K: Zonotope, d: int) -> Zonotope:
    """d-fold wedge of K with itself.

    Antisymmetry kills tuples with repeats and merges the d!
    permutations of a subset, so it suffices to take the blades of the
    d-subsets of the generators and scale each by d!.
    """
    return canonicalize(_wedge_power_raw(K, d))


def induced_map(f, zonotopes) -> Zonotope:
    """Zonotope of f(X_1, ..., X_p) for a multilinear callback f.

    f takes p vectors and returns a vector.  By the universal property
    f = L o (x), where L's column (a_1, ..., a_p), in the row-major order
    of ``tensor_product``, is f(e_a1, ..., e_ap); the body is
    L(K_1 (x) ... (x) K_p), generators read as float64.  f is called
    prod_j d_j + 1 times: the last call checks f(x) = L(x_1 (x) ... (x) x_p)
    at one random tuple, linearity in every slot at once (warning on
    failure).  Expanding f over generator tuples would take prod_j N_j
    calls, fewer only for many factors in a high dimension with few
    generators.
    """
    Ks = [Zonotope(K.ambient_dim, K.generators.astype(np.float64)) for K in zonotopes]
    if not Ks:
        raise ValueError("need at least one zonotope")
    dims = [K.ambient_dim for K in Ks]
    bases = [np.eye(d) for d in dims]
    L = np.column_stack([
        np.asarray(f(*(e[a] for e, a in zip(bases, idx))), dtype=np.float64)
        for idx in np.ndindex(*dims)
    ])
    rng = np.random.Generator(np.random.Philox(key=7))
    x = [rng.standard_normal(d) for d in dims]
    Lx = L @ reduce(np.multiply.outer, x).ravel()
    fx = np.asarray(f(*x), dtype=np.float64)
    if np.any(np.abs(fx - Lx) > 1e-8 * max(1.0, float(np.max(np.abs(Lx))))):
        warnings.warn("callback failed the multilinearity spot check", stacklevel=2)
    return linear_image(L, reduce(tensor_product, Ks))


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
    """vol_m(K) = V_m(K) = sum over m-subsets of |det|."""
    return intrinsic_volume(K, _as_degree_one(K).grading[0])


def intrinsic_volume(K: Zonotope, d: int):
    """V_d(K) = length(K^(^d)) / d!; V_0 = 1 and V_1 = length."""
    K = _as_degree_one(K)
    m = K.grading[0]
    if not 0 <= d <= m:
        raise ValueError("intrinsic volume degree out of range")
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
