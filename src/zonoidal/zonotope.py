"""Zonotopes as weighted generator lists, with Minkowski arithmetic.

A generator list (v_1, ..., v_n) represents the centered zonotope
K = sum_i 1/2 [-v_i, v_i]; the empty list represents {0}.  The hosting
space may be a plain R^D or an exterior power, recorded by an optional
grading tag.  Generators are float64 rows by default; object-dtype rows
of Fraction entries give exact arithmetic for rational inputs.

Formal differences of zonotopes (virtual zonotopes) carry signed
support functions and a linear length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

import numpy as np

from .exterior import _join_exact, _row_norms, _split_exact, _subset_blocks
from .sampling import covering_net, direction_net

__all__ = [
    "Zonotope",
    "VirtualZonotope",
    "zonotope",
    "support",
    "support_many",
    "minkowski_sum",
    "scale",
    "length",
    "linear_image",
    "canonicalize",
    "canonical_eq",
    "radius",
    "radius_bounds",
    "hausdorff_estimate",
    "virtual_support",
    "virtual_add",
    "virtual_negate",
    "virtual_length",
    "virtual_eq",
    "zonotope_to_dict",
    "zonotope_from_dict",
    "COLLINEAR_SINE_TOL",
    "RADIUS_EXACT_MAX_GENERATORS",
]

# two generators merge when the sine of their angle is at most this
COLLINEAR_SINE_TOL = 1e-10
# a row lies in a flat when its residual off it is at most this times its norm
SPAN_MEMBER_TOL = 1e-9
# exact radius enumerates 2^(n-1) sign vectors; refuse beyond this
RADIUS_EXACT_MAX_GENERATORS = 22


@dataclass(frozen=True, eq=False)
class Zonotope:
    """Centered zonotope sum_i 1/2 [-v_i, v_i] in R^ambient_dim.

    grading:  (base_dim m, degree k) when the hosting space is the k-th
              exterior power of R^m (so ambient_dim == C(m, k)).
    cgrading: (complex_dim n, degree k) when the hosting space is the
              realified k-th complex exterior power of C^n
              (ambient_dim == 2 C(n, k)).

    Float64 generator arrays are kept as given, without a copy; no
    function writes into a generator array.
    """

    ambient_dim: int
    generators: np.ndarray
    grading: tuple[int, int] | None = None
    cgrading: tuple[int, int] | None = None

    def __post_init__(self):
        g = np.asarray(self.generators)
        if g.size == 0:
            g = g.reshape(0, self.ambient_dim)
        if g.ndim != 2 or g.shape[1] != self.ambient_dim:
            raise ValueError(f"generators must be rows of length {self.ambient_dim}")
        if np.iscomplexobj(g):
            raise ValueError("generators must be real; store complex rows realified")
        if g.dtype != object:
            g = g.astype(np.float64, copy=False)
        object.__setattr__(self, "generators", g)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @property
    def exact(self) -> bool:
        return self.generators.dtype == object

    def support(self, u) -> float:
        return support(self, u)

    def length(self):
        return length(self)

    def __add__(self, other: "Zonotope") -> "Zonotope":
        return minkowski_sum(self, other)

    def __rmul__(self, lam) -> "Zonotope":
        return scale(self, lam)

    def __repr__(self):
        tag = ""
        if self.grading:
            tag = f", grading={self.grading}"
        if self.cgrading:
            tag = f", cgrading={self.cgrading}"
        return f"Zonotope(dim={self.ambient_dim}, n={self.n_generators}{tag})"


def zonotope(generators, ambient_dim=None, grading=None, cgrading=None) -> Zonotope:
    """Build a zonotope from generator rows (not canonicalized)."""
    g = np.asarray(generators)
    if ambient_dim is not None:
        ambient_dim = _integer(ambient_dim)
    if g.size == 0:
        if ambient_dim is None:
            raise ValueError("ambient_dim required for the zero zonotope")
        g = np.zeros((0, ambient_dim))
    if g.ndim == 1:
        g = g[None, :]
    if ambient_dim is None:
        ambient_dim = g.shape[1]
    return Zonotope(ambient_dim, g, grading, cgrading)
def support(K: Zonotope, u) -> float:
    """Support function h_K(u) = 1/2 sum_i |<v_i, u>|."""
    u = np.asarray(u)
    if u.shape != (K.ambient_dim,):
        raise ValueError("direction dimension mismatch")
    if K.n_generators == 0:
        return Fraction(0) if (K.exact and u.dtype == object) else 0.0
    dots = K.generators @ u
    if K.exact or u.dtype == object:
        return sum(abs(d) for d in dots) / 2
    return float(np.sum(np.abs(dots))) / 2.0


def support_many(K: Zonotope, U: np.ndarray) -> np.ndarray:
    """Support values along each row of U."""
    U = np.asarray(U, dtype=np.float64)
    if K.n_generators == 0:
        return np.zeros(len(U))
    g = K.generators.astype(np.float64) if K.exact else K.generators
    return 0.5 * np.abs(U @ g.T).sum(axis=1)


def length(K: Zonotope):
    """First intrinsic volume sum_i ||v_i||; additive under Minkowski sum.

    In exact mode with ambient_dim 1 the result is an exact Fraction.
    """
    if K.n_generators == 0:
        return Fraction(0) if (K.exact and K.ambient_dim == 1) else 0.0
    split = _split_exact(K.generators) if K.ambient_dim == 1 else None
    if split is not None:  # sum_i |n_i| / d_i over the lcm of the d_i
        num, den = split[0][:, 0].tolist(), split[1].tolist()
        common = math.lcm(*den)
        return Fraction(sum(abs(n) * (common // d) for n, d in zip(num, den)), common)
    return float(np.sum(_row_norms(K.generators)))


def _one_field(K: Zonotope, L: Zonotope) -> tuple[Zonotope, Zonotope]:
    """K and L with generators in one field: an empty body takes the
    other's dtype; a Fraction and a float body with generators are an error."""
    if K.exact != L.exact:
        if K.n_generators == 0:
            K = replace(K, generators=K.generators.astype(L.generators.dtype))
        elif L.n_generators == 0:
            L = replace(L, generators=L.generators.astype(K.generators.dtype))
        else:
            raise ValueError("cannot mix exact and float zonotopes")
    return K, L


def minkowski_sum(K: Zonotope, L: Zonotope) -> Zonotope:
    """Minkowski sum; h_{K+L} = h_K + h_L."""
    if K.ambient_dim != L.ambient_dim:
        raise ValueError("ambient dimension mismatch in Minkowski sum")
    grading = K.grading if K.grading == L.grading else None
    cgrading = K.cgrading if K.cgrading == L.cgrading else None
    K, L = _one_field(K, L)
    gens = np.concatenate([K.generators, L.generators], axis=0)
    return canonicalize(Zonotope(K.ambient_dim, gens, grading, cgrading))


def scale(K: Zonotope, lam) -> Zonotope:
    """Dilation by lam >= 0 (negation of a centered zonotope is itself).
    lam is taken in K's field: a Fraction for an exact body, else a float."""
    lam = Fraction(lam) if K.exact else float(lam)
    if lam < 0:
        raise ValueError("scale factor must be nonnegative")
    if lam == 0:
        return replace(K, generators=K.generators[:0])
    return canonicalize(replace(K, generators=K.generators * lam))


def linear_image(M, K: Zonotope) -> Zonotope:
    """Image zonotope M(K); h_{M K}(u) = h_K(M^T u)."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[1] != K.ambient_dim:
        raise ValueError("matrix shape does not match ambient dimension")
    gens = K.generators @ M.T
    return canonicalize(Zonotope(M.shape[0], gens))


def _sign_normalize_float(g: np.ndarray) -> np.ndarray:
    lead = g[:, 0]
    if not np.all(lead != 0.0):  # some row leads with 0.0 or -0.0
        lead = g[np.arange(len(g)), np.argmax(np.abs(g) > 0.0, axis=1)]
    return g * np.where(lead < 0, -1.0, 1.0)[:, None]


def _lex_order(g: np.ndarray) -> np.ndarray:
    """The stable lexicographic row order of g, first column first: the
    permutation ``np.lexsort(g.T[::-1])`` returns, for rows without NaN.

    One argsort on column 0 puts every row whose first entry is unique
    in its slot; only the rows tied there are lexsorted again, in the
    slots they already hold.  That argsort need not be stable: the tied
    rows enter the lexsort in index order, and ``np.lexsort`` is stable,
    so equal rows keep their input order.
    """
    order = np.argsort(g[:, 0])
    col = g[order, 0]
    same = col[1:] == col[:-1]
    if not same.any():
        return order
    tied = np.zeros(len(g), dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    sub = np.sort(order[tied])
    order[tied] = sub[np.lexsort(g[sub].T[::-1])]
    return order


def _collinear_labels(unit: np.ndarray) -> np.ndarray:
    """Label each unit row with the smallest index in its class.

    A class is a connected component of the graph joining two rows
    whose sine is at most COLLINEAR_SINE_TOL.  Two joined rows differ in
    |<u, p>| by at most about their sine, for any unit p; so the rows
    are sorted by that key for one fixed generic p, and the order is cut
    at every gap above twice the tolerance.  A breadth-first search then
    grows the components of every run in lockstep: each round gives each
    run one pivot, a row queued by its current component or else its
    smallest unassigned row as a new seed, and tests all pivots against
    the unassigned rows of their runs in one gathered batch.  The rounds
    number the most pivots any one run takes.  The sine of a pair is the
    residual of its higher-index row against its lower-index row, so the
    graph does not depend on the visit order, and a seed is the smallest
    index of its class.
    """
    n, dim = unit.shape
    labels = np.arange(n)
    p = np.cos(np.arange(1.0, dim + 1.0))
    key = np.abs(unit @ (p / np.linalg.norm(p)))
    order = np.argsort(key)
    gap = np.diff(key[order]) > 2.0 * COLLINEAR_SINE_TOL
    multi = ~(np.r_[True, gap] & np.r_[gap, True])  # in a run of two or more
    if not multi.any():
        return labels
    # rows in runs, each run's rows in index order (run is sorted already);
    # a queued row is assigned but has not been a pivot yet
    rows, run = order[multi], np.cumsum(np.r_[True, gap])[multi]
    rows = rows[np.lexsort((rows, run))]
    queued = np.zeros(len(rows), dtype=bool)
    while True:
        start = np.flatnonzero(np.r_[True, run[1:] != run[:-1]])
        size = np.diff(np.r_[start, len(rows)])
        at = np.arange(len(rows))
        last_queued = np.maximum.reduceat(np.where(queued, at, -1), start)
        seeded = last_queued < 0
        # live: the run has an unassigned row beside its pivot
        live = np.add.reduceat(~queued, start, dtype=np.intp) > seeded
        if not live.any():
            return labels
        pivot = np.where(seeded, start, last_queued)
        piv, in_live = np.repeat(pivot, size), np.repeat(live, size)
        cand = np.flatnonzero(~queued & in_live & (at != piv))
        i, j = rows[piv[cand]], rows[cand]
        q, u = unit[i], unit[j]
        cos = np.einsum("ij,ij->i", q, u)[:, None]
        resid = np.where((j < i)[:, None], q - cos * u, u - cos * q)
        hit = np.linalg.norm(resid, axis=1) <= COLLINEAR_SINE_TOL
        labels[j[hit]] = labels[i[hit]]
        queued[cand[hit]] = True
        in_live[pivot] = False
        rows, run, queued = rows[in_live], run[in_live], queued[in_live]


# ---------------------------------------------------------------------------
# flats: the rank of rows, membership in a flat, spans and cells


def _significant(s: np.ndarray, shape) -> np.ndarray:
    """The rank rule: the singular values s (descending along the last axis)
    of matrices of the given shape that exceed max(shape) eps s_0."""
    return s > max(shape[-2:]) * np.finfo(np.float64).eps * s[..., :1]


def _in_flat(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Mask of the rows of G whose residual off the span of B's orthonormal
    rows (of each B, for a stack) is at most SPAN_MEMBER_TOL times their norm."""
    resid = G - (G @ np.swapaxes(B, -1, -2)) @ B
    return np.linalg.norm(resid, axis=-1) <= SPAN_MEMBER_TOL * np.linalg.norm(G, axis=1)


def _orthonormal_rows(V: np.ndarray, expected_rank: int | None = None) -> np.ndarray:
    """Orthonormal row basis of the row span of V (SVD), rank-checked."""
    V = np.asarray(V, dtype=np.float64)
    _, s, Vt = np.linalg.svd(V, full_matrices=False)
    rank = int(np.sum(_significant(s, V.shape)))
    if expected_rank is not None and rank < expected_rank:
        raise ValueError("rank-deficient basis")
    return Vt[:rank]


def _spans(A: np.ndarray, d: int) -> list:
    """Distinct spans of d independent rows of A, from one batched SVD per
    block of d-subsets, as (mask of the rows each contains, orthonormal
    rows of R^m whose first d span it), keyed by the mask."""
    A = np.asarray(A, dtype=np.float64)
    spans: dict[bytes, tuple] = {}
    for idx in _subset_blocks(len(A), d):
        _, s, Vt = np.linalg.svd(A[idx], full_matrices=True)
        Vt = Vt[np.all(_significant(s, (d, A.shape[1])), axis=1)]
        for mask, V in zip(_in_flat(A, Vt[:, :d]), Vt):
            spans.setdefault(mask.tobytes(), (mask, V))
    return list(spans.values())


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a in lexicographic order, and the index of
    each row of a among them: ``np.unique(a, axis=0, return_inverse=True)``
    for rows without NaN, from one ``_lex_order`` and a neighbour test."""
    order = _lex_order(a)
    s = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = np.any(s[1:] != s[:-1], axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return s[new], inverse


def _vertex_signs(A: np.ndarray) -> np.ndarray:
    """Sorted sign vectors (rows of +-1.0) of the open cells of the central
    arrangement normal to A's rows: the vertices of the zonotope they
    generate.  On A's row space, of dimension c, c rows cut all 2^c
    orthants.  Otherwise every cell has an extreme ray r normal to a
    (c-1)-span of rows (``_spans``): the rows off r take their sign at r
    or at -r, and the rows in the span recurse in it."""
    def cells(A: np.ndarray) -> np.ndarray:
        N, c = A.shape
        if N == c:
            return np.array(list(product((-1.0, 1.0), repeat=c)))
        out = []
        for mask, V in _spans(A, c - 1):
            inner = cells(A[mask] @ V[:c - 1].T)
            off = np.where(A[~mask] @ V[c - 1] > 0.0, 1.0, -1.0)
            block = np.empty((2, len(inner), N))
            block[:, :, mask] = inner
            block[:, :, ~mask] = np.array([off, -off])[:, None]
            out.append(block.reshape(-1, N))
        return _unique_rows(np.concatenate(out))[0]

    A = np.asarray(A, dtype=np.float64)
    return cells(A @ _orthonormal_rows(A).T)


def _canonicalize_float(K: Zonotope) -> Zonotope:
    g, norms = K.generators, _row_norms(K.generators)
    nonzero = norms > 0.0
    if not nonzero.all():
        g, norms = g[nonzero], norms[nonzero]
    if len(g) == 0:
        return replace(K, generators=g)
    g = _sign_normalize_float(g)
    unit = g / norms[:, None]
    labels = _collinear_labels(unit)
    if (labels != np.arange(len(g))).any():
        order = np.argsort(labels, kind="stable")
        starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
        flips = np.where(np.sum(unit * unit[labels], axis=1) < 0, -1.0, 1.0)
        with np.errstate(over="ignore"):
            g = np.add.reduceat((g * flips[:, None])[order], starts)
        _row_norms(g)  # a merged row's entries or norm can pass float64
        g = _sign_normalize_float(g)
    return replace(K, generators=g[_lex_order(g)])


def _canonicalize_exact(K: Zonotope) -> Zonotope:
    """Rows keyed by their primitive integer direction (numerators over
    their gcd, first nonzero entry positive); a group merges into its
    direction times the sum w of the rows' positive multipliers.  Over
    the lcm of the w's denominators the merged rows are integers, which
    sort like the rows themselves."""
    g = K.generators
    split = _split_exact(g)
    if split is None:  # entries other than int and Fraction
        split = _split_exact(np.array([[Fraction(x) for x in row] for row in g],
                                      dtype=object).reshape(g.shape))
    num, den, _ = split
    groups: dict[tuple, list[Fraction]] = {}
    for row, d in zip(num.tolist(), den.tolist()):
        gcd = math.gcd(*row)
        if gcd:
            lead = gcd if next(x for x in row if x) > 0 else -gcd
            groups.setdefault(tuple(x // lead for x in row), []).append(Fraction(gcd, d))
    weights = [sum(ws[1:], ws[0]) for ws in groups.values()]
    common = math.lcm(*(w.denominator for w in weights))
    rows = sorted([w.numerator * (common // w.denominator) * x for x in direction]
                  for direction, w in zip(groups, weights))
    rows = np.array(rows, dtype=object).reshape(len(rows), K.ambient_dim)
    return replace(K, generators=_join_exact(rows, np.full(len(rows), common, dtype=object)))


def canonicalize(K: Zonotope) -> Zonotope:
    """Canonical form: no zero or collinear generators, sign-normalized
    (first nonzero coordinate positive), sorted lexicographically
    (float rows by ``_lex_order``).

    The support function is unchanged at every direction.  A NaN or
    infinite float entry is a ValueError, and so is a row whose norm
    exceeds the float64 range or a merge of collinear rows that overflows.
    """
    if K.exact:
        return _canonicalize_exact(K)
    return _canonicalize_float(K)


def canonical_eq(K: Zonotope, L: Zonotope, tol: float = 1e-12) -> bool:
    """Equality of canonical forms, entrywise within tol."""
    if K.ambient_dim != L.ambient_dim:
        return False
    a, b = canonicalize(K), canonicalize(L)
    if a.n_generators != b.n_generators:
        return False
    if a.exact and b.exact:
        return all(
            x == y for ra, rb in zip(a.generators, b.generators) for x, y in zip(ra, rb)
        )
    ga = a.generators.astype(np.float64) if a.exact else a.generators
    gb = b.generators.astype(np.float64) if b.exact else b.generators
    if ga.size == 0:
        return True
    scale_ = max(1.0, float(np.max(np.abs(ga))), float(np.max(np.abs(gb))))
    return bool(np.all(np.abs(ga - gb) <= tol * scale_))


def radius(K: Zonotope) -> float:
    """Exact radius max_{x in K} ||x|| by sign-vector enumeration.

    Requires at most RADIUS_EXACT_MAX_GENERATORS generators.
    """
    Kc = canonicalize(K)
    n = Kc.n_generators
    if n == 0:
        return 0.0
    if n > RADIUS_EXACT_MAX_GENERATORS:
        raise ValueError(
            f"exact radius supports at most {RADIUS_EXACT_MAX_GENERATORS} generators, got {n}"
        )
    g = Kc.generators.astype(np.float64) if Kc.exact else Kc.generators
    # vertices are 1/2 sum_i eps_i v_i; fix eps_0 = +1 by symmetry
    best = 0.0
    total = 1 << (n - 1)
    step = 1 << 16
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total), dtype=np.uint64)
        bits = (codes[:, None] >> np.arange(n - 1, dtype=np.uint64)[None, :]) & 1
        signs = np.concatenate(
            [np.ones((len(codes), 1)), np.where(bits == 1, 1.0, -1.0)], axis=1
        )
        pts = 0.5 * signs @ g
        best = max(best, float(np.max(np.linalg.norm(pts, axis=1))))
    return best


def radius_bounds(K: Zonotope, net_count: int = 4096, seed: int = 0) -> tuple[float, float]:
    """Certified enclosure [lo, hi] of the radius.

    lo = max(sampled support, length / tau_D); hi = length / 2.  Both
    bounds follow from 2 ||K|| <= l(K) <= tau_D ||K||.
    """
    from .randomdet import tau  # local import to avoid a cycle

    if K.n_generators == 0:
        return (0.0, 0.0)
    ell = float(length(K))
    net = direction_net(K.ambient_dim, net_count, seed)
    lo = float(np.max(support_many(K, net)))
    lo = max(lo, ell / tau(K.ambient_dim))
    return (lo, ell / 2.0)


def hausdorff_estimate(
    K: Zonotope, L: Zonotope, delta: float = 1e-3, seed: int = 0
) -> tuple[float, float]:
    """Certified interval around d_H(K, L) = sup_u |h_K(u) - h_L(u)|.

    The lower end scans a direction net.  In dimensions 1 to 3 the
    Lipschitz constant (l(K) + l(L)) / 2 turns the net's covering radius
    delta into the upper end.  From dimension 4 the net certifies no
    radius; as h_K, h_L >= 0, d_H <= max(||K||, ||L||) <= max(l(K), l(L)) / 2.
    """
    if K.ambient_dim != L.ambient_dim:
        raise ValueError("ambient dimension mismatch in Hausdorff estimate")
    if delta <= 0:
        raise ValueError("delta must be positive")
    net = covering_net(K.ambient_dim, delta, seed)
    diff = np.abs(support_many(K, net) - support_many(L, net))
    lo = float(np.max(diff)) if len(diff) else 0.0
    lk, ll = float(length(K)), float(length(L))
    if K.ambient_dim >= 4:
        return (lo, max(lo, lk / 2.0, ll / 2.0))
    return (lo, lo + (lk + ll) / 2.0 * delta)


# ---------------------------------------------------------------------------
# virtual zonotopes (formal differences)


@dataclass(frozen=True, eq=False)
class VirtualZonotope:
    """Formal difference plus - minus of two zonotopes."""

    plus: Zonotope
    minus: Zonotope

    def __post_init__(self):
        if self.plus.ambient_dim != self.minus.ambient_dim:
            raise ValueError("ambient dimension mismatch in virtual zonotope")

    @property
    def ambient_dim(self) -> int:
        return self.plus.ambient_dim

    def __repr__(self):
        return f"VirtualZonotope({self.plus!r} - {self.minus!r})"


def virtual_support(W: VirtualZonotope, u) -> float:
    return support(W.plus, u) - support(W.minus, u)


def virtual_add(W1: VirtualZonotope, W2: VirtualZonotope) -> VirtualZonotope:
    return VirtualZonotope(
        minkowski_sum(W1.plus, W2.plus), minkowski_sum(W1.minus, W2.minus)
    )


def virtual_negate(W: VirtualZonotope) -> VirtualZonotope:
    return VirtualZonotope(W.minus, W.plus)


def virtual_length(W: VirtualZonotope):
    return length(W.plus) - length(W.minus)


def virtual_eq(W1: VirtualZonotope, W2: VirtualZonotope, tol: float = 1e-12) -> bool:
    """W1 == W2 iff plus1 + minus2 and plus2 + minus1 agree canonically."""
    return canonical_eq(
        minkowski_sum(W1.plus, W2.minus), minkowski_sum(W2.plus, W1.minus), tol
    )


# ---------------------------------------------------------------------------
# JSON schema


def _rows_to_json(rows: np.ndarray) -> list:
    """JSON rows of a 2-D array: Fraction entries as strings, floats as floats."""
    entry = str if rows.dtype == object else float
    return [[entry(x) for x in row] for row in rows]


def _finite_floats(raw) -> np.ndarray:
    """JSON numbers as a float64 array; a null (which numpy reads as NaN),
    NaN or infinite entry is a KeyError."""
    a = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(a).all():
        raise KeyError("non-finite entry or null where a number belongs")
    return a


def _integer(x) -> int:
    """An integer JSON field as an int: a Python or numpy integer (not a
    bool) or an integral float such as 2.0; anything else is a KeyError."""
    if (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            or isinstance(x, float) and x.is_integer()):
        return int(x)
    raise KeyError(f"not an integer: {x!r}")


def _rows_from_json(raw, dim: int, exact: bool = False) -> np.ndarray:
    """The (len(raw), dim) array of JSON rows: Fractions when exact is set
    or any entry is a string, else float64.  A row of any other length
    than dim, or an entry that is null or not finite, is a KeyError."""
    bad = [len(row) for row in raw if len(row) != dim]
    if bad:
        raise KeyError(f"row of length {bad[0]} where the ambient dimension is {dim}")
    if not (exact or any(isinstance(x, str) for row in raw for x in row)):
        return _finite_floats(raw).reshape(len(raw), dim)
    out = np.empty((len(raw), dim), dtype=object)
    for i, row in enumerate(raw):
        if any(x is None or (type(x) is float and not math.isfinite(x)) for x in row):
            raise KeyError("non-finite entry or null where a number belongs")
        out[i, :] = [Fraction(x) for x in row]
    return out


def zonotope_to_dict(K: Zonotope) -> dict:
    grading = None
    if K.grading is not None:
        grading = {"base_dim": K.grading[0], "degree": K.grading[1]}
    out = {"ambient_dim": K.ambient_dim, "grading": grading,
           "generators": _rows_to_json(K.generators)}
    if K.cgrading is not None:
        out["cgrading"] = {"complex_dim": K.cgrading[0], "degree": K.cgrading[1]}
    return out


def zonotope_from_dict(d: dict, exact: bool = False) -> Zonotope:
    dim = _integer(d["ambient_dim"])
    grading, cgrading = d.get("grading"), d.get("cgrading")
    if grading is not None:
        grading = (_integer(grading["base_dim"]), _integer(grading["degree"]))
    if cgrading is not None:
        cgrading = (_integer(cgrading["complex_dim"]), _integer(cgrading["degree"]))
    return Zonotope(dim, _rows_from_json(d["generators"], dim, exact), grading, cgrading)
