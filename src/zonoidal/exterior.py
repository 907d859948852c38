"""Multilinear algebra in real and complex exterior powers.

An element of the k-th exterior power of R^m or C^m is stored densely
as a vector of C(m, k) coefficients, indexed by the k-element subsets
of {0, ..., m-1} in lexicographic order.  One ``Multivector`` type
holds float64, complex128 or Fraction (numpy object dtype)
coefficients; the coefficients carry the field, so the complex
operations are the real ones applied to complex coefficients.
``ComplexMultivector``, ``complex_wedge`` and
``complex_blade_from_vectors`` are aliases of ``Multivector``, ``wedge``
and ``blade_from_vectors``.

``realify_rows`` maps complex rows isometrically onto real rows of
twice the length by interleaving (real, imaginary) parts, and
``unrealify_rows`` inverts it; every other module reads and writes that
layout through these two functions.

Every product runs through one row-batched kernel, ``wedge_rows``,
acting on (N, C(m, k)) arrays of any of these dtypes; ``blade_rows``
folds it over the vectors of a batch of matrices, and the single-element
functions (``wedge`` and the blades) are one-row calls; ``wedge_pairs``
and ``subset_blades`` take whole generator lists.

Exact rows (int and Fraction entries) are split once into integer
numerators over one denominator per row, the gather runs on the
numerators (int64 while a bound on every partial sum stays below 2^62,
Python ints beyond), and each output entry becomes one Fraction.
``_split_exact`` and ``_join_exact`` alone read and write that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

__all__ = [
    "Multivector",
    "ComplexMultivector",
    "wedge_rows",
    "wedge_pairs",
    "blade_rows",
    "subset_blades",
    "hodge_rows",
    "wedge",
    "blade_from_vectors",
    "hodge_star",
    "norm",
    "inner",
    "complex_wedge",
    "complex_blade_from_vectors",
    "realify",
    "realify_rows",
    "unrealify",
    "unrealify_rows",
    "exterior_dim",
    "basis_subsets",
]


# rows per wedge gather: bounds its (rows, C(m, k+l), C(k+l, k))
# temporaries to a few megabytes however many rows a product has
_ROW_BLOCK = 4096
# exact products run in int64 while every partial sum is proven below this
_INT64_BOUND = 2 ** 62


def exterior_dim(m: int, k: int) -> int:
    """Dimension C(m, k) of the k-th exterior power; 0 when k > m."""
    return math.comb(m, k) if 0 <= k <= m else 0


@lru_cache(maxsize=None)
def basis_subsets(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {0..m-1} in lexicographic order."""
    return tuple(combinations(range(m), k))


@lru_cache(maxsize=None)
def _subset_rank(m: int, k: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(basis_subsets(m, k))}


def _shuffle_sign(pos) -> int:
    """Sign of the shuffle that moves the sorted positions ``pos`` of a
    sorted tuple to its front, keeping the order within both parts."""
    return (-1) ** sum(p - t for t, p in enumerate(pos))


@lru_cache(maxsize=None)
def _wedge_table(m: int, k: int, l: int):
    """Gather table for wedge: Λ^k x Λ^l -> Λ^{k+l}.

    Arrays (ii, jj, ss) of shape (C(m, k+l), C(k+l, k)): output slot S
    sums ss * a[ii] * b[jj] over the splits of S into a k-subset I (slot
    ii) and the rest J (slot jj), ss being the sign of the shuffle (I, J).
    """
    rank_k, rank_l = _subset_rank(m, k), _subset_rank(m, l)
    rows = [
        [
            (rank_k[tuple(S[p] for p in pos)],
             rank_l[tuple(s for p, s in enumerate(S) if p not in pos)],
             _shuffle_sign(pos))
            for pos in combinations(range(k + l), k)
        ]
        for S in basis_subsets(m, k + l)
    ]
    t = np.asarray(rows, dtype=np.intp).reshape(len(rows), math.comb(k + l, k), 3)
    return t[..., 0], t[..., 1], t[..., 2]


@lru_cache(maxsize=None)
def _hodge_table(m: int, k: int):
    """Gather form of e_I -> sign * e_{I complement}: output slot C reads
    the slot of its complement I, times the parity of (I, C)."""
    rank_in = _subset_rank(m, k)
    src, sign = [], []
    for C in basis_subsets(m, m - k):
        I = tuple(i for i in range(m) if i not in C)
        src.append(rank_in[I])
        sign.append(_shuffle_sign(I))
    return np.asarray(src, dtype=np.intp), np.asarray(sign, dtype=np.intp)


def _coerce_coeffs(coeffs, n: int) -> np.ndarray:
    c = np.asarray(coeffs)
    if c.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {c.shape}")
    if c.dtype == object:
        return c
    return c.astype(np.complex128 if np.iscomplexobj(c) else np.float64)


@dataclass(frozen=True, eq=False)
class Multivector:
    """Dense element of the k-th exterior power of R^m (float or Fraction
    coefficients) or of C^m (complex coefficients)."""

    ambient_dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1 or self.degree < 0:
            raise ValueError("need ambient_dim >= 1 and degree >= 0")
        c = _coerce_coeffs(self.coeffs, exterior_dim(self.ambient_dim, self.degree))
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, m: int, k: int) -> "Multivector":
        return cls(m, k, np.zeros(exterior_dim(m, k)))

    @classmethod
    def from_vector(cls, v) -> "Multivector":
        v = np.asarray(v)
        return cls(len(v), 1, v)

    @classmethod
    def basis_blade(cls, m: int, indices: tuple[int, ...]) -> "Multivector":
        k = len(indices)
        c = np.zeros(exterior_dim(m, k))
        c[_subset_rank(m, k)[tuple(sorted(indices))]] = 1.0
        return cls(m, k, c)

    def norm(self) -> float:
        return norm(self)

    def __add__(self, other: "Multivector") -> "Multivector":
        if (self.ambient_dim, self.degree) != (other.ambient_dim, other.degree):
            raise ValueError("shape mismatch in multivector addition")
        return Multivector(self.ambient_dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-1) * other

    def __mul__(self, scalar) -> "Multivector":
        return Multivector(self.ambient_dim, self.degree, self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Multivector(m={self.ambient_dim}, k={self.degree}, {self.coeffs!r})"


def _split_exact(x):
    """The integer layout of an exact array: (num, den, top) with
    x == num / den[..., None], den holding one positive denominator per
    row along the last axis (the lcm of the row's denominators) and top
    the largest |num|.  num is int64 when top < 2^62, else an object
    array of Python ints; den is an object array of Python ints.  None
    unless x is an object array whose entries are all int or Fraction.
    """
    if x.dtype != object:
        return None
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1]).tolist()
    if not all(type(v) is Fraction or type(v) is int for row in rows for v in row):
        return None
    den = [math.lcm(*[v.denominator for v in row]) for row in rows]
    num = [v.numerator * (d // v.denominator) for row, d in zip(rows, den) for v in row]
    top = max(map(abs, num), default=0)
    num = np.array(num, dtype=np.int64 if top < _INT64_BOUND else object)
    return num.reshape(x.shape), np.array(den, dtype=object).reshape(x.shape[:-1]), top


def _join_exact(num, den) -> np.ndarray:
    """Fraction(num[r, j], den[r]) for (N, C) integers num and N
    denominators den: the inverse of ``_split_exact``."""
    return np.fromiter(
        (Fraction(n, d) for row, d in zip(num.tolist(), den.tolist()) for n in row),
        dtype=object, count=num.size).reshape(num.shape)


def _int_arrays(bound: int, *nums):
    """The numerator arrays in int64 when ``bound`` caps every entry,
    product and partial sum of the computation below 2^62, else as
    object arrays of Python ints."""
    dtype = np.int64 if bound < _INT64_BOUND else object
    return [n.astype(dtype, copy=False) for n in nums]


def _gather(a, b, m: int, k: int, l: int) -> np.ndarray:
    """Rows a[r] ^ b[r], gathered _ROW_BLOCK rows at a time into one
    output, which takes the first block's dtype and memory order, as a
    concatenation of the blocks would (later row sums depend on it)."""
    ii, jj, ss = _wedge_table(m, k, l)
    out = None
    for r in range(0, max(len(a), 1), _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        block = (a[rows, ii] * b[rows, jj] * ss).sum(axis=2)
        if out is None:
            out = np.empty_like(block, shape=(len(a), block.shape[1]))
        out[rows] = block
    return out


def _wedge(a, b, m: int, k: int, l: int, ia, ib) -> np.ndarray:
    """Rows a[ia] ^ b[ib]; exact lists are split before the rows are
    picked, so each generator is split once."""
    sa, sb = _split_exact(a), _split_exact(b)
    if sa is None or sb is None:
        return _gather(a[ia], b[ib], m, k, l)
    (na, da, top_a), (nb, db, top_b) = sa, sb
    na, nb = _int_arrays(math.comb(k + l, k) * max(top_a, 1) * max(top_b, 1), na, nb)
    return _join_exact(_gather(na[ia], nb[ib], m, k, l), da[ia] * db[ib])


def wedge_rows(a, b, m: int, k: int, l: int) -> np.ndarray:
    """Row-wise exterior products a[r] ^ b[r] in the exterior powers of R^m.

    a has shape (N, C(m, k)) and b shape (N, C(m, l)); the result has
    shape (N, C(m, k+l)), which is (N, 0) when k + l > m.  Float, complex
    and object (Fraction) rows all run through the same gather, exact
    rows on their integer numerators.
    """
    every = slice(None)
    return _wedge(np.asarray(a), np.asarray(b), m, k, l, every, every)


def wedge_pairs(a, b, m: int, k: int, l: int) -> np.ndarray:
    """Exterior products a[i] ^ b[j] of every row of a with every row of
    b, i in the outer order: shape (len(a) * len(b), C(m, k+l))."""
    a, b = np.asarray(a), np.asarray(b)
    ia, ib = np.divmod(np.arange(len(a) * len(b)), max(len(b), 1))
    return _wedge(a, b, m, k, l, ia, ib)


def _fold(V) -> np.ndarray:
    m = V.shape[2]
    out = V[:, 0, :]
    for t in range(1, V.shape[1]):
        out = _gather(out, V[:, t, :], m, t, 1)
    return out


def blade_rows(V) -> np.ndarray:
    """Simple blades V[r, 0] ^ ... ^ V[r, k-1] for a batch V of shape (N, k, m).

    Row r of the result holds the k x k minors of V[r], shape (N, C(m, k)).
    """
    V = np.asarray(V)
    split = _split_exact(V)
    if split is None:
        return _fold(V)
    num, den, top = split  # k! M^k bounds every minor the fold forms
    (num,) = _int_arrays(math.factorial(V.shape[1]) * max(top, 1) ** V.shape[1], num)
    return _join_exact(_fold(num), np.prod(den, axis=1))


def subset_blades(G, d: int, factor: int = 1) -> np.ndarray:
    """factor * G[s_1] ^ ... ^ G[s_d] for the d-subsets s_1 < ... < s_d
    of G's rows in lexicographic order: shape (C(N, d), C(m, d)).  Exact
    rows are split once, before the subsets are gathered."""
    G = np.asarray(G)
    blocks = _subset_blocks(len(G), d)
    split = _split_exact(G)
    if split is None:
        return np.concatenate([_fold(G[idx]) for idx in blocks]) * factor
    num, den, top = split
    (num,) = _int_arrays(factor * math.factorial(d) * max(top, 1) ** d, num)
    return np.concatenate([_join_exact(_fold(num[idx]) * factor, np.prod(den[idx], axis=1))
                           for idx in blocks])


def _subset_blocks(count: int, d: int):
    """The d-subsets of range(count) in lexicographic order, as index
    arrays of shape (rows, d) with at most _ROW_BLOCK rows; one empty
    block when there are no subsets."""
    subsets = np.fromiter(chain.from_iterable(combinations(range(count), d)),
                          dtype=np.intp).reshape(math.comb(count, d), d)
    for r in range(0, max(len(subsets), 1), _ROW_BLOCK):
        yield subsets[r:r + _ROW_BLOCK]


def hodge_rows(a, m: int, k: int) -> np.ndarray:
    """Row-wise Hodge star Λ^k -> Λ^{m-k}: one signed column permutation."""
    src, sign = _hodge_table(m, k)
    return np.asarray(a)[:, src] * sign


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product; complex if either factor is complex."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch in wedge")
    m, k, l = a.ambient_dim, a.degree, b.degree
    return Multivector(m, k + l, wedge_rows(a.coeffs[None], b.coeffs[None], m, k, l)[0])


def _vector_batch(vectors) -> np.ndarray:
    """Stack k vectors of one dimension as a batch of shape (1, k, m)."""
    if not vectors:
        raise ValueError("need at least one vector")
    vs = [np.asarray(v) for v in vectors]
    if any(len(v) != len(vs[0]) for v in vs):
        raise ValueError("vectors must share a dimension")
    return np.stack(vs)[None]


def blade_from_vectors(*vectors) -> Multivector:
    """Simple blade v1 ^ ... ^ vk; coefficients are the k x k minors."""
    V = _vector_batch(vectors)
    return Multivector(V.shape[2], V.shape[1], blade_rows(V)[0])


def hodge_star(a: Multivector) -> Multivector:
    """Hodge dual: the isometry Λ^k -> Λ^{m-k} with <u, v> = u ^ *v."""
    m, k = a.ambient_dim, a.degree
    if not 0 <= k <= m:
        raise ValueError("degree out of range for hodge star")
    return Multivector(m, m - k, hodge_rows(a.coeffs[None], m, k)[0])


def _exact_norm(row) -> float:
    """sqrt(sum x^2) of exact entries as a float: the exact sum s is
    scaled by 4^-k into [1/2, 4) before the float square root, which is
    then scaled by 2^k, so no step overflows or underflows on the way to
    a norm in the float range; ValueError for a norm past it, as
    ``_row_norms`` gives."""
    s = Fraction(sum(x * x for x in row))
    n, d = s.numerator, s.denominator
    k = (n.bit_length() - d.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(n / (d << 2 * k) if k >= 0 else (n << -2 * k) / d), k)
    except OverflowError:
        raise ValueError("generator entries and norms must be finite") from None


def _spoiled(norms):
    """Where a plain float norm's squares may have overflowed or underflowed."""
    return ~((norms >= 2.0 ** -511) & (norms < np.inf))


def _row_norms(g: np.ndarray) -> np.ndarray:
    """Row norms.  A float row whose plain norm is ``_spoiled`` (not finite
    or below 2^-511) is taken as m ||row / m||, m its largest |entry|,
    which no overflowing or underflowing square can spoil, so none raises
    a warning; ValueError for a non-finite entry or a norm past the
    float64 range.  Exact rows take ``_exact_norm``."""
    if g.dtype == object:
        return np.array([_exact_norm(row) for row in g])
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(g, axis=1)
    flagged = _spoiled(norms)
    if flagged.any():
        rows = g[flagged]
        m = np.abs(rows).max(axis=1, initial=0.0)
        # inf / inf, or a norm past float64: the row is refused below
        with np.errstate(invalid="ignore", over="ignore"):
            norms[flagged] = m * np.linalg.norm(rows / np.where(m > 0, m, 1.0)[:, None], axis=1)
        if not np.isfinite(norms).all():
            raise ValueError("generator entries and norms must be finite")
    return norms


def norm(a) -> float:
    """Euclidean coefficient norm; equals the spanned k-volume on blades.
    A ``_spoiled`` float norm, and an exact one, come from ``_row_norms``."""
    c = a.coeffs
    if c.dtype != object:
        with np.errstate(over="ignore"):
            plain = np.linalg.norm(c)
        if not _spoiled(plain):
            return float(plain)
    return float(_row_norms(c[None])[0])


def inner(a: Multivector, b: Multivector):
    """Euclidean scalar product of same-degree real multivectors."""
    if (a.ambient_dim, a.degree) != (b.ambient_dim, b.degree):
        raise ValueError("shape mismatch in inner product")
    if np.iscomplexobj(a.coeffs) or np.iscomplexobj(b.coeffs):
        raise ValueError("inner product needs real coefficients; realify complex ones")
    if a.coeffs.dtype == object or b.coeffs.dtype == object:
        return sum(x * y for x, y in zip(a.coeffs, b.coeffs))
    return float(np.dot(a.coeffs, b.coeffs))


def realify_rows(z) -> np.ndarray:
    """Norm-preserving real coordinates of complex rows: (re, im)
    interleaved along the last axis."""
    z = np.asarray(z)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def unrealify_rows(v) -> np.ndarray:
    """Inverse of :func:`realify_rows`: complex rows from (re, im)
    interleaved real coordinates along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    return v[..., 0::2] + 1j * v[..., 1::2]


def realify(a: Multivector) -> np.ndarray:
    """Norm-preserving real coordinates: (re, im) interleaved per slot."""
    return realify_rows(a.coeffs)


def unrealify(v, n: int, k: int) -> Multivector:
    """Inverse of :func:`realify` for given complex shape (n, k)."""
    v = np.asarray(v, dtype=np.float64)
    if len(v) != 2 * exterior_dim(n, k):
        raise ValueError("realified length does not match (n, k)")
    return Multivector(n, k, unrealify_rows(v))


# The complex names: the coefficients carry the field.
ComplexMultivector = Multivector
complex_wedge = wedge
complex_blade_from_vectors = blade_from_vectors
