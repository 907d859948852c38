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
twice the length, the float64 view of numpy's complex128 layout, and
``unrealify_rows`` is the inverse view; every other module reads and
writes that layout through these two, and none writes into their results.

Every product is one fold over structure tables, ``_product``: start
rows a[ia], then steps, each multiplying the rows so far with rows of
one more operand under a table (ii, jj, ss), output slot S summing
ss * x[ii] * y[jj] over its terms, one ``_gather`` of a block of rows at
a time.  A wedge table has C(k+l, k) signed terms per slot, the tensor
table (``algebra.tensor_product``) one and the contraction table
(``algebra.induced_map``) d.  The row-batched kernels are
thin calls of it on (N, C(m, k)) arrays of any of these dtypes:
``wedge_rows`` (row r with row r), ``wedge_pairs`` (every row with every
row, as the tensor product pairs them), ``blade_rows`` (the vectors of a
batch of matrices) and ``subset_blades`` (the d-subsets of a generator
list, each prefix wedged once: the blades of the t-subsets that start a
d-subset, level by level, each row the wedge of its parent with one more
generator).  The single-element functions (``wedge`` and the blades)
are one-row calls.

Exact arrays (int and Fraction entries) are split once per operand into
integer numerators over one denominator per array, the gathers run on
the numerators (int64 while one bound on every partial sum stays below
2^62, Python ints beyond), the output's denominator is the product of
its operands', and each output entry becomes one Fraction.
``_split_exact`` and ``_join_exact`` alone read and write that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

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
             (-1) ** sum(p - t for t, p in enumerate(pos)))
            for pos in combinations(range(k + l), k)
        ]
        for S in basis_subsets(m, k + l)
    ]
    t = np.asarray(rows, dtype=np.intp).reshape(len(rows), math.comb(k + l, k), 3)
    return t[..., 0], t[..., 1], t[..., 2]


@lru_cache(maxsize=None)
def _tensor_table(da: int, db: int):
    """Tensor table R^da x R^db -> R^(da db): slot i db + j sums the one
    term a[i] b[j], so a product of zero is +0.0, as in np.einsum."""
    ii, jj = np.indices((da, db)).reshape(2, da * db, 1)
    return ii, jj, np.ones_like(ii)


def _contraction_table(width: int, d: int):
    """Contraction table R^width x R^d -> R^(width / d), d >= 1: slot S sums
    the d terms x[S d + t] g[t], the last axis of x against g."""
    ii = np.arange(width).reshape(width // d, d)
    return ii, np.broadcast_to(np.arange(d), ii.shape), np.ones_like(ii)


@lru_cache(maxsize=None)
def _hodge_table(m: int, k: int):
    """Gather form of e_I -> sign * e_{I complement}: output slot C reads
    the slot of its complement I, times the parity of (I, C), which is
    the one slot of the wedge table Λ^k x Λ^{m-k} -> Λ^m reordered by C."""
    ii, jj, ss = _wedge_table(m, k, m - k)
    order = np.argsort(jj[0])
    return ii[0, order], ss[0, order]


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
    x == num / den, den the one positive denominator of the array (the
    lcm of its denominators, a Python int) and top the largest |num|.
    num is int64 when top < 2^62, else an object array of Python ints.
    None unless x is an object array whose entries are all int or Fraction.
    """
    if x.dtype != object:
        return None
    flat = x.ravel().tolist()
    if not all(type(v) is Fraction or type(v) is int for v in flat):
        return None
    den = math.lcm(*[v.denominator for v in flat])
    num = [v.numerator * (den // v.denominator) for v in flat]
    top = max(map(abs, num), default=0)
    num = np.array(num, dtype=np.int64 if top < _INT64_BOUND else object)
    return num.reshape(x.shape), den, top


def _join_exact(num, den: int) -> np.ndarray:
    """Fraction(n, den) for each entry n of the integer array num: the
    inverse of ``_split_exact``."""
    return np.fromiter((Fraction(n, den) for n in num.ravel().tolist()),
                       dtype=object, count=num.size).reshape(num.shape)


def _int_arrays(bound: int, *nums):
    """The numerator arrays in int64 when ``bound`` caps every entry,
    product and partial sum of the computation below 2^62, else as
    object arrays of Python ints."""
    dtype = np.int64 if bound < _INT64_BOUND else object
    return [n.astype(dtype, copy=False) for n in nums]


def _row_blocks(count: int, size: int = _ROW_BLOCK) -> list:
    """The fewest near-equal slices (lengths differ by at most one) of at
    most size rows that cover range(count) in order: no one-row block, whose
    terms numpy sums in another order, unless count is 1; one empty slice at 0."""
    n = -(-max(count, 1) // size)
    return [slice(i * count // n, (i + 1) * count // n) for i in range(n)]


def _gather(a, b, table, count: int, blocks) -> np.ndarray:
    """count rows of products of a[ia] and b[ib] under a structure table
    (ii, jj, ss) of shape (slots, terms), per block (rows, ia, ib) of at
    most _ROW_BLOCK output rows: a[ia] and b[ib] broadcast, flattened.
    The output takes the first block's dtype and memory order, as a
    concatenation of the blocks would (later row sums depend on it)."""
    ii, jj, ss = table
    out = None
    for rows, ia, ib in blocks:
        block = (a[ia][..., ii] * b[ib][..., jj] * ss).sum(axis=-1)
        block = block.reshape(rows.stop - rows.start, len(ii))
        if out is None:
            out = np.empty_like(block, shape=(count, len(ii)))
        out[rows] = block
    return out


def _product(a, ia, steps, factor: int = 1) -> np.ndarray:
    """factor * a[ia] * b_1 * ... * b_s: the rows a[ia] multiplied in turn
    by each step (b, table, count, blocks), one ``_gather`` of count rows
    under the structure table, in the blocks of the iterable blocks.

    When every operand is exact (an object array of ints and Fractions),
    each distinct one is split once, however often it enters; the gathers
    run on the numerators, in int64 while factor times each table's terms
    per slot (for wedges, the multinomial count of terms) times each
    factor's largest numerator stays below 2^62, and the denominator of
    the output is the product of its operands', one per step."""
    operands = {id(x): x for x in (a, *(b for b, _, _, _ in steps))} if a.dtype == object else {}
    split = {key: _split_exact(x) for key, x in operands.items()}
    if None in split.values():
        split = {}
    num = {}
    if split:
        bound, den = factor * max(split[id(a)][2], 1), split[id(a)][1]
        for b, (ii, _, _), _, _ in steps:
            bound *= ii.shape[1] * max(split[id(b)][2], 1)
            den *= split[id(b)][1]
        num = dict(zip(split, _int_arrays(bound, *(n for n, _, _ in split.values()))))
    out = num.get(id(a), a)[ia]
    for b, table, count, blocks in steps:
        out = _gather(out, num.get(id(b), b), table, count, blocks)
    if factor != 1:
        out *= factor  # in place: the output is the largest array here
    return _join_exact(out, den) if split else out


def wedge_rows(a, b, m: int, k: int, l: int) -> np.ndarray:
    """Row-wise exterior products a[r] ^ b[r] in the exterior powers of R^m.

    a has shape (N, C(m, k)) and b shape (N, C(m, l)); the result has
    shape (N, C(m, k+l)), which is (N, 0) when k + l > m.  Float, complex
    and object (Fraction) rows all run through the same gather, exact
    rows on their integer numerators.
    """
    a, b = np.asarray(a), np.asarray(b)
    blocks = [(rows, rows, rows) for rows in _row_blocks(len(a))]
    return _product(a, slice(None), [(b, _wedge_table(m, k, l), len(a), blocks)])


def _pairs(a, b, table) -> np.ndarray:
    """Row i len(b) + j is a[i] times b[j] under a structure table.  A block
    broadcasts one of the ``_row_blocks`` of a, indexed with shape (r, 1),
    against one of b's: all of b, or, when b fills more than one block, a
    near-equal slice of b against one row of a."""
    a, b = np.asarray(a), np.asarray(b)
    na, nb = len(a), len(b)
    cols = _row_blocks(nb)
    rows = _row_blocks(na, _ROW_BLOCK // max(cols[-1].stop - cols[-1].start, 1))

    def blocks():
        for i in rows:
            for j in cols:
                start = i.start * nb + j.start
                yield (slice(start, start + (i.stop - i.start) * (j.stop - j.start)),
                       np.arange(i.start, i.stop)[:, None], j)
    return _product(a, slice(None), [(b, table, na * nb, blocks())])


def wedge_pairs(a, b, m: int, k: int, l: int) -> np.ndarray:
    """Exterior products a[i] ^ b[j] of every row of a with every row of
    b, i in the outer order: shape (len(a) * len(b), C(m, k+l))."""
    return _pairs(a, b, _wedge_table(m, k, l))


def blade_rows(V) -> np.ndarray:
    """Simple blades V[r, 0] ^ ... ^ V[r, k-1] for a batch V of shape (N, k, m).

    Row r of the result holds the k x k minors of V[r], shape (N, C(m, k)).
    """
    V = np.asarray(V)
    n, k, m = V.shape
    steps = [(V, _wedge_table(m, t, 1), n, [(r, r, (r, t)) for r in _row_blocks(n)])
             for t in range(1, k)]
    return _product(V, (slice(None), 0), steps)


@lru_cache(maxsize=128)
def _prefix_tables(count: int, d: int) -> tuple:
    """The d-subsets of range(count) as a tree of their prefixes.  Level
    t (t = 1..d) lists, in lexicographic order, the t-subsets that extend
    to a d-subset: those whose largest index is at most count - d + t - 1.
    Entry t-1 is the pair (parent, new) of index arrays: row r of level t
    is row parent[r] of level t-1 (level 0 being the empty subset) and
    the index new[r].  Level d lists the C(count, d) subsets."""
    tables, new = [], np.array([-1])
    for t in range(d):  # a level-t row extends by every index in (new, count - d + t]
        width = np.maximum(count - d + t - new, 0)
        parent = np.repeat(np.arange(len(new)), width)
        first = np.cumsum(width) - width
        new = new[parent] + 1 + np.arange(len(parent)) - first[parent]
        parent.flags.writeable = new.flags.writeable = False
        tables.append((parent, new))
    return tuple(tables)


def _subset_tables(count: int, d: int) -> tuple:
    """``_prefix_tables``, kept for later calls only while C(count, d)
    fits one _ROW_BLOCK: no level is longer than its last, so a kept
    entry holds at most 2 d _ROW_BLOCK indices, whatever count is."""
    if math.comb(count, d) <= _ROW_BLOCK:
        return _prefix_tables(count, d)
    return _prefix_tables.__wrapped__(count, d)


def subset_blades(G, d: int, factor: int = 1) -> np.ndarray:
    """factor * G[s_1] ^ ... ^ G[s_d] for the d-subsets s_1 < ... < s_d
    of G's rows in lexicographic order: shape (C(N, d), C(m, d)), the one
    row factor of the empty subset when d = 0.  Each t-subset that starts
    a d-subset is wedged once, level by level (``_prefix_tables``), each
    row the wedge of its parent's blade with G[new], row for row through
    the gathers of ``blade_rows``.  A float row that ``_row_norms``
    refuses is a ValueError when d >= 1, also with no d-subsets."""
    G = np.asarray(G)
    if d == 0:
        return np.full((1, 1), factor, G.dtype)
    tables = _subset_tables(len(G), d)
    if G.dtype != object:
        _row_norms(G)
    steps = [(G, _wedge_table(G.shape[1], t, 1), len(n),
              [(r, p[r], n[r]) for r in _row_blocks(len(n))])
             for t, (p, n) in enumerate(tables[1:], 1)]
    return _product(G, tables[0][1], steps, factor)


def _subset_blocks(count: int, d: int):
    """The d-subsets of range(count) in lexicographic order, as index
    arrays of shape (rows, d) with at most _ROW_BLOCK rows, read off
    ``_prefix_tables``; one empty block when there are no subsets."""
    tables = _subset_tables(count, d)
    for rows in _row_blocks(math.comb(count, d)):
        at = np.arange(rows.start, rows.stop)
        idx = np.empty((len(at), d), dtype=np.intp)
        for t in reversed(range(d)):
            parent, new = tables[t]
            idx[:, t] = new[at]
            at = parent[at]
        yield idx


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
    """Norm-preserving real rows of complex rows, (re, im) interleaved: the
    float64 view of z's complex128 memory, which it may share with z."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)


def unrealify_rows(v) -> np.ndarray:
    """Inverse of :func:`realify_rows`, bit for bit: the complex128 view
    of v's float64 memory, which it may share with v."""
    return np.ascontiguousarray(v, dtype=np.float64).view(np.complex128)


def realify(a: Multivector) -> np.ndarray:
    """Norm-preserving real coordinates: (re, im) interleaved per slot."""
    return realify_rows(a.coeffs)


def unrealify(v, n: int, k: int) -> Multivector:
    """Inverse of :func:`realify` for given complex shape (n, k)."""
    if len(v) != 2 * exterior_dim(n, k):
        raise ValueError("realified length does not match (n, k)")
    return Multivector(n, k, unrealify_rows(v))


# The complex names: the coefficients carry the field.
ComplexMultivector = Multivector
complex_wedge = wedge
complex_blade_from_vectors = blade_from_vectors
