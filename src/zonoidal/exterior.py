"""Multilinear algebra in real and complex exterior powers.

An element of the k-th exterior power of R^m is stored densely as a
vector of C(m, k) coefficients, indexed by the k-element subsets of
{0, ..., m-1} in lexicographic order.  Coefficients are float64 by
default; arrays of Fraction (numpy object dtype) are accepted
everywhere for exact arithmetic on rational inputs.

The complex variant stores C(n, k) complex128 coefficients for the
k-th complex exterior power of C^n.  ``realify`` maps it isometrically
onto R^{2 C(n,k)} by interleaving (real, imaginary) parts.

Every product runs through one row-batched kernel, ``wedge_rows``,
acting on (N, C(m, k)) arrays of any of these dtypes; ``blade_rows``
folds it over the vectors of a batch of matrices, and the single-element
functions (``wedge``, ``complex_wedge``, the blades) are one-row calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

__all__ = [
    "Multivector",
    "ComplexMultivector",
    "wedge_rows",
    "blade_rows",
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
    "exterior_dim",
    "basis_subsets",
]


# rows per gather in wedge_rows: bounds its (rows, C(m, k+l), C(k+l, k))
# temporaries to a few megabytes however many rows a product has
_ROW_BLOCK = 4096


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


def _coerce_coeffs(coeffs, n: int, complex_ok: bool = False) -> np.ndarray:
    c = np.asarray(coeffs)
    if c.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {c.shape}")
    if c.dtype == object:
        return c
    if complex_ok:
        return c.astype(np.complex128)
    if np.iscomplexobj(c):
        raise ValueError("complex coefficients in a real multivector")
    return c.astype(np.float64)


@dataclass(frozen=True, eq=False)
class Multivector:
    """Dense element of the k-th exterior power of R^m."""

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


@dataclass(frozen=True, eq=False)
class ComplexMultivector:
    """Dense element of the k-th complex exterior power of C^n."""

    ambient_complex_dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = exterior_dim(self.ambient_complex_dim, self.degree)
        c = _coerce_coeffs(self.coeffs, n, complex_ok=True)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, n: int, k: int) -> "ComplexMultivector":
        return cls(n, k, np.zeros(exterior_dim(n, k), dtype=np.complex128))

    @classmethod
    def from_vector(cls, z) -> "ComplexMultivector":
        z = np.asarray(z, dtype=np.complex128)
        return cls(len(z), 1, z)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __mul__(self, scalar) -> "ComplexMultivector":
        return ComplexMultivector(self.ambient_complex_dim, self.degree, self.coeffs * scalar)

    __rmul__ = __mul__

    def __add__(self, other: "ComplexMultivector") -> "ComplexMultivector":
        if (self.ambient_complex_dim, self.degree) != (other.ambient_complex_dim, other.degree):
            raise ValueError("shape mismatch in multivector addition")
        return ComplexMultivector(self.ambient_complex_dim, self.degree, self.coeffs + other.coeffs)

    def __repr__(self):
        return f"ComplexMultivector(n={self.ambient_complex_dim}, k={self.degree}, {self.coeffs!r})"


def wedge_rows(a, b, m: int, k: int, l: int) -> np.ndarray:
    """Row-wise exterior products a[r] ^ b[r] in the exterior powers of R^m.

    a has shape (N, C(m, k)) and b shape (N, C(m, l)); the result has
    shape (N, C(m, k+l)), which is (N, 0) when k + l > m.  Float, complex
    and object (Fraction) rows all run through the same gather.
    """
    ii, jj, ss = _wedge_table(m, k, l)
    a, b = np.asarray(a), np.asarray(b)
    return np.concatenate([
        (a[r:r + _ROW_BLOCK, ii] * b[r:r + _ROW_BLOCK, jj] * ss).sum(axis=2)
        for r in range(0, max(len(a), 1), _ROW_BLOCK)
    ])


def blade_rows(V) -> np.ndarray:
    """Simple blades V[r, 0] ^ ... ^ V[r, k-1] for a batch V of shape (N, k, m).

    Row r of the result holds the k x k minors of V[r], shape (N, C(m, k)).
    """
    V = np.asarray(V)
    m = V.shape[2]
    out = V[:, 0, :]
    for t in range(1, V.shape[1]):
        out = wedge_rows(out, V[:, t, :], m, t, 1)
    return out


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
    """Exterior product of two real multivectors."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch in wedge")
    m, k, l = a.ambient_dim, a.degree, b.degree
    return Multivector(m, k + l, wedge_rows(a.coeffs[None], b.coeffs[None], m, k, l)[0])


def complex_wedge(a: ComplexMultivector, b: ComplexMultivector) -> ComplexMultivector:
    """Complex-bilinear exterior product."""
    if a.ambient_complex_dim != b.ambient_complex_dim:
        raise ValueError("complex ambient dimension mismatch in wedge")
    n, k, l = a.ambient_complex_dim, a.degree, b.degree
    return ComplexMultivector(n, k + l, wedge_rows(a.coeffs[None], b.coeffs[None], n, k, l)[0])


def _vector_batch(vectors, dtype=None) -> np.ndarray:
    """Stack k vectors of one dimension as a batch of shape (1, k, m)."""
    if not vectors:
        raise ValueError("need at least one vector")
    vs = [np.asarray(v, dtype=dtype) for v in vectors]
    if any(len(v) != len(vs[0]) for v in vs):
        raise ValueError("vectors must share a dimension")
    return np.stack(vs)[None]


def blade_from_vectors(*vectors) -> Multivector:
    """Simple blade v1 ^ ... ^ vk; coefficients are the k x k minors."""
    V = _vector_batch(vectors)
    return Multivector(V.shape[2], V.shape[1], blade_rows(V)[0])


def complex_blade_from_vectors(*vectors) -> ComplexMultivector:
    """Complex simple blade z1 ^ ... ^ zk."""
    V = _vector_batch(vectors, np.complex128)
    return ComplexMultivector(V.shape[2], V.shape[1], blade_rows(V)[0])


def hodge_star(a: Multivector) -> Multivector:
    """Hodge dual: the isometry Λ^k -> Λ^{m-k} with <u, v> = u ^ *v."""
    m, k = a.ambient_dim, a.degree
    if not 0 <= k <= m:
        raise ValueError("degree out of range for hodge star")
    return Multivector(m, m - k, hodge_rows(a.coeffs[None], m, k)[0])


def norm(a) -> float:
    """Euclidean coefficient norm; equals the spanned k-volume on blades."""
    c = a.coeffs
    if c.dtype == object:
        return math.sqrt(float(sum(x * x for x in c)))
    return float(np.linalg.norm(c))


def inner(a: Multivector, b: Multivector):
    """Euclidean scalar product of same-degree multivectors."""
    if (a.ambient_dim, a.degree) != (b.ambient_dim, b.degree):
        raise ValueError("shape mismatch in inner product")
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


def realify(a: ComplexMultivector) -> np.ndarray:
    """Norm-preserving real coordinates: (re, im) interleaved per slot."""
    return realify_rows(a.coeffs)


def unrealify(v, n: int, k: int) -> ComplexMultivector:
    """Inverse of :func:`realify` for given complex shape (n, k)."""
    v = np.asarray(v, dtype=np.float64)
    if len(v) != 2 * exterior_dim(n, k):
        raise ValueError("realified length does not match (n, k)")
    return ComplexMultivector(n, k, v[0::2] + 1j * v[1::2])
