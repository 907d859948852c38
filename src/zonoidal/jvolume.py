"""Complex-structure volumes: sigma^J, complex wedges, mixed J-volume,
J-volume of zonotopes and of polytopes with supplied faces, and the
Kazarnovskii pseudovolume.

Complex vectors live in realified coordinates: z in C^n becomes the
interleaved real vector (Re z_1, Im z_1, ..., Re z_n, Im z_n), and the
standard complex structure J acts blockwise by (x, y) -> (-y, x).  A
zonotope whose generators are realified elements of the k-th complex
exterior power carries the tag ``cgrading=(n, k)``.  Complex wedges and
the mixed J-volume are ``algebra``'s wedge chain, which reads that tag
and wedges such bodies as complex rows over C^n.

The J-volume of a zonotope P in C^n sums, over the distinct spans E of
n independent generators, vol_n of the sub-zonotope of generators lying
in E times sigma^J(E)^(1/2); the Kazarnovskii pseudovolume uses
sigma^J(E) un-rooted.  Both are computed as one sum over the n-subsets
S of the generators of ||wedge S|| times the weight of sigma^J(span S),
which needs no span identification.  For general polytopes the same sum
runs over the supplied n-faces with a Monte Carlo normal-angle weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import exterior
from .algebra import _chain, _require_grading
from .exterior import realify_rows, unrealify_rows
from .sampling import SeedStream, chunk_sizes, derive_seed
from .zonotope import Zonotope, _lex_order, canonicalize, length, zonotope

__all__ = [
    "ComplexStructure",
    "Subspace",
    "PolytopeFaceData",
    "standard_structure",
    "sigma_J",
    "subspace_from_vectors",
    "embed_real_zonotope",
    "complex_zonotope",
    "complex_wedge_zonoids",
    "mixed_J_volume",
    "j_volume_zonotope",
    "kazarnovskii_zonotope",
    "normal_angle_mc",
    "j_volume_polytope_mc",
    "kazarnovskii_polytope_mc",
    "disc_zonotope",
    "zonotope_faces_for_span",
    "zonotope_face_data",
    "face_data_to_dict",
    "face_data_from_dict",
]

J_SQUARE_TOL = 1e-12
ORTHONORMAL_TOL = 1e-10
SPAN_MEMBER_TOL = 1e-9


@dataclass(frozen=True)
class ComplexStructure:
    """A linear map J with J^2 = -Identity on R^(2n)."""

    complex_dim: int
    J: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=np.float64)
        n = self.complex_dim
        if J.shape != (2 * n, 2 * n):
            raise ValueError("J must be 2n x 2n")
        if np.max(np.abs(J @ J + np.eye(2 * n))) > J_SQUARE_TOL:
            raise ValueError("J^2 must equal -Identity")
        object.__setattr__(self, "J", J)


def standard_structure(n: int) -> ComplexStructure:
    """Multiplication by i in realified coordinates: (x, y) -> (-y, x)."""
    return ComplexStructure(n, realify_rows(1j * unrealify_rows(np.eye(2 * n))).T)


def _structure(ambient_dim: int, J) -> ComplexStructure:
    if ambient_dim % 2:
        raise ValueError("complex structure needs even ambient dimension")
    if J is None:
        return standard_structure(ambient_dim // 2)
    if isinstance(J, ComplexStructure):
        if J.J.shape[0] != ambient_dim:
            raise ValueError("complex structure dimension mismatch")
        return J
    return ComplexStructure(ambient_dim // 2, np.asarray(J))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by orthonormal basis rows."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=np.float64)
        if B.ndim != 2 or B.shape[1] != self.ambient_dim:
            raise ValueError("basis rows must have length ambient_dim")
        gram = B @ B.T
        if B.shape[0] and np.max(np.abs(gram - np.eye(B.shape[0]))) > ORTHONORMAL_TOL:
            B = _orthonormal_rows(B, B.shape[0])
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def complement(self) -> "Subspace":
        _, _, Vt = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(self.ambient_dim, Vt[self.dim:])

    def contains(self, v, tol: float = SPAN_MEMBER_TOL) -> bool:
        return bool(self.members(np.asarray(v, dtype=np.float64)[None, :], tol)[0])

    def members(self, G: np.ndarray, tol: float = SPAN_MEMBER_TOL) -> np.ndarray:
        """Mask of the rows of G lying in the subspace (relative residual <= tol)."""
        resid = G - (G @ self.basis.T) @ self.basis
        return np.linalg.norm(resid, axis=1) <= tol * np.linalg.norm(G, axis=1)


def _orthonormal_rows(V: np.ndarray, expected_rank: int | None = None) -> np.ndarray:
    """Orthonormal row basis of the row span of V (SVD), rank-checked."""
    V = np.asarray(V, dtype=np.float64)
    U, s, Vt = np.linalg.svd(V, full_matrices=False)
    if s.size == 0:
        return Vt[:0]
    rank = int(np.sum(s > max(V.shape) * np.finfo(np.float64).eps * s[0]))
    if expected_rank is not None and rank < expected_rank:
        raise ValueError("rank-deficient basis")
    return Vt[:rank]


def subspace_from_vectors(vectors, ambient_dim: int | None = None) -> Subspace:
    V = np.asarray(vectors, dtype=np.float64)
    if ambient_dim is None:
        ambient_dim = V.shape[1]
    return Subspace(ambient_dim, _orthonormal_rows(V))


@dataclass(frozen=True)
class PolytopeFaceData:
    """Vertices of a polytope in R^(2n) plus its n-faces as index lists."""

    ambient_dim: int
    vertices: np.ndarray
    n_faces: tuple

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=np.float64)
        if V.size == 0:
            V = V.reshape(0, self.ambient_dim)
        if V.ndim != 2 or V.shape[1] != self.ambient_dim:
            raise ValueError("vertices must be rows of length ambient_dim")
        faces = tuple(tuple(int(i) for i in f) for f in self.n_faces)
        for f in faces:
            if not f or max(f) >= V.shape[0] or min(f) < 0:
                raise ValueError("face refers to a missing vertex")
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "n_faces", faces)


def _wedge_norms_and_sigmas(V: np.ndarray, J: np.ndarray):
    """For a batch V of shape (B, n, 2n): ||V[b, 0] ^ ... ^ V[b, n-1]||
    and sigma^J of the span of V[b]'s rows, from one QR V[b]^T = Q R:
    the norm is |prod diag R| and sigma^J = min(|det [Q, JQ]|, 1).
    A dependent V[b] has norm 0 up to rounding and an arbitrary sigma."""
    Q, R = np.linalg.qr(np.swapaxes(V, 1, 2))
    norms = np.abs(np.prod(np.diagonal(R, axis1=1, axis2=2), axis=1))
    sigmas = np.abs(np.linalg.det(np.concatenate([Q, J @ Q], axis=2)))
    return norms, np.minimum(sigmas, 1.0)


def sigma_J(E: Subspace, J=None) -> float:
    """sigma^J(E) = |det [b_1 .. b_n, Jb_1 .. Jb_n]| for an orthonormal
    basis of the half-dimensional subspace E; 1 exactly on Lagrangian
    planes, 0 exactly when E contains a complex line.
    """
    struct = _structure(E.ambient_dim, J)
    if E.dim != struct.complex_dim:
        raise ValueError("sigma^J needs a half-dimensional subspace")
    return float(_wedge_norms_and_sigmas(E.basis[None], struct.J)[1][0])


def embed_real_zonotope(K: Zonotope) -> Zonotope:
    """Embed a real zonotope in R^n into C^n (zero imaginary parts)."""
    if K.exact:
        K = canonicalize(K)
    out = realify_rows(K.generators.astype(np.float64))
    return canonicalize(zonotope(out, ambient_dim=2 * K.ambient_dim,
                                 cgrading=(K.ambient_dim, 1)))


def complex_zonotope(vectors, n: int | None = None) -> Zonotope:
    """Zonotope in C^n from complex generator rows (realified storage)."""
    Z = np.asarray(vectors, dtype=np.complex128)
    if Z.ndim == 1:
        Z = Z[None, :]
    if n is None:
        n = Z.shape[1]
    return canonicalize(zonotope(realify_rows(Z), ambient_dim=2 * n, cgrading=(n, 1)))


def complex_wedge_zonoids(*zonotopes: Zonotope) -> Zonotope:
    """Pairwise complex wedges of generators, realified and canonical:
    ``algebra``'s wedge chain of complex-graded bodies."""
    if not all(_require_grading(K)[2] for K in zonotopes):
        raise ValueError("complex wedge needs complex-graded zonotopes")
    return canonicalize(_chain(zonotopes))


def mixed_J_volume(*zonotopes: Zonotope) -> float:
    """MV^J(K_1, ..., K_n) = length(K_1 ^_C ... ^_C K_n) / n!.

    The length is read from the uncanonicalized last product: merging
    sign-aligned collinear generators does not change it.
    """
    if not zonotopes:
        raise ValueError("need at least one zonotope")
    n = _require_grading(zonotopes[0])[0]
    if any(_require_grading(K) != (n, 1, True) for K in zonotopes):
        raise ValueError("mixed J-volume expects degree-1 bodies in C^n")
    if len(zonotopes) != n:
        raise ValueError(f"mixed J-volume in C^{n} needs exactly {n} bodies")
    return float(length(_chain(zonotopes))) / math.factorial(n)


def _spans(A: np.ndarray, d: int) -> list:
    """Distinct spans of d independent rows of A, from one batched SVD per
    block of d-subsets, as (mask of the rows each contains, orthonormal
    rows of R^m whose first d span it), keyed by the mask.  The rank and
    membership tests are those of ``_orthonormal_rows`` and ``members``."""
    A = np.asarray(A, dtype=np.float64)
    rank_tol = max(d, A.shape[1]) * np.finfo(np.float64).eps
    norms = np.linalg.norm(A, axis=1)
    spans: dict[bytes, tuple] = {}
    for idx in exterior._subset_blocks(len(A), d):
        _, s, Vt = np.linalg.svd(A[idx], full_matrices=True)
        Vt = Vt[np.all(s > rank_tol * s[:, :1], axis=1)]
        B = Vt[:, :d]
        resid = A - (A @ np.swapaxes(B, 1, 2)) @ B
        members = np.linalg.norm(resid, axis=2) <= SPAN_MEMBER_TOL * norms
        for mask, V in zip(members, Vt):
            spans.setdefault(mask.tobytes(), (mask, V))
    return list(spans.values())


def _independent_spans(P: Zonotope, n: int) -> list[Subspace]:
    """Distinct n-dimensional generator spans as Subspaces (``_spans``)."""
    return [Subspace(P.ambient_dim, V[:n]) for _, V in _spans(P.generators, n)]


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


def _float_canonical(P: Zonotope) -> Zonotope:
    return canonicalize(replace(P, generators=P.generators.astype(np.float64, copy=False)))


def _j_volume_sum(P: Zonotope, J, weight) -> float:
    """sum of ||wedge S|| weight(sigma^J(span S)) over the n-subsets S
    of the canonical generators (see the module docstring)."""
    if P.ambient_dim % 2:
        raise ValueError("J-volume needs even ambient dimension")
    struct = _structure(P.ambient_dim, J)
    G = _float_canonical(P).generators
    total = 0.0
    for idx in exterior._subset_blocks(len(G), struct.complex_dim):
        norms, sigmas = _wedge_norms_and_sigmas(G[idx], struct.J)
        total += float(norms @ weight(sigmas))
    return total


def j_volume_zonotope(P: Zonotope, J=None) -> float:
    """vol_n^J(P): sum over generator spans E of vol_n(F_P(E)) sigma^J(E)^(1/2).

    Agrees with length(P^(^_C n)) / n! for the standard structure.
    """
    return _j_volume_sum(P, J, np.sqrt)


def kazarnovskii_zonotope(P: Zonotope, J=None) -> float:
    """Kazarnovskii pseudovolume: the same sum with sigma^J un-rooted."""
    return _j_volume_sum(P, J, lambda s: s)


def disc_zonotope(z, q: int) -> Zonotope:
    """Polygonal model of the disc zonoid D_z = K(unit-circle multiples of z).

    Generators (pi/q) e^(theta J) z over theta = j pi / q, j = 0..q-1;
    the half turn suffices by central symmetry.  length == pi ||z|| at
    every q; the Hausdorff error against the true disc is O(||z||/q^2).
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    n = z.shape[0]
    if not np.any(z != 0):
        warnings.warn("disc of the zero vector is {0}", stacklevel=2)
        return zonotope([], ambient_dim=2 * n, cgrading=(n, 1))
    thetas = np.pi * np.arange(q) / q
    rows = (np.pi / q) * np.exp(1j * thetas)[:, None] * z[None, :]
    return canonicalize(zonotope(realify_rows(rows), ambient_dim=2 * n, cgrading=(n, 1)))


def _face_membership_counter(P, face):
    """Return (complement Subspace, hit predicate) for a face of P."""
    if isinstance(P, Zonotope):
        E, signs = face
        if not isinstance(E, Subspace):
            E = subspace_from_vectors(E, P.ambient_dim)
        P = _float_canonical(P)
        outside = P.generators[~E.members(P.generators)]
        signs = np.asarray(signs, dtype=np.float64)
        if signs.shape != (outside.shape[0],):
            raise ValueError(
                "sign vector must match the generators outside the span, "
                "in canonical order"
            )

        def hits(U: np.ndarray) -> np.ndarray:
            dots = U @ outside.T
            return np.all(dots * signs > 0.0, axis=1)

        return E.complement(), hits

    if isinstance(P, PolytopeFaceData):
        idx = P.n_faces[int(face)] if isinstance(face, (int, np.integer)) else face
        idx = list(idx)
        verts = P.vertices
        fverts = verts[idx]
        centroid = fverts.mean(axis=0)
        E = Subspace(P.ambient_dim, _orthonormal_rows(fverts - centroid))
        # U has unit rows, so no |<u, v>| exceeds the largest vertex norm.
        tie = 1e-12 * float(np.max(np.linalg.norm(verts, axis=1)))

        def hits(U: np.ndarray) -> np.ndarray:
            all_dots = U @ verts.T
            return all_dots[:, idx].min(axis=1) >= all_dots.max(axis=1) - tie

        return E.complement(), hits

    raise TypeError("P must be a Zonotope or PolytopeFaceData")


def normal_angle_mc(P, face, samples: int, seed: int = 0) -> tuple[float, float]:
    """Normalized normal angle Theta_P(F) with its binomial standard error.

    Samples directions uniformly on the unit sphere of the orthogonal
    complement of the face's direction span; a hit is a direction whose
    maximizing face is F.  A 0-sphere complement is handled exactly by
    checking both antipodal directions and counting hits/2 (error 0).
    """
    comp, hits = _face_membership_counter(P, face)
    c = comp.dim
    if c == 0:
        raise ValueError("degenerate complement: the face spans the ambient space")
    if c == 1:
        U = np.vstack([comp.basis, -comp.basis])
        return float(np.count_nonzero(hits(U))) / 2.0, 0.0
    if samples < 1:
        raise ValueError("need at least one sample")
    stream = SeedStream(seed).derive("normal_angle")
    hit_count = 0
    for ci, size in enumerate(chunk_sizes(samples)):
        pts = stream.derive(ci).sphere(size, c)
        U = pts @ comp.basis
        hit_count += int(np.count_nonzero(hits(U)))
    p = hit_count / samples
    se = math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return p, se


def _face_volume(chart: np.ndarray, n: int) -> float:
    if n == 1:
        lo, hi = float(np.min(chart)), float(np.max(chart))
        return hi - lo
    from scipy.spatial import ConvexHull, QhullError

    try:
        return float(ConvexHull(chart).volume)
    except QhullError:
        return 0.0


def _polytope_mc_sum(P: PolytopeFaceData, samples, seed, J, weight):
    struct = _structure(P.ambient_dim, J)
    n = struct.complex_dim
    total = 0.0
    var = 0.0
    for fi, idx in enumerate(P.n_faces):
        fverts = P.vertices[list(idx)]
        centroid = fverts.mean(axis=0)
        B = _orthonormal_rows(fverts - centroid)
        if B.shape[0] > n:
            raise ValueError(f"face {fi} spans more than {n} dimensions")
        if B.shape[0] < n:
            continue
        E = Subspace(P.ambient_dim, B)
        vol = _face_volume((fverts - centroid) @ B.T, n)
        if vol == 0.0:
            continue
        w = weight(sigma_J(E, struct))
        if w == 0.0:
            continue
        theta, se = normal_angle_mc(P, list(idx), samples,
                                    seed=derive_seed(seed, "face", fi))
        total += vol * w * theta
        var += (vol * w * se) ** 2
    return total, math.sqrt(var)


def j_volume_polytope_mc(P: PolytopeFaceData, samples: int, seed: int = 0,
                         J=None) -> tuple[float, float]:
    """Monte Carlo J-volume from supplied n-faces:
    sum of vol_n(F) Theta_P(F) sigma^J(E_F)^(1/2), with propagated error.
    """
    return _polytope_mc_sum(P, samples, seed, J, math.sqrt)


def kazarnovskii_polytope_mc(P: PolytopeFaceData, samples: int, seed: int = 0,
                             J=None) -> tuple[float, float]:
    """Monte Carlo Kazarnovskii pseudovolume (sigma^J un-rooted)."""
    return _polytope_mc_sum(P, samples, seed, J, lambda s: s)


def zonotope_faces_for_span(P: Zonotope, E: Subspace) -> list[tuple]:
    """Sign vectors of the faces of P whose direction span is E, sorted.

    Each face with direction span E is a translate of the sub-zonotope
    of in-E generators by (1/2) sum of eps_k v_k over the generators
    outside E, in canonical order.  The realizable eps are the open cells
    of the central arrangement of the outside generators projected to
    E's complement (``_vertex_signs``).
    """
    G = _float_canonical(P).generators
    outside = G[~E.members(G)]
    return [tuple(eps) for eps in _vertex_signs(outside @ E.complement().basis.T)]


def zonotope_face_data(P: Zonotope, J=None) -> PolytopeFaceData:
    """All n-faces of a zonotope in R^(2n) as explicit vertex data.

    The faces with direction span E, for each span of n independent
    generators, are the cells cut by the outside generators in E's
    complement; their vertices are the cells cut by the in-E generators
    in E (``_vertex_signs``).  Vertices are keyed by sign vector over the
    canonical generators, so no scale merges or splits them; they, and
    the faces of each span, are sorted by sign vector.
    """
    n = _structure(P.ambient_dim, J).complex_dim
    G = _float_canonical(P).generators
    signs, sizes = [], []
    for mask, V in _spans(G, n):
        faces = _vertex_signs(G[~mask] @ V[n:].T)
        inside = _vertex_signs(G[mask] @ V[:n].T)
        block = np.empty((len(faces), len(inside), len(G)))
        block[:, :, ~mask] = faces[:, None, :]
        block[:, :, mask] = inside
        signs.append(block.reshape(-1, len(G)))
        sizes += [len(inside)] * len(faces)
    if not signs:
        return PolytopeFaceData(P.ambient_dim, np.zeros((0, P.ambient_dim)), ())
    verts, index = _unique_rows(np.concatenate(signs))
    faces = np.split(index, np.cumsum(sizes)[:-1])
    return PolytopeFaceData(P.ambient_dim, 0.5 * verts @ G, faces)


def face_data_to_dict(P: PolytopeFaceData) -> dict:
    return {
        "ambient_dim": P.ambient_dim,
        "vertices": [[float(x) for x in v] for v in P.vertices],
        "n_faces": [list(f) for f in P.n_faces],
    }


def face_data_from_dict(d: dict) -> PolytopeFaceData:
    return PolytopeFaceData(int(d["ambient_dim"]), d["vertices"], d["n_faces"])
