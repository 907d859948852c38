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

The J-volume of a zonotope P in C^n is the sum, over the n-subsets S of
its generators, of |det_C S|: the complex determinant of S's rows in the
structure's J-frame, the complex twin of volume = sum |det S|.  The
Kazarnovskii pseudovolume sums |det_C S|^2 / ||wedge S||, which is
||wedge S|| sigma^J(span S).  Both read ``_minors_and_norms``; a dependent
subset adds 0 by itself, so no span or tolerance is involved.  J must be
orthogonal.  For general polytopes the same weights multiply the supplied
n-faces' volumes and Monte Carlo normal angles, each normal cone given as
(C, W, tie) in its face's complement and sampled there (``_face_cone``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import exterior
from .algebra import _chain, _require_grading
from .exterior import realify_rows, unrealify_rows
from .sampling import SeedStream, _mc_mean_se, derive_seed
from .zonotope import (Zonotope, _finite_floats, _in_flat, _integer, _orthonormal_rows, _spans,
                       _unique_rows, _vertex_signs, canonicalize, length, zonotope)

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


@dataclass(frozen=True)
class ComplexStructure:
    """An orthogonal map J with J^2 = -Identity on R^(2n), and its read-only
    J-frame: orthonormal columns a_1, J a_1, ..., a_n, J a_n."""

    complex_dim: int
    J: np.ndarray
    frame: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        J = np.asarray(self.J, dtype=np.float64)
        n = self.complex_dim
        if J.shape != (2 * n, 2 * n):
            raise ValueError("J must be 2n x 2n")
        if max(np.max(np.abs(J @ J + np.eye(2 * n))), np.max(np.abs(J + J.T))) > J_SQUARE_TOL:
            raise ValueError("J must be antisymmetric with J^2 = -Identity (orthogonal)")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "frame", _j_frame(J))


def _j_frame(J: np.ndarray) -> np.ndarray:
    """Greedy J-frame: each a_k is the largest column of the projector
    onto the complement of the columns so far, normalized.  For the
    standard J every step is exact, and the frame is the identity."""
    m = len(J)
    F = np.zeros((m, 0))
    for _ in range(m // 2):
        P = np.eye(m) - F @ F.T
        a = P[:, np.argmax(np.diagonal(P))]
        a = a / np.linalg.norm(a)
        F = np.column_stack([F, a, J @ a])
    F.flags.writeable = False
    return F


@lru_cache(maxsize=None)
def standard_structure(n: int) -> ComplexStructure:
    """Multiplication by i in realified coordinates: (x, y) -> (-y, x).
    One object per n, built and checked once; its J is read-only."""
    struct = ComplexStructure(n, realify_rows(1j * unrealify_rows(np.eye(2 * n))).T)
    struct.J.flags.writeable = False
    return struct


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

    def members(self, G: np.ndarray) -> np.ndarray:
        """Mask of the rows of G lying in the subspace (``zonotope._in_flat``)."""
        return _in_flat(G, self.basis)


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
        # index arrays become lists of Python ints first, which _integer takes fastest
        faces = tuple(tuple(map(_integer, f.tolist() if isinstance(f, np.ndarray) else f))
                      for f in self.n_faces)
        for f in faces:
            if not f or max(f) >= V.shape[0] or min(f) < 0:
                raise ValueError("face refers to a missing vertex")
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "n_faces", faces)


def _complex_minors(G: np.ndarray, struct: ComplexStructure) -> np.ndarray:
    """|det_C S| for the n-subsets S of G's rows, in lexicographic order,
    in J-complex coordinates (the rows times the J-frame)."""
    return np.abs(exterior.subset_blades(unrealify_rows(G @ struct.frame),
                                         struct.complex_dim)[:, 0])


def _minors_and_norms(G: np.ndarray, struct: ComplexStructure):
    """``_complex_minors`` and ||wedge S|| for the same subsets S."""
    return (_complex_minors(G, struct),
            np.linalg.norm(exterior.subset_blades(G, struct.complex_dim), axis=1))


def sigma_J(E: Subspace, J=None) -> float:
    """sigma^J(E) = (|det_C B| / ||wedge B||)^2 for any basis B of the
    half-dimensional subspace E, which equals |det [b_1 .. b_n, Jb_1 ..
    Jb_n]| for an orthonormal one; in [0, 1] for an orthogonal J, 1 on
    Lagrangian planes and 0 when E contains a complex line.
    """
    struct = _structure(E.ambient_dim, J)
    if E.dim != struct.complex_dim:
        raise ValueError("sigma^J needs a half-dimensional subspace")
    dets, norms = _minors_and_norms(E.basis, struct)
    return float((dets[0] / norms[0]) ** 2)


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


def _float_canonical(P: Zonotope) -> Zonotope:
    return canonicalize(replace(P, generators=P.generators.astype(np.float64, copy=False)))


def _canonical(P: Zonotope, J):
    return _float_canonical(P).generators, _structure(P.ambient_dim, J)


def j_volume_zonotope(P: Zonotope, J=None) -> float:
    """vol_n^J(P): sum of |det_C S| over the n-subsets S of the canonical
    generators, which is the sum over generator spans E of
    vol_n(F_P(E)) sigma^J(E)^(1/2).

    Agrees with length(P^(^_C n)) / n! for the standard structure.
    """
    return float(np.sum(_complex_minors(*_canonical(P, J))))


def kazarnovskii_zonotope(P: Zonotope, J=None) -> float:
    """Kazarnovskii pseudovolume: the sum of |det_C S|^2 / ||wedge S||,
    that is of ||wedge S|| sigma^J(span S), a dependent S adding 0."""
    dets, norms = _minors_and_norms(*_canonical(P, J))
    return float(np.sum(np.divide(dets * dets, norms, out=np.zeros_like(norms),
                                  where=norms > 0.0)))


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


def _outside(P: Zonotope, E: Subspace):
    """The canonical generators of P outside E, in canonical order, and
    the orthonormal rows of E's complement."""
    G = _float_canonical(P).generators
    return G[~E.members(G)], E.complement().basis


def _face_frame(P: PolytopeFaceData, face: tuple):
    """A face of face data as orthonormal rows B spanning its direction
    span, its vertices about their centroid in B's coordinates, and its
    normal cone (C, W, tie) (``_face_cone``)."""
    fverts = P.vertices[list(face)]
    centroid = fverts.mean(axis=0)
    B = _orthonormal_rows(fverts - centroid)
    C = Subspace(P.ambient_dim, B).complement().basis
    # s @ C has unit length, so no |<s @ C, v>| exceeds the largest vertex norm.
    tie = 1e-12 * float(np.max(np.linalg.norm(P.vertices, axis=1)))
    return B, (fverts - centroid) @ B.T, (C, (centroid - P.vertices) @ C.T, tie)


def _face_cone(P, face):
    """The normal cone of a face of P as (C, W, tie): C's orthonormal rows
    span the complement of the face's direction span, and s @ C, for s in
    R^c, is in the cone when s @ W.T >= -tie throughout."""
    if isinstance(P, Zonotope):
        E, signs = face
        if not isinstance(E, Subspace):
            E = subspace_from_vectors(E, P.ambient_dim)
        outside, C = _outside(P, E)
        signs = np.asarray(signs, dtype=np.float64)
        if signs.shape != (outside.shape[0],):
            raise ValueError("sign vector must match the generators outside the span, "
                             "in canonical order")
        return C, (signs[:, None] * outside) @ C.T, 0.0
    if not isinstance(P, PolytopeFaceData):
        raise TypeError("P must be a Zonotope or PolytopeFaceData")
    if isinstance(face, (int, np.integer)):
        if not -len(P.n_faces) <= face < len(P.n_faces):
            raise ValueError(f"no face {face} among {len(P.n_faces)}")
        face = P.n_faces[face]
    else:  # a vertex list gets PolytopeFaceData's index check
        face = PolytopeFaceData(P.ambient_dim, P.vertices, (face,)).n_faces[0]
    return _face_frame(P, face)[2]


def normal_angle_mc(P, face, samples: int, seed: int = 0) -> tuple[float, float]:
    """Normalized normal angle Theta_P(F) with the Bessel-corrected
    standard error of its hit indicator.

    Samples s uniformly on the unit sphere of R^c, the coordinates of the
    face's complement (``_face_cone``); a hit is an s in the normal cone.
    A 0-sphere complement is handled exactly by checking both s = +-1 and
    counting hits/2 (error 0); larger complements need at least two
    samples.
    """
    return _cone_angle_mc(*_face_cone(P, face), samples, seed)


def _cone_angle_mc(C, W, tie, samples: int, seed: int) -> tuple[float, float]:
    """``normal_angle_mc`` of the normal cone (C, W, tie)."""
    c = len(C)
    if c == 0:
        raise ValueError("degenerate complement: the face spans the ambient space")

    def hits(S: np.ndarray) -> np.ndarray:
        return np.all(S @ W.T >= -tie, axis=1)

    if c == 1:
        return float(np.count_nonzero(hits(np.array([[1.0], [-1.0]])))) / 2.0, 0.0
    return _mc_mean_se(SeedStream(seed).derive("normal_angle"), samples,
                       lambda stream, size: hits(stream.sphere(size, c)).astype(np.float64))


def _face_volume(chart: np.ndarray, n: int) -> float:
    if n == 1:
        lo, hi = float(np.min(chart)), float(np.max(chart))
        return hi - lo
    from scipy.spatial import ConvexHull, QhullError

    try:
        return float(ConvexHull(chart).volume)
    except QhullError:
        return 0.0


def _polytope_mc_sum(P: PolytopeFaceData, samples, seed, J, power: int):
    """sum of vol_n(F) Theta_P(F) sigma^J(E_F)^(power/2) over the n-faces."""
    struct = _structure(P.ambient_dim, J)
    n = struct.complex_dim
    total = 0.0
    var = 0.0
    for fi, idx in enumerate(P.n_faces):
        B, chart, cone = _face_frame(P, idx)
        if B.shape[0] > n:
            raise ValueError(f"face {fi} spans more than {n} dimensions")
        if B.shape[0] < n:
            continue
        vol = _face_volume(chart, n)
        if vol == 0.0:
            continue
        dets, norms = _minors_and_norms(B, struct)
        w = float(dets[0] / norms[0]) ** power
        if w == 0.0:
            continue
        theta, se = _cone_angle_mc(*cone, samples, derive_seed(seed, "face", fi))
        total += vol * w * theta
        var += (vol * w * se) ** 2
    return total, math.sqrt(var)


def j_volume_polytope_mc(P: PolytopeFaceData, samples: int, seed: int = 0,
                         J=None) -> tuple[float, float]:
    """Monte Carlo J-volume from supplied n-faces:
    sum of vol_n(F) Theta_P(F) sigma^J(E_F)^(1/2), with propagated error.
    """
    return _polytope_mc_sum(P, samples, seed, J, 1)


def kazarnovskii_polytope_mc(P: PolytopeFaceData, samples: int, seed: int = 0,
                             J=None) -> tuple[float, float]:
    """Monte Carlo Kazarnovskii pseudovolume (sigma^J un-rooted)."""
    return _polytope_mc_sum(P, samples, seed, J, 2)


def zonotope_faces_for_span(P: Zonotope, E: Subspace) -> list[tuple]:
    """Sign vectors of the faces of P whose direction span is E, sorted.

    Each face with direction span E is a translate of the sub-zonotope
    of in-E generators by (1/2) sum of eps_k v_k over the generators
    outside E, in canonical order.  The realizable eps are the open cells
    of the central arrangement of the outside generators projected to
    E's complement (``_vertex_signs``).
    """
    outside, C = _outside(P, E)
    return [tuple(eps) for eps in _vertex_signs(outside @ C.T)]


def zonotope_face_data(P: Zonotope) -> PolytopeFaceData:
    """All n-faces of a zonotope in R^(2n) as explicit vertex data.

    The faces with direction span E, for each span of n independent
    generators, are the cells cut by the outside generators in E's
    complement; their vertices are the cells cut by the in-E generators
    in E (``_vertex_signs``).  Vertices are keyed by sign vector over the
    canonical generators, so no scale merges or splits them; they, and
    the faces of each span, are sorted by sign vector.  The faces do not
    depend on a complex structure, only on n.
    """
    if P.ambient_dim % 2:
        raise ValueError("n-faces need an even ambient dimension 2n")
    n = P.ambient_dim // 2
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
    """Inverse of face_data_to_dict; a null or non-finite vertex entry is a KeyError."""
    return PolytopeFaceData(_integer(d["ambient_dim"]), _finite_floats(d["vertices"]),
                            d["n_faces"])
