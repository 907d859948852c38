"""Complex-structure volumes: sigma^J, complex wedges, mixed J-volume,
J-volume of zonotopes and of polytopes with supplied faces, and the
Kazarnovskii pseudovolume.

Complex vectors live in realified coordinates: z in C^n becomes the
interleaved real vector (Re z_1, Im z_1, ..., Re z_n, Im z_n), and the
complex structure J is multiplication by i, blockwise (x, y) -> (-y, x);
another orthogonal structure enters as the rows in its ``j_frame``.  A
zonotope whose generators are realified elements of the k-th complex
exterior power carries the tag ``cgrading=(n, k)``.  Complex wedges and
the mixed J-volume are ``algebra``'s wedge chain, which reads that tag
and wedges such bodies as complex rows over C^n.

The J-volume of a zonotope P in C^n is the sum, over the n-subsets S of
its generators, of |det_C S|: the complex determinant of S's rows read
as complex rows, the complex twin of volume = sum |det S|.  The
Kazarnovskii pseudovolume sums |det_C S|^2 / ||wedge S||, which is
||wedge S|| sigma^J(span S).  Both read ``_minors_and_norms``; a dependent
subset adds 0 by itself, so no span or tolerance is involved.  For
general polytopes the same weights multiply the supplied n-faces'
volumes and Monte Carlo normal angles, each normal cone given as (C, W)
in its face's complement and sampled there (``_face_cone``); a face
whose span holds a complex line, by the flat rank rule, has weight 0
and samples no angle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import exterior
from .algebra import _chain, _graded, _require_grading
from .exterior import _row_norms, realify_rows, unrealify_rows
from .sampling import SeedStream, _mc_mean_se, derive_seed
from .zonotope import (Zonotope, _finite_floats, _in_flat, _integer, _orthonormal_rows,
                       _significant, _spans, _unique_rows, _vertex_signs, _vertex_signs_many,
                       canonicalize, length)

__all__ = [
    "Subspace",
    "PolytopeFaceData",
    "j_frame",
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


def j_frame(J) -> np.ndarray:
    """The J-frame of an orthogonal complex structure J on R^(2n):
    orthonormal columns a_1, J a_1, ..., a_n, J a_n, each a_k the largest
    column of the projector onto the complement of the columns so far,
    normalized.  The frame carries J to C^n's own i, so the functionals
    under J are those of the rows ``P.generators @ j_frame(J)`` (a
    subspace: ``E.basis @ j_frame(J)``).  For the blockwise (x, y) -> (-y,
    x), multiplication by i, every step is exact and the frame is the
    identity.  J must be 2n x 2n and antisymmetric with J^2 = -Identity,
    within J_SQUARE_TOL."""
    J = np.asarray(J, dtype=np.float64)
    m = len(J) if J.ndim == 2 else 0
    if m == 0 or m % 2 or J.shape != (m, m):
        raise ValueError("J must be 2n x 2n with n >= 1")
    if max(np.max(np.abs(J @ J + np.eye(m))), np.max(np.abs(J + J.T))) > J_SQUARE_TOL:
        raise ValueError("J must be antisymmetric with J^2 = -Identity (orthogonal)")
    F = np.zeros((m, 0))
    for _ in range(m // 2):
        P = np.eye(m) - F @ F.T
        a = P[:, np.argmax(np.diagonal(P))]
        a = a / np.linalg.norm(a)
        F = np.column_stack([F, a, J @ a])
    return F


def _complex_dim(ambient_dim: int) -> int:
    """n for R^(2n) = C^n; an odd ambient dimension is a ValueError."""
    if ambient_dim % 2:
        raise ValueError("C^n needs an even ambient dimension 2n")
    return ambient_dim // 2


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
    """Vertices of a polytope in R^(2n), no two equal, plus its n-faces as index lists."""

    ambient_dim: int
    vertices: np.ndarray
    n_faces: tuple

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=np.float64)
        if V.size == 0:
            V = V.reshape(0, self.ambient_dim)
        if V.ndim != 2 or V.shape[1] != self.ambient_dim:
            raise ValueError("vertices must be rows of length ambient_dim")
        faces = tuple(map(_face_indices, self.n_faces))
        for f in faces:
            if not f or max(f) >= V.shape[0] or min(f) < 0:
                raise ValueError("face refers to a missing vertex")
        if len(_unique_rows(V)[0]) < len(V):
            raise ValueError("two vertex rows are equal")
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "n_faces", faces)


def _face_indices(f) -> tuple:
    """A face as a tuple of Python ints: a 1-D integer array by one dtype
    check (its tolist() holds ints), anything else by ``_integer`` per entry."""
    if isinstance(f, np.ndarray) and f.ndim == 1 and f.dtype.kind in "iu":
        return tuple(f.tolist())
    return tuple(map(_integer, f.tolist() if isinstance(f, np.ndarray) else f))


def _complex_minors(G: np.ndarray, n: int) -> np.ndarray:
    """|det_C S| for the n-subsets S of G's rows read as complex rows of
    C^n, in lexicographic order.  A row of G that ``_row_norms`` refuses
    is a ValueError, also with no n-subsets."""
    _row_norms(G)
    return np.abs(exterior.subset_blades(unrealify_rows(G), n)[:, 0])


def _minors_and_norms(G: np.ndarray, n: int):
    """``_complex_minors`` and ||wedge S|| for the same subsets S."""
    return _complex_minors(G, n), _row_norms(exterior.subset_blades(G, n))


def _j_weight(B: np.ndarray) -> float:
    """|det_C B| / ||wedge B|| for n independent rows B in C^n, the square
    root of sigma^J(span B); exactly 0.0 when the span holds a complex
    line, by the flat rank rule: [B; iB] has ``_significant`` rank below 2n."""
    n = B.shape[1] // 2
    s = np.linalg.svd(np.vstack([B, realify_rows(1j * unrealify_rows(B))]), compute_uv=False)
    if np.count_nonzero(_significant(s)) < 2 * n:
        return 0.0
    dets, norms = _minors_and_norms(B, n)
    return float(dets[0] / norms[0])


def sigma_J(E: Subspace) -> float:
    """sigma^J(E) = (|det_C B| / ||wedge B||)^2 for any basis B of the
    half-dimensional subspace E, which equals |det [b_1 .. b_n, ib_1 ..
    ib_n]| for an orthonormal one; in [0, 1], 1 on Lagrangian planes and
    exactly 0 when E contains a complex line (``_j_weight``).
    """
    if E.dim != _complex_dim(E.ambient_dim):
        raise ValueError("sigma^J needs a half-dimensional subspace")
    r = _j_weight(E.basis)
    return r * r


def embed_real_zonotope(K: Zonotope) -> Zonotope:
    """Embed a real zonotope in R^n into C^n (zero imaginary parts)."""
    return complex_zonotope(K.generators.astype(np.float64), K.ambient_dim)


def complex_zonotope(vectors, n: int | None = None) -> Zonotope:
    """Zonotope in C^n from complex generator rows (realified storage)."""
    Z = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
    return canonicalize(_graded(Z, Z.shape[1] if n is None else n, 1, True))


def complex_wedge_zonoids(*zonotopes: Zonotope) -> Zonotope:
    """Pairwise complex wedges of generators, realified and canonical:
    ``algebra``'s wedge chain of complex-graded bodies.  A degree-1 body
    passed r times (or equal copies of it) enters as its r-th power, the
    r-subsets of its generators, so P ^_C P has C(N, 2) generators before
    the merge, and no g ^ g = 0 rows."""
    if not all(_require_grading(K)[2] for K in zonotopes):
        raise ValueError("complex wedge needs complex-graded zonotopes")
    return canonicalize(_chain(zonotopes))


def mixed_J_volume(*zonotopes: Zonotope) -> float:
    """MV^J(K_1, ..., K_n) = length(K_1 ^_C ... ^_C K_n) / n!.

    The length is read from the uncanonicalized last product: merging
    sign-aligned collinear generators does not change it.  A body passed
    r times (or equal copies of it) is wedged as its r-th power (``_chain``),
    so the J-volume ``mixed_J_volume(*[P] * n)`` reads C(N, n) subset
    rows, not N^n ordered tuples.
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


def j_volume_zonotope(P: Zonotope) -> float:
    """vol_n^J(P): sum of |det_C S| over the n-subsets S of the generators
    as given, which is the sum over generator spans E of
    vol_n(F_P(E)) sigma^J(E)^(1/2).

    Agrees with length(P^(^_C n)) / n!.
    """
    G = P.generators.astype(np.float64, copy=False)
    return float(np.sum(_complex_minors(G, _complex_dim(P.ambient_dim))))


def kazarnovskii_zonotope(P: Zonotope) -> float:
    """Kazarnovskii pseudovolume: the sum of |det_C S|^2 / ||wedge S||,
    that is of ||wedge S|| sigma^J(span S), a dependent S adding 0.  Each
    term is |det_C S| times sigma^J(span S)^(1/2) <= 1, so no step
    overflows or underflows where the value is a normal float."""
    G = P.generators.astype(np.float64, copy=False)
    dets, norms = _minors_and_norms(G, _complex_dim(P.ambient_dim))
    return float(np.sum(dets * np.divide(dets, norms, out=np.zeros_like(norms),
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
    if not np.any(z != 0):  # its zero rows merge away
        warnings.warn("disc of the zero vector is {0}", stacklevel=2)
    thetas = np.pi * np.arange(q) / q
    return complex_zonotope((np.pi / q) * np.exp(1j * thetas)[:, None] * z[None, :], len(z))


def _outside(P: Zonotope, E: Subspace):
    """The canonical generators of P outside E, in canonical order, and
    the orthonormal rows of E's complement."""
    G = _float_canonical(P).generators
    return G[~E.members(G)], E.complement().basis


def _face_frame(P: PolytopeFaceData, face: tuple):
    """A face of face data as orthonormal rows B spanning its direction
    span, its vertices about their centroid in B's coordinates, and its
    normal cone (C, W) (``_face_cone``), W from the vertices outside it."""
    fverts = P.vertices[list(face)]
    centroid = fverts.mean(axis=0)
    B = _orthonormal_rows(fverts - centroid)
    C = Subspace(P.ambient_dim, B).complement().basis
    return B, (fverts - centroid) @ B.T, (C, (centroid - np.delete(P.vertices, face, 0)) @ C.T)


def _face_cone(P, face):
    """The normal cone of a face of P as (C, W): C's orthonormal rows span
    the complement of the face's direction span, W's rows are the signed
    generators outside a zonotope face's span, or the centroid minus each
    vertex outside a face of face data, in C's coordinates, and s @ C, for
    s in R^c, is in the cone when s @ W.T >= 0 throughout, with no tie."""
    if isinstance(P, Zonotope):
        E, signs = face
        if not isinstance(E, Subspace):
            E = subspace_from_vectors(E, P.ambient_dim)
        outside, C = _outside(P, E)
        signs = np.asarray(signs, dtype=np.float64)
        if signs.shape != (outside.shape[0],):
            raise ValueError("sign vector must match the generators outside the span, "
                             "in canonical order")
        return C, (signs[:, None] * outside) @ C.T
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


def _cone_angle_mc(C, W, samples: int, seed: int) -> tuple[float, float]:
    """``normal_angle_mc`` of the normal cone (C, W) (``_face_cone``).

    The cone test is positively homogeneous, and a Gaussian row's
    direction is uniform on the sphere (Muller 1959), so it reads the raw
    Gaussian rows whose unit rows ``SeedStream.sphere`` would give: the
    same hits without forming the unit rows."""
    c = len(C)
    if c == 0:
        raise ValueError("degenerate complement: the face spans the ambient space")

    def hits(S: np.ndarray) -> np.ndarray:
        return np.all(W @ S.T >= 0.0, axis=0)

    if c == 1:
        return float(np.count_nonzero(hits(np.array([[1.0], [-1.0]])))) / 2.0, 0.0
    return _mc_mean_se(SeedStream(seed).derive("normal_angle"), samples,
                       lambda stream, size: hits(stream.gaussian_matrix(size, c)))


def _face_volume(chart: np.ndarray, n: int) -> float:
    """The n-volume of the convex hull of chart's rows in R^n: their
    extent for n = 1, ``_polygon_area`` for n = 2, and Qhull's volume,
    which imports scipy, for n >= 3."""
    if n == 1:
        lo, hi = float(np.min(chart)), float(np.max(chart))
        return hi - lo
    if n == 2:
        return _polygon_area(chart)
    from scipy.spatial import ConvexHull, QhullError

    try:
        return float(ConvexHull(chart).volume)
    except QhullError:
        return 0.0


def _polygon_area(chart: np.ndarray) -> float:
    """Area of the convex hull of planar points: Andrew's monotone chain,
    then the shoelace sum about its first vertex.  Both run on the points
    scaled by 2^-e, which puts the largest |entry| in [1/2, 1), so no
    cross product overflows or underflows; the area is scaled back by
    4^e, exactly, and the same points at any power-of-two scale give the
    same bits scaled."""
    e = math.frexp(float(np.max(np.abs(chart), initial=0.0)))[1]
    pts = sorted(set(map(tuple, np.ldexp(chart, -e).tolist())))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(points):
        hull = []
        for p in points:
            while len(hull) >= 2 and cross(hull[-2], hull[-1], p) <= 0.0:
                hull.pop()
            hull.append(p)
        return hull[:-1]

    hull = chain(pts) + chain(pts[::-1])
    twice = math.fsum(cross(hull[0], a, b) for a, b in zip(hull[1:], hull[2:]))
    return math.ldexp(0.5 * twice, 2 * e)


def _polytope_mc_sum(P: PolytopeFaceData, samples, seed, power: int):
    """sum of vol_n(F) Theta_P(F) sigma^J(E_F)^(power/2) over the n-faces."""
    n = _complex_dim(P.ambient_dim)
    total = 0.0
    var = 0.0
    for fi, idx in enumerate(P.n_faces):
        B, chart, cone = _face_frame(P, idx)
        if B.shape[0] > n:
            raise ValueError(f"face {fi} spans more than {n} dimensions")
        if B.shape[0] < n:
            continue
        w = _j_weight(B)
        if w == 0.0:  # a complex line in the face's span: no angle sampled
            continue
        vol = _face_volume(chart, n)
        if vol == 0.0:
            continue
        w **= power
        theta, se = _cone_angle_mc(*cone, samples, derive_seed(seed, "face", fi))
        total += vol * w * theta
        var += (vol * w * se) ** 2
    return total, math.sqrt(var)


def j_volume_polytope_mc(P: PolytopeFaceData, samples: int,
                         seed: int = 0) -> tuple[float, float]:
    """Monte Carlo J-volume from supplied n-faces:
    sum of vol_n(F) Theta_P(F) sigma^J(E_F)^(1/2), with propagated error.
    """
    return _polytope_mc_sum(P, samples, seed, 1)


def kazarnovskii_polytope_mc(P: PolytopeFaceData, samples: int,
                             seed: int = 0) -> tuple[float, float]:
    """Monte Carlo Kazarnovskii pseudovolume (sigma^J un-rooted)."""
    return _polytope_mc_sum(P, samples, seed, 2)


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
    in E.  The arrangements of all spans go to one ``_vertex_signs_many``
    call, which takes each level of all of them at once.  Vertices and
    the faces of each span are sorted by sign vector over the canonical
    generators; vertex rows that round together merge into the first, and
    faces that then coincide are listed once.  No complex structure enters.
    """
    n = _complex_dim(P.ambient_dim)
    G = _float_canonical(P).generators
    _, masks, Vs = _spans(G[None], n)
    cells = _vertex_signs_many([G[~mask] @ V[n:].T for mask, V in zip(masks, Vs)]
                               + [G[mask] @ V[:n].T for mask, V in zip(masks, Vs)])
    signs, sizes = [], []
    for mask, faces, inside in zip(masks, cells, cells[len(masks):]):
        block = np.empty((len(faces), len(inside), len(G)))
        block[:, :, ~mask] = faces[:, None, :]
        block[:, :, mask] = inside
        signs.append(block.reshape(-1, len(G)))
        sizes += [len(inside)] * len(faces)
    if not signs:
        return PolytopeFaceData(P.ambient_dim, np.zeros((0, P.ambient_dim)), ())
    verts, index = _unique_rows(np.concatenate(signs))
    V = 0.5 * verts @ G
    key = _unique_rows(V)[1]  # equal for vertex rows that round together
    first = np.unique(key, return_index=True)[1]
    keep = np.sort(first)  # each merged vertex at its first row, in order
    index = np.searchsorted(keep, first[key])[index]
    cut = np.cumsum([0] + sizes).tolist()
    faces = {tuple(index[lo:hi].tolist()): index[lo:hi] for lo, hi in zip(cut, cut[1:])}
    return PolytopeFaceData(P.ambient_dim, V[keep], list(faces.values()))


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
