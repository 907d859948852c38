"""Zonoids of random vectors and expected absolute determinants.

The zonoid of an integrable random vector X has support function
(1/2) E|<u, X>|; for a finite distribution it is the zonotope with
generators p_i x_i.  Expected absolute determinants of matrices with
independent column blocks M = (M_1, ..., M_p) reduce to wedge lengths,

    E|det M| = length(K(Z_1) ^ ... ^ K(Z_p)),   Z_j = wedge of block j,

with a complex analogue through the complex wedge, which is what the
exact paths below compute.  Monte Carlo paths draw from SFC64 streams
keyed by the SHA-256 path hash, so identical (seed, N) give identical
estimates, and take each |det|, of a sample or of a joint atom of a
small finite law, by the same identity: for m <= 4 the wedge of the
blades of its two column halves.  All-Gaussian models draw no matrix:
their |det| is a product of m independent chi variates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exterior
from .algebra import _chain, _graded
from .exterior import realify_rows, unrealify_rows
from .sampling import PROB_TOL  # noqa: F401  (re-export)
from .sampling import (CHUNK, SLICE, SeedStream, _Continued, _joint_law, _mc_mean_se,
                       _probabilities)
from .zonotope import Zonotope, _finite_floats, _integer, canonicalize, length, zonotope

__all__ = [
    "DiscreteDistribution",
    "SeededSampler",
    "MatrixBlock",
    "MatrixBlockModel",
    "iid_column_model",
    "vitale_zonotope",
    "empirical_zonotope",
    "brute_force_expected_abs_det",
    "bernoulli_mixture",
    "scale_distribution",
    "tau",
    "multivariate_gamma",
    "expected_simple_wedge_norm",
    "gaussian_abs_det",
    "complex_gaussian_abs_det",
    "j_ball_volume",
    "expected_abs_det_exact",
    "expected_abs_det_mc",
    "expected_abs_det_complex_exact",
    "expected_abs_det_complex_mc",
    "expected_sq_abs_det_complex",
    "bm_concavity_probe",
    "distribution_to_dict",
    "distribution_from_dict",
    "model_from_dict",
]

@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution: atom array (first axis) + probs."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms)
        atoms = atoms.astype(np.complex128 if np.iscomplexobj(atoms) else np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if atoms.ndim < 2:
            atoms = atoms.reshape(len(probs), -1)
        if probs.ndim != 1 or probs.shape[0] != atoms.shape[0]:
            raise ValueError("one probability per atom required")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", _probabilities(probs))

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.atoms)


def scale_distribution(dist: DiscreteDistribution, c) -> DiscreteDistribution:
    return DiscreteDistribution(dist.atoms * c, dist.probs)


def bernoulli_mixture(d1: DiscreteDistribution, d2: DiscreteDistribution
                      ) -> DiscreteDistribution:
    """Law of 2 eps X + 2 (1 - eps) Y, eps a fair coin independent of X, Y.

    Its zonoid is the Minkowski sum of the zonoids of X and Y.
    """
    if d1.atoms.shape[1:] != d2.atoms.shape[1:]:
        raise ValueError("atom shapes must agree")
    atoms = np.concatenate([2.0 * d1.atoms, 2.0 * d2.atoms], axis=0)
    probs = np.concatenate([d1.probs / 2.0, d2.probs / 2.0])
    return DiscreteDistribution(atoms, probs)


@dataclass(frozen=True)
class SeededSampler:
    """Value-object vector sampler: identical seed, identical stream.

    kinds: "gaussian" (standard normal entries), "uniform_sphere",
    "complex_gaussian" (standard complex normal: Re, Im ~ N(0, 1/2)),
    "discrete" (requires dist).
    """

    kind: str
    dimension: int
    seed: int = 0
    dist: DiscreteDistribution | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform_sphere", "complex_gaussian", "discrete"):
            raise ValueError(f"unknown sampler kind: {self.kind}")
        if self.kind == "discrete" and self.dist is None:
            raise ValueError("discrete sampler needs a distribution")
        if self.dimension < 1:
            raise ValueError(f"sampler dimension must be at least 1, got {self.dimension}")

    def sample(self, n: int, stream: SeedStream | None = None) -> np.ndarray:
        if stream is None:
            stream = SeedStream(self.seed).derive("sampler", self.kind)
        n = int(n)
        if self.kind == "gaussian":
            return stream.gaussian_matrix(n, self.dimension)
        if self.kind == "uniform_sphere":
            return stream.sphere(n, self.dimension)
        if self.kind == "complex_gaussian":
            g = stream.gaussians(2 * n * self.dimension)
            return g.view(np.complex128).reshape(n, self.dimension) / math.sqrt(2.0)
        return self.dist.atoms[stream.choice(n, self.dist.probs)]


@dataclass(frozen=True)
class MatrixBlock:
    """One independent column block: width plus a discrete law or sampler.

    Discrete atoms have shape (k, m, width) (or (k, m) when width is 1);
    samplers draw columns independently from a vector sampler on R^m.
    """

    width: int
    dist: DiscreteDistribution | None = None
    sampler: SeededSampler | None = None

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"block width must be at least 1, got {self.width}")
        if (self.dist is None) == (self.sampler is None):
            raise ValueError("block needs exactly one of dist or sampler")

    def atom_matrices(self, size: int) -> np.ndarray:
        """Discrete atoms as (k, size, width) matrices."""
        if self.dist is None:
            raise ValueError("non-discrete block")
        atoms = self.dist.atoms
        if atoms.ndim == 2 and self.width == 1:
            atoms = atoms[:, :, None]
        if atoms.shape[1:] != (size, self.width):
            raise ValueError("atom shape does not match (size, width)")
        return atoms

    def sample_matrices(self, n: int, size: int, stream: SeedStream) -> np.ndarray:
        if self.dist is not None:
            idx = stream.choice(n, self.dist.probs)
            return self.atom_matrices(size)[idx]
        cols = self.sampler.sample(n * self.width, stream)
        if cols.shape[1] != size:
            raise ValueError("sampler dimension does not match matrix size")
        return np.swapaxes(cols.reshape(n, self.width, size), 1, 2)


@dataclass(frozen=True)
class MatrixBlockModel:
    """Square random matrix with independent column blocks; a block with
    complex atoms or a complex sampler needs complex_field to be sampled."""

    size: int
    blocks: tuple
    complex_field: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"matrix size must be at least 1, got {self.size}")
        blocks = tuple(self.blocks)
        if sum(b.width for b in blocks) != self.size:
            raise ValueError("block widths must sum to the matrix size")
        object.__setattr__(self, "blocks", blocks)

    def all_discrete(self) -> bool:
        return all(b.dist is not None for b in self.blocks)

    def sample(self, n: int, stream: SeedStream) -> np.ndarray:
        """n matrices, block j's columns drawn from stream.derive("block", j):
        the one slice of ``_slices``."""
        return next(self._slices(n, stream, max(n, 1)))[1]

    def _slices(self, n: int, stream: SeedStream, rows: int = SLICE):
        """(slice, matrices) for the rows of ``sample(n, stream)``, in the
        fewest near-equal slices of at most rows rows (``_row_blocks``: no
        slice holds one row unless n is 1, as the m <= 4 |det| kernel sums
        a lone row's terms in another order).  Each block draws every slice
        from one ``_Continued`` stream, so the slices repeat one whole draw;
        the matrices are views of one buffer that the next slice overwrites."""
        streams = [_Continued(stream.derive("block", j)) for j in range(len(self.blocks))]
        cols = self._buffer(min(n, rows))
        for part in exterior._row_blocks(n, rows):
            r = part.stop - part.start
            yield part, self._stack(r, (b.sample_matrices(r, self.size, s)
                                        for b, s in zip(self.blocks, streams)), cols)

    def _buffer(self, n: int) -> np.ndarray:
        return np.empty((n, self.size, self.size),
                        np.complex128 if self.complex_field else np.float64)

    def _stack(self, n: int, parts, cols=None) -> np.ndarray:
        """The n matrices whose column blocks are parts, one (n, size, w_j)
        stack per block: the swapaxes view of the first n matrices of cols,
        an (at least n, size, size) buffer (a new one when None), in which
        each matrix's columns are contiguous rows.  Each part is dropped
        before the next is drawn (zip's result tuple would hold it), so the
        buffer and one block's draw are alive at a time."""
        cols = self._buffer(n) if cols is None else cols[:n]
        parts = iter(parts)
        start = 0
        for b in self.blocks:
            part = next(parts)
            if np.iscomplexobj(part) and not self.complex_field:
                raise ValueError("complex blocks need complex_field=True")
            cols[:, start:start + b.width] = np.swapaxes(part, 1, 2)
            del part
            start += b.width
        return np.swapaxes(cols, 1, 2)


def iid_column_model(dist: DiscreteDistribution, m: int) -> MatrixBlockModel:
    """m independent columns all drawn from dist (vectors in R^m or C^m)."""
    blocks = tuple(MatrixBlock(1, dist=dist) for _ in range(m))
    return MatrixBlockModel(m, blocks, complex_field=dist.is_complex)


def vitale_zonotope(dist: DiscreteDistribution) -> Zonotope:
    """Zonotope of a finite distribution: generators p_i x_i.

    support(u) = (1/2) E|<u, X>| and length = E||X||.
    """
    if dist.is_complex:
        raise ValueError("vitale_zonotope expects a real distribution")
    if dist.atoms.ndim != 2:
        raise ValueError("vitale_zonotope expects vector atoms")
    return canonicalize(
        zonotope(dist.probs[:, None] * dist.atoms, ambient_dim=dist.atoms.shape[1])
    )


def _real_sampler(s: SeededSampler) -> SeededSampler:
    """s, refused by a ValueError when it draws complex vectors."""
    if s.kind == "complex_gaussian" or s.kind == "discrete" and s.dist.is_complex:
        raise ValueError("empirical_zonotope expects a real sampler")
    return s


def empirical_zonotope(sampler: SeededSampler, n: int) -> Zonotope:
    """Zonotope of the empirical law of n draws of a real sampler: X_k / n."""
    if n < 1:
        raise ValueError("need at least one sample")
    X = _real_sampler(sampler).sample(n)
    return canonicalize(zonotope(X / float(n), ambient_dim=X.shape[1]))


def tau(m) -> float:
    """tau_m = sqrt(2 pi) sqrt(2) Gamma((m+1)/2) / Gamma(m/2).

    The length of the unit ball B^m as a zonoid; tau_1 = 2, tau_2 = pi,
    tau_3 = 4.
    """
    m = float(m)
    if m < 1:
        raise ValueError("tau needs m >= 1")
    return math.sqrt(2.0 * math.pi) * math.exp(
        0.5 * math.log(2.0) + math.lgamma((m + 1.0) / 2.0) - math.lgamma(m / 2.0)
    )


def multivariate_gamma(k: int, x) -> float:
    """Gamma_k(x) = pi^(k(k-1)/4) prod_{j=1}^k Gamma(x + (1-j)/2)."""
    k = int(k)
    x = float(x)
    if k < 1:
        raise ValueError("multivariate gamma needs k >= 1")
    if x + (1.0 - k) / 2.0 <= 0.0:
        raise ValueError("argument outside the domain of Gamma_k")
    log_val = 0.25 * k * (k - 1) * math.log(math.pi)
    for j in range(1, k + 1):
        log_val += math.lgamma(x + (1.0 - j) / 2.0)
    return math.exp(log_val)


def expected_simple_wedge_norm(k: int, m: int) -> float:
    """E||xi_1 ^ ... ^ xi_k|| for i.i.d. standard Gaussians in R^m:
    2^(k/2) Gamma_k((m+1)/2) / Gamma_k(m/2).
    """
    k, m = int(k), int(m)
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    log_val = 0.5 * k * math.log(2.0)
    for j in range(1, k + 1):
        shift = (1.0 - j) / 2.0
        log_val += math.lgamma((m + 1.0) / 2.0 + shift) - math.lgamma(m / 2.0 + shift)
    return math.exp(log_val)


def gaussian_abs_det(m: int) -> float:
    """E|det| of an m x m matrix with i.i.d. standard Gaussian entries."""
    return expected_simple_wedge_norm(m, m)


def complex_gaussian_abs_det(n: int) -> float:
    """E|det| of an n x n i.i.d. standard complex Gaussian matrix:
    prod_{j=1}^n Gamma(j + 1/2) / Gamma(j).
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    return math.exp(
        sum(math.lgamma(j + 0.5) - math.lgamma(j) for j in range(1, n + 1))
    )


def j_ball_volume(n: int) -> float:
    """J-volume of the unit ball of C^n:
    (4 pi)^(n/2) / n! * prod_{j=1}^n Gamma(j + 1/2) / Gamma(j).
    """
    n = int(n)
    return (4.0 * math.pi) ** (n / 2.0) / math.factorial(n) * complex_gaussian_abs_det(n)


def _block_zonoid(block: MatrixBlock, size: int, complex_field: bool) -> Zonotope:
    """K(Z_j) for a discrete block: pushforward of its atoms through the
    blade, realified in the complex exterior power when complex_field; unmerged."""
    rows = exterior.blade_rows(np.swapaxes(block.atom_matrices(size), 1, 2))
    return _graded(block.dist.probs[:, None] * rows, size, block.width, complex_field)


def expected_abs_det_exact(model: MatrixBlockModel) -> float:
    """E|det M| = length(K(Z_1) ^ ... ^ K(Z_p)) for all-discrete blocks,
    through the complex wedge when the model's field is complex.

    Blocks of one distribution at one width give equal zonoids, which
    ``_chain`` wedges as a power.  For m iid columns (``iid_column_model``)
    that is m! times the blades of the m-subsets of the atoms:
    E|det| = m! vol(K(X)) (Vitale 1991), C(k, m) rows for k atoms, not k^m.
    """
    if not model.all_discrete():
        raise ValueError("exact path needs discrete blocks")
    zonoids = [_block_zonoid(b, model.size, model.complex_field) for b in model.blocks]
    return float(length(_chain(zonoids)))


expected_abs_det_complex_exact = expected_abs_det_exact


def _abs_det(M) -> np.ndarray:
    """|det| of each matrix in a real or complex stack of shape (N, m, m).

    For m <= 4 it is |Z_1 ^ Z_2|, Z_1 and Z_2 the blades of the first
    m // 2 and the other columns, through the exterior kernels; for
    larger m, LAPACK's LU is faster.
    """
    m = M.shape[-1]
    if m > 4:
        return np.abs(np.linalg.det(M))
    if m == 1:
        return np.abs(M[:, 0, 0])
    cols, h = np.swapaxes(M, 1, 2), m // 2
    wedge = exterior.wedge_rows(exterior.blade_rows(cols[:, :h]),
                                exterior.blade_rows(cols[:, h:]), m, h, m - h)
    return np.abs(wedge[:, 0])


def expected_abs_det_mc(model: MatrixBlockModel, n: int, seed: int = 0
                        ) -> tuple[float, float]:
    """Monte Carlo E|det M| with Bessel-corrected standard error; real or
    complex entries alike: the one row of ``_abs_det_draw`` of the model,
    an atom table's row with its counts when the draw reads a table.  An
    all-Gaussian model draws each |det| from its exact law, a product of
    m independent chi variates, and builds no matrix."""
    draw = _abs_det_draw((model,), n)

    def row(stream, size):
        vals = draw(stream, size)
        return (vals[0][0], vals[1]) if isinstance(vals, tuple) else vals[0]
    return _mc_mean_se(SeedStream(seed).derive("edet"), n, row)


def _chi_law(model: MatrixBlockModel):
    """(shapes, scale) with |det M| distributed as the product over j of
    sqrt(scale Gamma(shapes[j])), or None.  Every block "gaussian" makes
    M a real standard Gaussian matrix, whatever the field, and |det| the
    product of independent chi_j, chi_j^2 = 2 Gamma(j/2), j = 1 .. m
    (Bartlett 1933); every block "complex_gaussian" in a complex model
    makes |det|^2 the product of independent Gamma(j) (Goodman 1963).
    Any other model, a sampler dimension that is not the size among them,
    is None: the slice route draws it, or refuses it."""
    kinds = {b.sampler.kind if b.sampler is not None and b.sampler.dimension == model.size
             else None for b in model.blocks}
    j = np.arange(1.0, model.size + 1.0)
    if kinds == {"gaussian"}:
        return j / 2.0, 2.0
    if kinds == {"complex_gaussian"} and model.complex_field:
        return j, 1.0
    return None


def _abs_det_draw(models, n: int):
    """draw(stream, size) for ``_mc_mean_se``: the |det| of the T models'
    chunk of samples, T rows.  When every block is discrete and the joint
    atom support has at most min(n, CHUNK) matrices, the models must share
    their field, their blocks' widths and their laws' probabilities, which
    makes their joint laws the same: the draw is the pair (tables, counts),
    the (T, support) |det| tables, one ``_abs_det`` call over the models'
    stacked supports, and the chunk's counts of each joint atom, one
    multinomial draw from the first model's ``_joint_law``, built once,
    for all T (``SeedStream._counts``): the law of model.sample's atom
    indices, so the same estimator in distribution.  Otherwise each
    model's row of a (T, size) array is filled by its own route.  An
    all-Gaussian model (``_chi_law``) takes one standard_gamma draw of
    shape (m, size) on the chunk's stream, whose columns' products of
    square roots are its |det|, the law of model.sample's |det| with no
    matrix built; the roots are taken before the product, so it
    overflows no sooner than a determinant does.  Any other model is
    drawn in the slices of ``MatrixBlockModel._slices``, whose |det|
    fill its row: the draws and determinants of model.sample over the
    whole chunk, with one slice of matrices alive."""
    discrete = all(m.all_discrete() for m in models)
    shape = tuple(b.dist.n_atoms for m in models[:1] for b in m.blocks) if discrete else ()
    if shape and math.prod(shape) <= min(n, CHUNK):
        joint = np.indices(shape).reshape(len(shape), -1)
        support = joint.shape[1]
        cols = models[0]._buffer(len(models) * support)
        for t, m in enumerate(models):
            m._stack(support, (b.atom_matrices(m.size)[i] for b, i in zip(m.blocks, joint)),
                     cols[t * support:])
        tables = _abs_det(np.swapaxes(cols, 1, 2)).reshape(len(models), support)
        law = _joint_law([b.dist.probs for b in models[0].blocks])
        return lambda stream, size: (tables, stream._generator().multinomial(size, law))
    chi = [_chi_law(m) for m in models]

    def draw(stream, size):
        vals = np.empty((len(models), size))
        for row, m, law in zip(vals, models, chi):
            if law is not None:
                shapes, scale = law
                x = stream._generator().standard_gamma(shapes[:, None], (len(shapes), size))
                x *= scale
                np.prod(np.sqrt(x, out=x), axis=0, out=row)
            else:
                for part, M in m._slices(size, stream):
                    row[part] = _abs_det(M)
        return vals
    return draw


expected_abs_det_complex_mc = expected_abs_det_mc


def expected_sq_abs_det_complex(model: MatrixBlockModel) -> float:
    """E|det M|^2 of any discrete model, real or complex, at any widths, from
    second moments through the product fold: from A = [[1]], each block's
    M = E[b b^*] over its blades b gives P (A x M) P^T, P the wedge map."""
    if not model.all_discrete():
        raise ValueError("exact path needs discrete blocks")
    n, s, A = model.size, 0, np.ones((1, 1))
    for b in model.blocks:
        B = exterior.blade_rows(np.swapaxes(b.atom_matrices(n), 1, 2))
        M = B.T @ (b.dist.probs[:, None] * B.conj())
        ii, jj, ss = exterior._wedge_table(n, s, b.width)
        rows = exterior._pairs(A.T, M.T, (ii, jj, ss))  # P(A[:, c] x M[:, d])
        A = exterior._pairs(rows.T, np.ones((1, 1)), (ii * len(M) + jj, 0 * jj, ss))
        s += b.width
    return float(A[0, 0].real)


def bm_concavity_probe(d1: DiscreteDistribution, d2: DiscreteDistribution,
                       d: int, companions=None, t_grid=None,
                       n: int | None = None, seed: int = 0):
    """Concavity probe for t -> E|det[X_t ... X_t, companions]|^(1/d).

    X_t is the fair Bernoulli mixture of 2t X_1 and 2(1-t) X_2, drawn
    i.i.d. for the d leading columns; companions are fixed trailing
    columns.  Discrete inputs use the exact wedge path (stderr 0); pass a
    sample count n to force Monte Carlo instead (at least two samples).
    Every t's mixture has the same atom probabilities, so the Monte Carlo
    curve draws each chunk's joint atom counts (or, above the table
    route's support, its samples) once for the whole grid
    (``_abs_det_draw``); each point equals ``expected_abs_det_mc`` of its
    t's model at (n, seed) bit for bit.
    """
    if d < 1:
        raise ValueError(f"need d >= 1 mixture columns, got d = {d}")
    if d1.atoms.ndim != 2 or d2.atoms.ndim != 2:
        raise ValueError("expected vector distributions")
    if d1.atoms.shape[1] != d2.atoms.shape[1]:
        raise ValueError("dimension mismatch")
    m = d1.atoms.shape[1]
    comp = None
    if companions is not None:
        comp = np.asarray(companions, dtype=np.float64)
        if comp.size == 0:
            comp = None
        else:
            if comp.ndim == 1:
                comp = comp[:, None]
            if comp.shape[0] != m:
                raise ValueError("companion columns must live in the same space")
    fixed = 0 if comp is None else comp.shape[1]
    if d + fixed != m:
        raise ValueError("d plus the number of fixed columns must equal m")
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 11)
    ts = [float(t) for t in np.asarray(t_grid, dtype=np.float64)]
    models = []
    for t in ts:
        mix = bernoulli_mixture(scale_distribution(d1, t), scale_distribution(d2, 1.0 - t))
        blocks = [MatrixBlock(1, dist=mix) for _ in range(d)]
        if comp is not None:
            blocks.append(MatrixBlock(fixed, dist=DiscreteDistribution(
                comp[None, :, :], np.array([1.0]))))
        models.append(MatrixBlockModel(m, tuple(blocks)))
    if n is None:
        return [(t, expected_abs_det_exact(model) ** (1.0 / d), 0.0)
                for t, model in zip(ts, models)]
    vals, ses = _mc_mean_se(SeedStream(seed).derive("edet"), n, _abs_det_draw(models, n))
    out = []
    for t, val, se in zip(ts, vals.tolist(), ses.tolist()):
        root_se = se / (d * val ** (1.0 - 1.0 / d)) if val > 0 else float("nan")
        out.append((t, val ** (1.0 / d), root_se))
    return out


def brute_force_expected_abs_det(model: MatrixBlockModel, power: int = 1,
                                 cap: int = 10**4) -> float:
    """Exhaustive joint enumeration oracle for small discrete models."""
    if not model.all_discrete():
        raise ValueError("enumeration needs discrete blocks")
    joint = 1
    for b in model.blocks:
        joint *= b.dist.n_atoms
    if joint > cap:
        raise ValueError(f"joint support too large ({joint} > {cap})")
    total = 0.0
    stack = [(0, 1.0, [])]
    while stack:
        j, p, mats = stack.pop()
        if j == len(model.blocks):
            M = np.concatenate(mats, axis=1)
            total += p * abs(np.linalg.det(M)) ** power
            continue
        b = model.blocks[j]
        atoms = b.atom_matrices(model.size)
        for i in range(b.dist.n_atoms):
            stack.append((j + 1, p * float(b.dist.probs[i]), mats + [atoms[i]]))
    return total


def distribution_to_dict(dist: DiscreteDistribution) -> dict:
    """JSON form {"atoms": [...], "probs": [...]}; a complex entry is written
    as the pair [re, im], its realify_rows layout."""
    atoms = realify_rows(dist.atoms[..., None]) if dist.is_complex else dist.atoms
    return {"atoms": atoms.tolist(), "probs": dist.probs.tolist()}


def distribution_from_dict(d: dict, complex_field: bool = False
                           ) -> DiscreteDistribution:
    """Inverse of distribution_to_dict.  Atoms that are not a regular array,
    complex entries that are not [re, im] pairs, and null or non-finite
    entries are a KeyError."""
    try:
        atoms = _finite_floats(d["atoms"])
    except ValueError as e:
        raise KeyError(f"atoms must be a regular array of numbers: {e}") from e
    if complex_field:
        if atoms.ndim < 2 or atoms.shape[-1] != 2:
            raise KeyError(f"complex atoms must be [re, im] pairs, got shape {atoms.shape}")
        atoms = unrealify_rows(atoms)[..., 0]
    return DiscreteDistribution(atoms, _finite_floats(d["probs"]))


def model_from_dict(d: dict) -> MatrixBlockModel:
    """Block model schema: {"size": m, "complex": bool, "blocks": [...]},
    each block {"width": w, "dist": {...}} or {"width": w, "sampler":
    {"kind": ...}}.  Sampler blocks draw from the stream of the estimator
    that samples the model, so a "seed" key in a sampler block is ignored.
    """
    size = _integer(d["size"])
    complex_field = bool(d.get("complex", False))
    blocks = []
    for bd in d["blocks"]:
        width = _integer(bd.get("width", 1))
        dist = sampler = None
        if "dist" in bd:
            dist = distribution_from_dict(bd["dist"], complex_field=complex_field)
        elif "sampler" in bd:
            sd = bd["sampler"]
            kind = sd["kind"]
            if complex_field and kind == "gaussian":
                kind = "complex_gaussian"
            sampler = SeededSampler(kind=kind, dimension=size)
        blocks.append(MatrixBlock(width, dist=dist, sampler=sampler))
    return MatrixBlockModel(size, tuple(blocks), complex_field=complex_field)
