"""Seeded, reproducible random streams and deterministic direction nets.

All Monte Carlo paths in the library draw from SFC64 streams keyed by
the SHA-256 path hash, a hash of (seed, label path).  Work is cut
into fixed-size chunks with per-chunk derived keys, so an estimate for
a given (seed, N) is bit-identical no matter how the chunks are
scheduled.  Uniforms, indices, multinomial counts, gamma variates and
Gaussians (numpy's ziggurat sampler) all come from the generator of one
such key, so a rerun with the same numpy repeats every draw bit for
bit.  A chunk, and a direction net, is drawn in row slices of at most
SLICE rows, so that no array holds a whole chunk of matrices or a whole
net; a generator continues its stream exactly from one draw to the
next, so the slices repeat the rows of one whole draw.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = [
    "SeedStream",
    "CHUNK",
    "SLICE",
    "direction_net",
    "covering_net",
    "chunk_sizes",
    "derive_seed",
]

CHUNK = 1 << 16  # samples per derived chunk key
SLICE = 1 << 14  # rows drawn at a time within a chunk or a net
PROB_TOL = 1e-12  # how far from 1 a law's probabilities may sum


def _derive_key(seed, labels: tuple) -> int:
    payload = repr((int(seed), labels)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")


class SeedStream:
    """A reproducible random source identified by (seed, label path)."""

    def __init__(self, seed: int, _labels: tuple = ()):
        self.seed = int(seed)
        self._labels = _labels

    def derive(self, *labels) -> "SeedStream":
        """Child stream; distinct label paths never collide."""
        return SeedStream(self.seed, self._labels + tuple(labels))

    def _generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.SFC64(_derive_key(self.seed, self._labels)))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1)."""
        return self._generator().random(int(n))

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normals, numpy's ziggurat on this label path's SFC64
        stream: bit-identical on every rerun with the same numpy."""
        return self._generator().standard_normal(int(n))

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.gaussians(rows * cols).reshape(rows, cols)

    def sphere(self, n: int, dim: int) -> np.ndarray:
        """n points uniform on the unit sphere of R^dim, rows."""
        if dim < 1:
            raise ValueError("sphere needs dim >= 1")
        if dim == 1:
            u = self.uniforms(n)
            return np.where(u < 0.5, -1.0, 1.0)[:, None]
        return _unit_rows(self.gaussians(n * dim).reshape(n, dim))

    def choice(self, n: int, probs) -> np.ndarray:
        """n indices sampled from the finite distribution probs: index i
        where u, one of ``uniforms(n)``, lies in [cum[i-1], cum[i]) for the
        cumulative sums cum of probs (``_atom_index``).  They are uint8 for
        up to 256 atoms, intp above.  A law of one atom draws no uniform.
        Probabilities that are negative, not finite or do not sum to 1
        within PROB_TOL are a ValueError."""
        p = _probabilities(probs)
        if len(p) == 1:
            return np.zeros(int(n), dtype=np.uint8)
        return _atom_index(self.uniforms(n), np.cumsum(p))

    def _counts(self, n: int, laws) -> np.ndarray:
        """How often each joint atom occurs among n draws of independent
        indices, one from each law in laws: one Multinomial(n, p) draw, p
        the ``_joint_law`` of laws.  It draws no uniform, and refuses what
        ``choice`` refuses.  A caller that draws many chunks from the same
        laws builds p once and draws its multinomial, the same bits."""
        return self._generator().multinomial(int(n), _joint_law(laws))


def _joint_law(laws) -> np.ndarray:
    """The product of the laws that ``choice`` samples (cum[i] - cum[i-1],
    cum clipped to 1 and cum[-1] read as 1, as ``_atom_index`` reads it),
    over the joint atoms in ``np.indices`` C order; refuses what
    ``choice`` refuses."""
    joint = np.ones(1)
    for probs in laws:
        law = np.cumsum(_probabilities(probs))
        np.minimum(law, 1.0, out=law)
        law[-1] = 1.0
        law[1:] -= law[:-1]  # numpy buffers the overlap
        joint = np.multiply.outer(joint, law).ravel()
    return joint


def _probabilities(probs) -> np.ndarray:
    """probs as a float64 vector, refused by a ValueError unless it is a
    non-empty vector of finite non-negative numbers summing to 1 within
    PROB_TOL."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("probabilities must be a non-empty vector")
    total = float(np.sum(p))  # not finite when an entry is not
    if not (math.isfinite(total) and np.all(p >= 0)):
        raise ValueError("probabilities must be finite and non-negative")
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError("probabilities must sum to 1")
    return p


class _Continued(SeedStream):
    """A stream with one generator for all its draws: each draw continues
    where the last stopped, so draws of n_1, n_2, ... values are the
    values of one draw of n_1 + n_2 + ...  A SeedStream starts each draw
    afresh."""

    def __init__(self, stream: SeedStream):
        super().__init__(stream.seed, stream._labels)
        self._held = stream._generator()

    def _generator(self) -> np.random.Generator:
        return self._held


# Counting costs about 2 us a bound plus 0.3 ns a bound and draw;
# np.searchsorted costs 10-70 ns a draw, more for more atoms.  Best of 40
# on a 2-core Xeon VM, microseconds for (count, search) of n draws from k
# atoms: n = 65536, k = 8 (116, 1390), 64 (1020, 3569), 256 (3660, 4495);
# n = 20000, k = 128 (894, 1268), 256 (1796, 1446); n = 3392, k = 32
# (99, 115), 64 (200, 151); n = 1000, k = 3 (6, 9), 8 (19, 11).  Counting
# wins from 100-150 draws a bound up (from about 500 at n = 1000).
_COUNT_MIN_DRAWS_PER_BOUND = 200


def _atom_index(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """The number of the bounds cum[:-1] that are <= u, for each u in [0, 1).

    cum is the cumulative sum of k non-negative probabilities, so cum[:-1]
    is non-decreasing and the bounds <= u form a prefix: the count is
    min(searchsorted(cum, u, "right"), k - 1) with cum[-1] read as 1, also
    when a sum within the tolerance above 1 puts cum[-2] past 1.  Up to 256
    atoms the count is k - 1 comparisons summed in uint8, an eighth of the
    memory traffic of intp; with many bounds per draw a binary search
    gives it.
    """
    k, bounds = len(cum), cum[:-1]
    if k <= 256 and len(u) >= _COUNT_MIN_DRAWS_PER_BOUND * (k - 1):
        idx = np.zeros(len(u), dtype=np.uint8)
        for c in bounds.tolist():
            idx += u >= c
        return idx
    idx = np.searchsorted(bounds, u, side="right")
    return idx.astype(np.uint8) if k <= 256 else idx


def derive_seed(seed, *labels) -> int:
    """Integer seed for an independent child stream (stable hash)."""
    return _derive_key(seed, tuple(labels))


def chunk_sizes(n: int, chunk: int = CHUNK) -> list[int]:
    """Fixed chunking schedule for n samples."""
    n = int(n)
    full, rest = divmod(n, chunk)
    return [chunk] * full + ([rest] if rest else [])


def _mc_mean_se(stream: SeedStream, n: int, draw):
    """Mean and Bessel-corrected standard error of n values over the fixed
    chunk schedule; draw(stream.derive(ci), size) gives chunk ci's values.

    The values are a vector of size, or a (T, size) array of T quantities
    read off the same samples, whose means and errors come back as
    vectors of T in one pass over the chunks.  Each row is reduced as a
    contiguous vector, so its bits are those of a call that draws that
    row alone.  The draw's array is scratch: each chunk's deviations from
    its mean, and their squares, are formed in place in it.

    A chunk drawn from a finite table comes as a pair (values, counts):
    the table's values along the last axis and how often each was drawn,
    counts summing to size.  Its mean is sum(c v) / size and its M2
    sum(c (v - mean)^2), each one np.sum; the values are not written.

    Each chunk contributes (count, mean, M2), the sum of squared
    deviations from its own mean; chunks combine by the pairwise update
    of Chan, Golub and LeVeque (1983).  Unlike sum(x^2) - n mean^2 this
    does not cancel when the mean dwarfs the spread.  M2 is np.sum's
    pairwise sum, as np.mean's is, not a BLAS dot, which splits long
    vectors across threads: the bits do not depend on the thread count.

    Deviations are squared after scaling by s, a power of two near the
    reciprocal of the first chunk's mean (``_scale_of``), and the error is
    divided by s.  Scaling by a power of two is exact, so the bits are
    those of unscaled squares wherever those neither overflow nor
    underflow, and the error stays finite where they would: at a mean of
    1e164 the squares pass the largest double.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    count, mean, m2, scale = 0, 0.0, 0.0, None
    for ci, size in enumerate(chunk_sizes(n)):
        vals = draw(stream.derive(ci), size)
        if isinstance(vals, tuple):
            vals, counts = vals
            c_mean = np.sum(counts * vals, axis=-1) / size
            scale = _scale_of(c_mean) if scale is None else scale
            dev = (vals - c_mean[..., None]) * scale[..., None]
            c_m2 = np.sum(counts * (dev * dev), axis=-1)
        else:
            vals = np.ascontiguousarray(vals, dtype=np.float64)
            c_mean = np.mean(vals, axis=-1)
            scale = _scale_of(c_mean) if scale is None else scale
            vals -= c_mean[..., None]
            vals *= scale[..., None]
            vals *= vals
            c_m2 = np.sum(vals, axis=-1)
        delta = c_mean - mean
        total = count + size
        mean += delta * size / total
        delta *= scale
        m2 += c_m2 + delta * delta * count * size / total
        count = total
    se = np.sqrt(m2 / (n - 1) / n) / scale
    return (float(mean), float(se)) if np.ndim(mean) == 0 else (mean, se)


def _scale_of(mean) -> np.ndarray:
    """2^-e for the exponent e of each mean (|mean| 2^-e in [1/2, 1), e 0
    for a mean of 0 or one not finite), e clipped to [-1000, 1000] so
    that neither 2^-e nor 2^e overflows."""
    return np.ldexp(1.0, -np.clip(np.frexp(mean)[1], -1000, 1000))


def _row_scale(A: np.ndarray) -> np.ndarray:
    """The norms of A's rows, along the last axis of a matrix or a stack
    of them, with a zero norm read as 1."""
    norms = np.linalg.norm(A, axis=-1)
    norms[norms == 0.0] = 1.0
    return norms


def _unit_rows(A: np.ndarray) -> np.ndarray:
    """A's rows, along the last axis of a matrix or a stack of them, over
    their norms; a zero row stays zero."""
    return A / _row_scale(A)[..., None]


def _net_blocks(dim: int, count: int, seed: int = 0):
    """The rows of ``direction_net(dim, count, seed)``, SLICE at a time, as
    pairs (U, w): the net's rows are U's rows over the norms w, or U's
    rows themselves when w is None.

    In R^1 the rows alternate +1 and -1; the angular grid and the
    Fibonacci sphere are closed forms in the row index, computed per
    index range, and their rows are unit (w None).  From dimension 4 U
    holds raw Gaussian rows, drawn from one SFC64 generator a block at a
    time, which repeats one large draw; a Gaussian row's direction is
    uniform on the sphere (Muller 1959), so a positively homogeneous test
    reads U and divides by w only where it needs unit rows.
    """
    if dim < 1 or count < 1:
        raise ValueError("need dim >= 1 and count >= 1")
    phase = (_derive_key(seed, ("net2",)) % (1 << 32)) / (1 << 32)
    draw = SeedStream(seed).derive("net", dim, count)._generator()
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    for start in range(0, count, SLICE):
        i = np.arange(start, min(start + SLICE, count))
        if dim == 1:
            yield (1.0 - 2.0 * (i % 2))[:, None], None
        elif dim == 2:
            theta = 2.0 * np.pi * (i + phase) / count
            yield np.column_stack([np.cos(theta), np.sin(theta)]), None
        elif dim == 3:  # Fibonacci sphere
            z = 1.0 - 2.0 * (i + 0.5) / count
            r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            phi = 2.0 * np.pi * (i + 0.5) / golden
            yield np.column_stack([r * np.cos(phi), r * np.sin(phi), z]), None
        else:
            G = draw.standard_normal(len(i) * dim).reshape(len(i), dim)
            yield G, _row_scale(G)


def direction_net(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform unit directions, rows of shape (count, dim).

    dim 1 alternates +1 and -1, dim 2 uses an evenly spaced angular grid
    with a seeded phase, dim 3 a Fibonacci sphere, higher dimensions a
    seeded Gaussian cloud.  The same (dim, count, seed) always yields the
    same net.
    """
    return np.concatenate([U if w is None else U / w[:, None]
                           for U, w in _net_blocks(dim, count, seed)])


def _covering_count(dim: int, delta: float) -> int:
    """The size of ``covering_net(dim, delta)``."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if dim == 1:
        return 2
    if dim == 2:
        return max(8, math.ceil(math.pi / delta))
    if dim == 3:
        return max(64, math.ceil((3.6 / delta) ** 2))
    return min(500_000, max(1024, math.ceil((4.0 / delta)) ** (dim - 1)))


def covering_net(dim: int, delta: float, seed: int = 0) -> np.ndarray:
    """A direction net aimed at covering radius <= delta.

    The angular grid on the circle certifies the bound exactly; the
    Fibonacci sphere uses a conservative count.  For dim >= 4 the count
    is a heuristic (seeded Gaussian cloud) and no covering certificate
    is claimed.
    """
    return direction_net(dim, _covering_count(dim, delta), seed)
