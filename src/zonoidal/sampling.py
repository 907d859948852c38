"""Seeded, reproducible random streams and deterministic direction nets.

All Monte Carlo paths in the library draw from SFC64 streams keyed by
the SHA-256 path hash, a hash of (seed, label path).  Work is cut
into fixed-size chunks with per-chunk derived keys, so an estimate for
a given (seed, N) is bit-identical no matter how the chunks are
scheduled.  Uniforms, indices and Gaussians (numpy's ziggurat sampler)
all come from the generator of one such key, so a rerun with the same
numpy repeats every draw bit for bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = [
    "SeedStream",
    "CHUNK",
    "direction_net",
    "covering_net",
    "chunk_sizes",
    "derive_seed",
]

CHUNK = 1 << 16  # samples per derived chunk key


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
        g = self.gaussians(n * dim).reshape(n, dim)
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0] = 1.0
        return g / norms[:, None]

    def choice(self, n: int, probs) -> np.ndarray:
        """n indices sampled from the finite distribution probs."""
        p = np.asarray(probs, dtype=np.float64)
        cum = np.cumsum(p)
        cum[-1] = 1.0
        u = self.uniforms(n)
        return np.minimum(np.searchsorted(cum, u, side="right"), len(p) - 1)


def derive_seed(seed, *labels) -> int:
    """Integer seed for an independent child stream (stable hash)."""
    return _derive_key(seed, tuple(labels))


def chunk_sizes(n: int, chunk: int = CHUNK) -> list[int]:
    """Fixed chunking schedule for n samples."""
    n = int(n)
    full, rest = divmod(n, chunk)
    return [chunk] * full + ([rest] if rest else [])


def _mc_mean_se(stream: SeedStream, n: int, draw) -> tuple[float, float]:
    """Mean and Bessel-corrected standard error of n values over the fixed
    chunk schedule; draw(stream.derive(ci), size) gives chunk ci's values.

    Each chunk contributes (count, mean, M2), the sum of squared
    deviations from its own mean; chunks combine by the pairwise update
    of Chan, Golub and LeVeque (1983).  Unlike sum(x^2) - n mean^2 this
    does not cancel when the mean dwarfs the spread.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    count, mean, m2 = 0, 0.0, 0.0
    for ci, size in enumerate(chunk_sizes(n)):
        vals = draw(stream.derive(ci), size)
        c_mean = float(np.mean(vals))
        dev = vals - c_mean
        delta = c_mean - mean
        total = count + size
        mean += delta * size / total
        m2 += float(dev @ dev) + delta * delta * count * size / total
        count = total
    return mean, math.sqrt(m2 / (n - 1) / n)


def _fibonacci_sphere(count: int) -> np.ndarray:
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * np.pi * i / golden
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def direction_net(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform unit directions, rows of shape (count, dim).

    dim 2 uses an evenly spaced angular grid with a seeded phase, dim 3 a
    Fibonacci sphere, higher dimensions a seeded Gaussian cloud.  The same
    (dim, count, seed) always yields the same net.
    """
    if dim < 1 or count < 1:
        raise ValueError("need dim >= 1 and count >= 1")
    if dim == 1:
        return np.array([[1.0], [-1.0]])[:count]
    if dim == 2:
        phase = (_derive_key(seed, ("net2",)) % (1 << 32)) / (1 << 32)
        theta = 2.0 * np.pi * (np.arange(count) + phase) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        return _fibonacci_sphere(count)
    return SeedStream(seed).derive("net", dim, count).sphere(count, dim)


def covering_net(dim: int, delta: float, seed: int = 0) -> np.ndarray:
    """A direction net aimed at covering radius <= delta.

    The angular grid on the circle certifies the bound exactly; the
    Fibonacci sphere uses a conservative count.  For dim >= 4 the count
    is a heuristic (seeded Gaussian cloud) and no covering certificate
    is claimed.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        count = max(8, math.ceil(math.pi / delta))
        return direction_net(2, count, seed)
    if dim == 3:
        count = max(64, math.ceil((3.6 / delta) ** 2))
        return direction_net(3, count, seed)
    count = min(500_000, max(1024, math.ceil((4.0 / delta)) ** (dim - 1)))
    return direction_net(dim, count, seed)
