"""Discrete even measures on projective space and the zonotope dictionary.

A zonotope with generators v_i corresponds to the atomic measure with
atoms v_i/||v_i|| and weights ||v_i||/2; its support function is the
cosine transform of that measure,

    H(mu)(u) = sum_i w_i |<u, a_i>| = h_K(u),

and total mass is length(K)/2.  Signed weights represent formal
differences of zonotopes and split Hahn-Jordan style on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .zonotope import (
    Zonotope,
    VirtualZonotope,
    canonicalize,
    zonotope,
    _sign_normalize_float,
)

__all__ = [
    "DiscreteEvenMeasure",
    "cosine_transform_eval",
    "zonotope_to_measure",
    "measure_to_zonotope",
    "signed_measure_to_virtual",
    "measure_to_dict",
    "measure_from_dict",
]

_UNIT_TOL = 1e-12


def _exact_sqrt(q: Fraction) -> Fraction | None:
    """Square root of a nonnegative Fraction if it is rational, else None."""
    if q < 0:
        raise ValueError("negative radicand")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class DiscreteEvenMeasure:
    """Weighted atoms on projective space, atoms in sign-canonical form."""

    ambient_dim: int
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms)
        if atoms.dtype != object:
            atoms = atoms.astype(np.float64)
        weights = np.asarray(self.weights)
        if weights.dtype != object:
            weights = weights.astype(np.float64)
        if atoms.size == 0:
            atoms = atoms.reshape(0, self.ambient_dim)
        if atoms.ndim != 2 or atoms.shape[1] != self.ambient_dim:
            raise ValueError("atoms must be rows of length ambient_dim")
        if weights.shape != (atoms.shape[0],):
            raise ValueError("one weight per atom required")
        if atoms.dtype != object:
            norms = np.linalg.norm(atoms, axis=1)
            if atoms.shape[0] and np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
                raise ValueError("atoms must be unit vectors")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def exact(self) -> bool:
        return self.atoms.dtype == object

    def total_mass(self):
        if self.exact:
            return sum(self.weights, Fraction(0))
        return float(np.sum(self.weights))

    def is_nonnegative(self) -> bool:
        if self.exact:
            return all(w >= 0 for w in self.weights)
        return bool(np.all(self.weights >= 0))


def cosine_transform_eval(mu: DiscreteEvenMeasure, u):
    """H(mu)(u) = sum_i w_i |<u, a_i>|."""
    u = np.asarray(u)
    if u.shape != (mu.ambient_dim,):
        raise ValueError("direction dimension mismatch")
    if mu.n_atoms == 0:
        return Fraction(0) if mu.exact else 0.0
    if mu.exact:
        total = Fraction(0)
        for a, w in zip(mu.atoms, mu.weights):
            total += w * abs(sum(x * y for x, y in zip(a, u)))
        return total
    return float(np.sum(mu.weights * np.abs(mu.atoms @ u.astype(np.float64))))


def zonotope_to_measure(K: Zonotope) -> DiscreteEvenMeasure:
    """Atom v/||v|| with weight ||v||/2 for each generator of canonical K.

    Exact-rational zonotopes stay exact when every generator has
    rational norm; otherwise the measure falls back to floats.
    """
    K = canonicalize(K)
    if K.n_generators == 0:
        dtype = object if K.exact else np.float64
        return DiscreteEvenMeasure(
            K.ambient_dim,
            np.empty((0, K.ambient_dim), dtype=dtype),
            np.empty(0, dtype=dtype),
        )
    if K.exact:
        norms = [_exact_sqrt(sum(x * x for x in row)) for row in K.generators]
        if all(n is not None for n in norms):
            atoms = np.empty((K.n_generators, K.ambient_dim), dtype=object)
            weights = np.empty(K.n_generators, dtype=object)
            for i, (row, n) in enumerate(zip(K.generators, norms)):
                atoms[i, :] = [x / n for x in row]
                weights[i] = n / 2
            return DiscreteEvenMeasure(K.ambient_dim, atoms, weights)
    gens = K.generators.astype(np.float64)
    norms = np.linalg.norm(gens, axis=1)
    return DiscreteEvenMeasure(K.ambient_dim, gens / norms[:, None], norms / 2.0)


def measure_to_zonotope(mu: DiscreteEvenMeasure) -> Zonotope:
    """Generator 2 w_i a_i per atom; weights must be nonnegative."""
    if not mu.is_nonnegative():
        raise ValueError(
            "negative weight: split signed measures with signed_measure_to_virtual"
        )
    if mu.n_atoms == 0:
        gens = np.empty((0, mu.ambient_dim), dtype=mu.atoms.dtype)
        return zonotope(gens, ambient_dim=mu.ambient_dim)
    if mu.exact:
        gens = np.empty_like(mu.atoms)
        for i in range(mu.n_atoms):
            gens[i, :] = [2 * mu.weights[i] * x for x in mu.atoms[i]]
    else:
        gens = 2.0 * mu.weights[:, None] * mu.atoms
    return canonicalize(Zonotope(mu.ambient_dim, gens))


def signed_measure_to_virtual(mu: DiscreteEvenMeasure) -> VirtualZonotope:
    """Hahn-Jordan split: positive atoms feed plus, negative feed minus."""
    if mu.exact:
        pos = [i for i, w in enumerate(mu.weights) if w > 0]
        neg = [i for i, w in enumerate(mu.weights) if w < 0]
    else:
        pos = list(np.nonzero(mu.weights > 0)[0])
        neg = list(np.nonzero(mu.weights < 0)[0])

    def part(idx, flip):
        atoms = mu.atoms[idx] if idx else mu.atoms[:0]
        weights = mu.weights[idx] if idx else mu.weights[:0]
        if flip:
            weights = np.array([-w for w in weights], dtype=weights.dtype)
        return measure_to_zonotope(
            DiscreteEvenMeasure(mu.ambient_dim, atoms, weights)
        )

    return VirtualZonotope(part(pos, False), part(neg, True))


def measure_to_dict(mu: DiscreteEvenMeasure) -> dict:
    """JSON form {"atoms": [[...]], "weights": [...]}."""
    if mu.exact:
        atoms = [[str(x) for x in row] for row in mu.atoms]
        weights = [str(w) for w in mu.weights]
    else:
        atoms = [[float(x) for x in row] for row in mu.atoms]
        weights = [float(w) for w in mu.weights]
    return {"atoms": atoms, "weights": weights}


def measure_from_dict(d: dict, exact: bool = False) -> DiscreteEvenMeasure:
    atoms_raw = d["atoms"]
    weights_raw = d["weights"]
    if exact:
        n = len(atoms_raw)
        m = len(atoms_raw[0]) if n else int(d.get("ambient_dim", 0))
        atoms = np.empty((n, m), dtype=object)
        for i, row in enumerate(atoms_raw):
            atoms[i, :] = [Fraction(x) for x in row]
        weights = np.array([Fraction(w) for w in weights_raw], dtype=object)
        return DiscreteEvenMeasure(m, atoms, weights)
    atoms = np.asarray(atoms_raw, dtype=np.float64)
    if atoms.size == 0:
        atoms = atoms.reshape(0, int(d.get("ambient_dim", 0)))
    weights = np.asarray(weights_raw, dtype=np.float64)
    # Tolerate direction lists that are not quite unit length, but leave
    # already-unit atoms untouched so serialization round trips bitwise.
    if atoms.shape[0]:
        norms = np.linalg.norm(atoms, axis=1)
        if np.any(norms == 0):
            raise ValueError("zero atom in measure")
        off = np.abs(norms - 1.0) > _UNIT_TOL
        if np.any(off):
            atoms = atoms.copy()
            weights = weights.copy()
            atoms[off] /= norms[off, None]
            weights[off] *= norms[off]
        atoms = _sign_normalize_float(atoms)
    return DiscreteEvenMeasure(atoms.shape[1], atoms, weights)
