"""Discrete even measures on projective space and the zonotope dictionary.

A zonotope with generators v_i corresponds to the atomic measure with
atoms v_i/||v_i|| and weights ||v_i||/2; its support function is the
cosine transform of that measure,

    H(mu)(u) = sum_i w_i |<u, a_i>| = h_K(u),

and total mass is length(K)/2.  Signed weights represent formal
differences of zonotopes and split Hahn-Jordan style on demand.

Atoms and weights are float64 arrays or object arrays of Fractions, and
each map is one numpy expression for both.  Only the float coercion and
rounding checks, the float fallback for irrational norms and total_mass
look at the field; JSON rows go through the zonotope module's codec.
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
    _integer,
    _rows_from_json,
    _rows_to_json,
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
        atoms, weights = np.asarray(self.atoms), np.asarray(self.weights)
        if atoms.size == 0:
            atoms = atoms.reshape(0, self.ambient_dim)
        if atoms.ndim != 2 or atoms.shape[1] != self.ambient_dim:
            raise ValueError("atoms must be rows of length ambient_dim")
        if weights.shape != (atoms.shape[0],):
            raise ValueError("one weight per atom required")
        if atoms.dtype != object:  # float64 atoms and weights, unit up to rounding
            atoms, weights = atoms.astype(np.float64), weights.astype(np.float64)
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
        return bool(np.all(self.weights >= 0))


def cosine_transform_eval(mu: DiscreteEvenMeasure, u):
    """H(mu)(u) = sum_i w_i |<u, a_i>|, with u taken in the atoms' field."""
    u = np.asarray(u)
    if u.shape != (mu.ambient_dim,):
        raise ValueError("direction dimension mismatch")
    if mu.n_atoms == 0:
        return mu.total_mass()
    total = np.sum(mu.weights * np.abs(mu.atoms @ u.astype(mu.atoms.dtype)))
    return np.asarray(total).item()  # a Python float, or the Fraction itself


def zonotope_to_measure(K: Zonotope) -> DiscreteEvenMeasure:
    """Atom v/||v|| with weight ||v||/2 for each generator of canonical K.

    Exact-rational zonotopes stay exact when every generator has
    rational norm; otherwise the measure falls back to floats.
    """
    gens = canonicalize(K).generators
    roots = [_exact_sqrt(q) for q in np.sum(gens * gens, axis=1)] if K.exact else [None]
    if None in roots:  # a float body, or an irrational norm: the measure is float
        gens = gens.astype(np.float64)
        roots = np.linalg.norm(gens, axis=1)
    norms = np.asarray(roots, dtype=gens.dtype)
    return DiscreteEvenMeasure(K.ambient_dim, gens / norms[:, None], norms / 2)


def measure_to_zonotope(mu: DiscreteEvenMeasure) -> Zonotope:
    """Generator 2 w_i a_i per atom; weights must be nonnegative."""
    if not mu.is_nonnegative():
        raise ValueError(
            "negative weight: split signed measures with signed_measure_to_virtual"
        )
    return canonicalize(Zonotope(mu.ambient_dim, 2 * mu.weights[:, None] * mu.atoms))


def signed_measure_to_virtual(mu: DiscreteEvenMeasure) -> VirtualZonotope:
    """Hahn-Jordan split: positive atoms feed plus, negative feed minus."""

    def part(mask, sign):
        return measure_to_zonotope(
            DiscreteEvenMeasure(mu.ambient_dim, mu.atoms[mask], sign * mu.weights[mask])
        )

    return VirtualZonotope(part(mu.weights > 0, 1), part(mu.weights < 0, -1))


def measure_to_dict(mu: DiscreteEvenMeasure) -> dict:
    """JSON form {"atoms": [[...]], "weights": [...]}; with no atoms to
    carry the row length, "ambient_dim" comes first."""
    d = {"atoms": _rows_to_json(mu.atoms), "weights": _rows_to_json(mu.weights[None])[0]}
    return d if d["atoms"] else {"ambient_dim": mu.ambient_dim, **d}


def measure_from_dict(d: dict, exact: bool = False) -> DiscreteEvenMeasure:
    """Inverse of measure_to_dict.  A string among the weights makes the
    atoms exact too, and exact atoms make the weights exact."""
    atoms_raw, weights_raw = d["atoms"], d["weights"]
    if len(weights_raw) != len(atoms_raw):
        raise KeyError("one weight per atom required")
    dim = _integer(d.get("ambient_dim", len(atoms_raw[0]) if atoms_raw else 0))
    exact = exact or any(isinstance(w, str) for w in weights_raw)
    atoms = _rows_from_json(atoms_raw, dim, exact)
    weights = _rows_from_json([weights_raw], len(weights_raw), atoms.dtype == object)[0]
    # Tolerate float directions that are not quite unit length, but leave
    # already-unit atoms untouched so serialization round trips bitwise.
    if atoms.dtype != object and atoms.shape[0]:
        norms = np.linalg.norm(atoms, axis=1)
        if np.any(norms == 0):
            raise ValueError("zero atom in measure")
        off = np.abs(norms - 1.0) > _UNIT_TOL
        atoms[off] /= norms[off, None]
        weights[off] *= norms[off]
        atoms = _sign_normalize_float(atoms)
    return DiscreteEvenMeasure(dim, atoms, weights)
