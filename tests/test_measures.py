"""Tests for even measures on the sphere and the cosine transform."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zonoidal import (
    DiscreteEvenMeasure,
    Zonotope,
    canonical_eq,
    canonicalize,
    cosine_transform_eval,
    length,
    measure_from_dict,
    measure_to_dict,
    measure_to_zonotope,
    signed_measure_to_virtual,
    support,
    support_many,
    virtual_support,
    zonotope,
    zonotope_to_measure,
)
from zonoidal.sampling import direction_net


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def test_atoms_must_be_unit():
    with pytest.raises(ValueError):
        DiscreteEvenMeasure(2, np.array([[2.0, 0.0]]), np.array([1.0]))


def test_cosine_transform_single_atom():
    mu = DiscreteEvenMeasure(2, np.array([[1.0, 0.0]]), np.array([1.0]))
    assert math.isclose(cosine_transform_eval(mu, [1.0, 0.0]), 1.0)
    assert math.isclose(cosine_transform_eval(mu, [0.0, 1.0]), 0.0)
    assert math.isclose(cosine_transform_eval(mu, [1.0, 1.0]), 1.0)


def test_cosine_transform_exact():
    mu = DiscreteEvenMeasure(
        2,
        np.array([[Fraction(3, 5), Fraction(4, 5)]], dtype=object),
        np.array([Fraction(7, 2)], dtype=object),
    )
    val = cosine_transform_eval(mu, np.array([Fraction(1), Fraction(0)], dtype=object))
    assert isinstance(val, Fraction)
    assert val == Fraction(7, 2) * Fraction(3, 5)


def test_zonotope_to_measure_atoms():
    K = zonotope([[2.0, 0.0]])
    mu = zonotope_to_measure(K)
    assert np.allclose(mu.atoms, [[1.0, 0.0]])
    assert np.allclose(mu.weights, [1.0])
    assert math.isclose(mu.total_mass(), 1.0)


def test_length_is_twice_mass():
    g = rng(1)
    for _ in range(10):
        K = zonotope(g.standard_normal((int(g.integers(1, 6)), 3)))
        mu = zonotope_to_measure(K)
        assert math.isclose(length(K), 2.0 * mu.total_mass(), rel_tol=1e-12)


def test_transform_equals_support_on_net():
    g = rng(2)
    K = zonotope(g.standard_normal((5, 3)))
    mu = zonotope_to_measure(K)
    U = direction_net(3, 200)
    for u in U:
        assert math.isclose(cosine_transform_eval(mu, u), support(K, u),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_roundtrip_float():
    g = rng(3)
    K = canonicalize(zonotope(g.standard_normal((4, 2))))
    back = measure_to_zonotope(zonotope_to_measure(K))
    assert canonical_eq(K, back)


def test_roundtrip_bitexact_dyadic_norms():
    # norms 1, 2, 4 are exact in binary, so the float round trip is bitwise
    K = canonicalize(zonotope([[1.0, 0.0], [0.0, 2.0], [2.4, 3.2]]))
    back = canonicalize(measure_to_zonotope(zonotope_to_measure(K)))
    assert np.array_equal(K.generators, back.generators)


def test_roundtrip_exact_rational():
    arr = np.empty((2, 2), dtype=object)
    arr[0, :] = [Fraction(3), Fraction(4)]
    arr[1, :] = [Fraction(5, 13), Fraction(-12, 13)]
    K = canonicalize(zonotope(arr))
    mu = zonotope_to_measure(K)
    assert mu.exact
    back = canonicalize(measure_to_zonotope(mu))
    assert back.exact
    assert all(x == y for ra, rb in zip(K.generators, back.generators)
               for x, y in zip(ra, rb))


def test_exact_falls_back_to_float_on_irrational_norm():
    arr = np.empty((1, 2), dtype=object)
    arr[0, :] = [Fraction(1), Fraction(1)]  # norm sqrt(2)
    mu = zonotope_to_measure(zonotope(arr))
    assert not mu.exact
    assert math.isclose(mu.total_mass(), math.sqrt(2.0) / 2.0, rel_tol=1e-12)


def test_measure_to_zonotope_requires_nonnegative():
    mu = DiscreteEvenMeasure(2, np.array([[1.0, 0.0]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        measure_to_zonotope(mu)


def test_signed_measure_virtual():
    mu = DiscreteEvenMeasure(
        2,
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([1.0, -0.5]),
    )
    W = signed_measure_to_virtual(mu)
    g = rng(4)
    for _ in range(10):
        u = g.standard_normal(2)
        want = abs(u[0]) * 1.0 - abs(u[1]) * 0.5
        assert math.isclose(virtual_support(W, u), want, rel_tol=1e-12, abs_tol=1e-12)


def test_transform_linearity():
    g = rng(5)
    a1 = g.standard_normal((2, 3))
    a1 /= np.linalg.norm(a1, axis=1, keepdims=True)
    a2 = g.standard_normal((3, 3))
    a2 /= np.linalg.norm(a2, axis=1, keepdims=True)
    w1 = np.abs(g.standard_normal(2))
    w2 = np.abs(g.standard_normal(3))
    mu1 = DiscreteEvenMeasure(3, a1, w1)
    mu2 = DiscreteEvenMeasure(3, a2, w2)
    comb = DiscreteEvenMeasure(3, np.vstack([a1, a2]),
                               np.concatenate([2.0 * w1, 3.0 * w2]))
    u = g.standard_normal(3)
    assert math.isclose(
        cosine_transform_eval(comb, u),
        2.0 * cosine_transform_eval(mu1, u) + 3.0 * cosine_transform_eval(mu2, u),
        rel_tol=1e-12,
    )


def test_distinct_measures_separated_on_net():
    mu1 = DiscreteEvenMeasure(2, np.array([[1.0, 0.0]]), np.array([1.0]))
    mu2 = DiscreteEvenMeasure(2, np.array([[0.0, 1.0]]), np.array([1.0]))
    U = direction_net(2, 500)
    gaps = [abs(cosine_transform_eval(mu1, u) - cosine_transform_eval(mu2, u)) for u in U]
    assert max(gaps) > 0.5


def test_measure_dict_roundtrip():
    # atoms of an even measure are stored sign-normalized; start from the
    # canonical representative so the round trip is bitwise
    g = rng(6)
    mu = zonotope_to_measure(zonotope(g.standard_normal((3, 2))))
    back = measure_from_dict(measure_to_dict(mu))
    assert np.array_equal(back.atoms, mu.atoms)
    assert np.array_equal(back.weights, mu.weights)


def test_measure_dict_roundtrip_exact():
    mu = DiscreteEvenMeasure(
        2,
        np.array([[Fraction(3, 5), Fraction(4, 5)]], dtype=object),
        np.array([Fraction(9, 4)], dtype=object),
    )
    d = measure_to_dict(mu)
    back = measure_from_dict(d, exact=True)
    assert back.exact
    assert back.atoms[0][0] == Fraction(3, 5)
    assert back.weights[0] == Fraction(9, 4)


def test_from_dict_renormalizes_offunit_atoms():
    d = {"ambient_dim": 2, "atoms": [[2.0, 0.0]], "weights": [1.0]}
    mu = measure_from_dict(d)
    assert np.allclose(mu.atoms, [[1.0, 0.0]])
    assert np.allclose(mu.weights, [2.0])
    u = [1.0, 0.0]
    ref = DiscreteEvenMeasure(2, np.array([[1.0, 0.0]]), np.array([2.0]))
    assert math.isclose(cosine_transform_eval(mu, u), cosine_transform_eval(ref, u))


def exact_measure(atoms, weights, dim=2):
    a = np.empty((len(atoms), dim), dtype=object)
    for i, row in enumerate(atoms):
        a[i, :] = [Fraction(x) for x in row]
    return DiscreteEvenMeasure(dim, a, np.array([Fraction(w) for w in weights], dtype=object))


def all_fractions(arr):
    return arr.dtype == object and all(isinstance(x, Fraction) for x in arr.flat)


def test_exact_signed_measure_keeps_fractions():
    mu = exact_measure([["1", "0"], ["0", "1"], ["3/5", "4/5"]], ["1", "-1/2", "1/4"])
    W = signed_measure_to_virtual(mu)
    assert W.plus.exact and W.minus.exact
    assert all_fractions(W.plus.generators) and all_fractions(W.minus.generators)
    assert [list(r) for r in W.minus.generators] == [[0, 1]]
    u = np.array([Fraction(2), Fraction(-1, 3)], dtype=object)
    val = cosine_transform_eval(mu, u)
    assert isinstance(val, Fraction)
    assert val == 2 - Fraction(1, 6) + Fraction(1, 4) * abs(Fraction(6, 5) - Fraction(4, 15))
    assert val == virtual_support(W, u)
    back = measure_from_dict(measure_to_dict(mu))
    assert back.exact and all_fractions(back.atoms) and all_fractions(back.weights)
    assert (back.atoms == mu.atoms).all() and (back.weights == mu.weights).all()


def test_exact_empty_measure_keeps_fractions():
    mu = exact_measure([], [])
    W = signed_measure_to_virtual(mu)
    assert W.plus.exact and W.minus.exact
    assert W.plus.n_generators == W.minus.n_generators == 0
    assert measure_to_zonotope(mu).exact
    val = cosine_transform_eval(mu, np.array([Fraction(1), Fraction(2)], dtype=object))
    assert isinstance(val, Fraction) and val == 0
    assert mu.total_mass() == 0 and isinstance(mu.total_mass(), Fraction)
    d = measure_to_dict(mu)
    assert d == {"ambient_dim": 2, "atoms": [], "weights": []}
    back = measure_from_dict(d, exact=True)
    assert back.exact and back.atoms.shape == (0, 2) and back.weights.dtype == object


def test_exact_zonotope_to_measure_keeps_fractions():
    K = zonotope(np.array([[Fraction(3), Fraction(4)], [Fraction(0), Fraction(-2)]], dtype=object))
    mu = zonotope_to_measure(K)
    assert all_fractions(mu.atoms) and all_fractions(mu.weights)
    assert mu.total_mass() == Fraction(7, 2)
    empty = zonotope_to_measure(Zonotope(2, np.empty((0, 2), dtype=object)))
    assert empty.exact and empty.n_atoms == 0


def test_from_dict_reads_ragged_rows_as_schema_errors():
    with pytest.raises(KeyError):
        measure_from_dict({"atoms": [["1", "0"], ["2"]], "weights": ["1/2", "1"]})
    with pytest.raises(KeyError):
        measure_from_dict({"atoms": [[1.0, 0.0], [2.0]], "weights": [0.5, 1.0]})
    with pytest.raises(KeyError):
        measure_from_dict({"atoms": [[1.0, 0.0]], "weights": [0.5, 1.0]})
