"""Tests for random matrix blocks, expected determinants and constants."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zonoidal import (
    DiscreteDistribution,
    MatrixBlock,
    MatrixBlockModel,
    SeededSampler,
    bernoulli_mixture,
    bm_concavity_probe,
    canonical_eq,
    complex_gaussian_abs_det,
    distribution_to_dict,
    empirical_zonotope,
    expected_abs_det_complex_exact,
    expected_abs_det_complex_mc,
    expected_abs_det_exact,
    expected_abs_det_mc,
    expected_simple_wedge_norm,
    expected_sq_abs_det_complex,
    gaussian_abs_det,
    hausdorff_estimate,
    iid_column_model,
    j_ball_volume,
    length,
    minkowski_sum,
    model_from_dict,
    multivariate_gamma,
    scale_distribution,
    support,
    tau,
    vitale_zonotope,
    volume,
    zonotope,
)
from zonoidal import algebra, randomdet, sampling
from zonoidal.exterior import _row_blocks
from zonoidal.sampling import CHUNK, SLICE, SeedStream, _mc_mean_se, chunk_sizes
from zonoidal.testkit import brute_force_expected_abs_det


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def random_discrete(g, n_atoms, dim, complex_field=False):
    atoms = g.standard_normal((n_atoms, dim))
    if complex_field:
        atoms = atoms + 1j * g.standard_normal((n_atoms, dim))
    probs = g.random(n_atoms) + 0.1
    probs /= probs.sum()
    return DiscreteDistribution(atoms, probs)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.eye(2), [0.5, 0.6])
    with pytest.raises(ValueError):
        DiscreteDistribution(np.eye(2), [1.1, -0.1])


def test_vitale_zonotope():
    d = DiscreteDistribution(np.array([[2.0, 0.0]]), [1.0])
    K = vitale_zonotope(d)
    assert np.allclose(K.generators, [[2.0, 0.0]])
    g = rng(1)
    d2 = random_discrete(g, 4, 3)
    K2 = vitale_zonotope(d2)
    want = sum(p * np.linalg.norm(a) for a, p in zip(d2.atoms, d2.probs))
    assert math.isclose(length(K2), want, rel_tol=1e-12)


def test_empirical_zonotope_law_of_large_numbers():
    n = 100_000
    sampler = SeededSampler("gaussian", 2, seed=4)
    K = empirical_zonotope(sampler, n)
    X = sampler.sample(n)
    norms = np.linalg.norm(X, axis=1)
    se_len = norms.std(ddof=1) / math.sqrt(n)
    assert abs(length(K) - tau(2) / math.sqrt(2 * math.pi)) <= 4 * se_len
    dots = np.abs(X[:, 0])
    se_sup = 0.5 * dots.std(ddof=1) / math.sqrt(n)
    target = 0.5 * math.sqrt(2.0 / math.pi)
    assert abs(support(K, [1.0, 0.0]) - target) <= 4 * se_sup


def test_samplers_that_cannot_be_drawn_empirically_are_refused(monkeypatch):
    for dim in (0, -2):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            SeededSampler("gaussian", dim)
    drawn = []
    monkeypatch.setattr(SeededSampler, "sample", lambda self, n: drawn.append(n))
    complex_dist = DiscreteDistribution(np.array([[1j, 0.0]]), np.array([1.0]))
    for sampler in (SeededSampler("complex_gaussian", 2),
                    SeededSampler("discrete", 2, dist=complex_dist)):
        with pytest.raises(ValueError, match="expects a real sampler"):
            empirical_zonotope(sampler, 10)
    assert drawn == []  # refused before a draw


def test_empirical_recovers_discrete_in_hausdorff():
    g = rng(2)
    d = random_discrete(g, 3, 2)
    K = vitale_zonotope(d)
    small = empirical_zonotope(SeededSampler("discrete", 2, seed=7, dist=d), 300)
    big = empirical_zonotope(SeededSampler("discrete", 2, seed=7, dist=d), 30_000)
    _, hi_small = hausdorff_estimate(small, K, delta=1e-3)
    _, hi_big = hausdorff_estimate(big, K, delta=1e-3)
    assert hi_big < hi_small
    assert hi_big < 0.1 * length(K)


def test_tau_values():
    assert math.isclose(tau(1), 2.0, rel_tol=1e-12)
    assert math.isclose(tau(2), math.pi, rel_tol=1e-12)
    assert math.isclose(tau(3), 4.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        tau(0)


def test_multivariate_gamma():
    for x in (1.0, 2.5):
        assert math.isclose(multivariate_gamma(1, x), math.gamma(x), rel_tol=1e-12)
    want = math.pi ** 0.5 * math.gamma(2.0) * math.gamma(1.5)
    assert math.isclose(multivariate_gamma(2, 2.0), want, rel_tol=1e-12)
    with pytest.raises(ValueError):
        multivariate_gamma(3, 0.5)


def test_expected_wedge_norm_and_gaussian_dets():
    for m in (1, 2, 3, 5):
        assert math.isclose(expected_simple_wedge_norm(1, m),
                            tau(m) / math.sqrt(2 * math.pi), rel_tol=1e-12)
    assert math.isclose(gaussian_abs_det(1), math.sqrt(2 / math.pi), rel_tol=1e-12)
    assert math.isclose(gaussian_abs_det(2), 1.0, rel_tol=1e-12)
    assert math.isclose(gaussian_abs_det(3), 2 * math.sqrt(2) / math.sqrt(math.pi),
                        rel_tol=1e-12)


def test_complex_gaussian_det_and_ball_volume():
    assert math.isclose(complex_gaussian_abs_det(1), math.sqrt(math.pi) / 2, rel_tol=1e-12)
    assert math.isclose(complex_gaussian_abs_det(2), 3 * math.pi / 8, rel_tol=1e-12)
    assert math.isclose(j_ball_volume(1), math.pi, rel_tol=1e-12)
    assert math.isclose(j_ball_volume(2), 3 * math.pi ** 2 / 4, rel_tol=1e-12)
    # E|det| of the complex gaussian matches the J-volume of the ball
    for n in range(1, 5):
        lhs = complex_gaussian_abs_det(n)
        rhs = math.factorial(n) / (2 * math.sqrt(math.pi)) ** n * j_ball_volume(n)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_exact_iid_matches_brute_and_vitale():
    g = rng(3)
    d = random_discrete(g, 4, 3)
    model = iid_column_model(d, 3)
    exact = expected_abs_det_exact(model)
    brute = brute_force_expected_abs_det(model)
    assert math.isclose(exact, brute, rel_tol=1e-12)
    K = vitale_zonotope(d)
    assert math.isclose(exact, math.factorial(3) * volume(
        zonotope(K.generators, grading=(3, 1))), rel_tol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_exact_iid_abs_det_is_m_factorial_times_the_vitale_volume(m):
    # Vitale 1991: E|det| of m iid columns X is m! vol(K(X))
    d = random_discrete(rng(30 + m), m + 3, m)
    want = math.factorial(m) * volume(zonotope(vitale_zonotope(d).generators, grading=(m, 1)))
    assert math.isclose(expected_abs_det_exact(iid_column_model(d, m)), want, rel_tol=1e-12)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_exact_abs_det_shares_one_zonoid_per_distribution_and_width(complex_field, monkeypatch):
    """Blocks of one distribution at one width, as one object or as equal
    copies, are wedged as one power of their zonoid; other blocks are not."""
    powers = []

    def spy(K, d):
        powers.append((K.n_generators, d))
        return subset_power(K, d)

    subset_power = algebra._subset_power
    monkeypatch.setattr(algebra, "_subset_power", spy)
    g = rng(35)
    d, twin = random_discrete(g, 4, 4, complex_field), random_discrete(g, 4, 4, complex_field)
    copy = DiscreteDistribution(d.atoms.copy(), d.probs.copy())
    wide = DiscreteDistribution(g.standard_normal((3, 4, 2)), [0.2, 0.3, 0.5])
    blocks = (MatrixBlock(1, dist=d), MatrixBlock(1, dist=twin), MatrixBlock(1, dist=copy))
    for model in (iid_column_model(d, 4),
                  MatrixBlockModel(4, blocks + (MatrixBlock(1, dist=d),), complex_field),
                  MatrixBlockModel(4, (MatrixBlock(2, dist=wide),) + blocks[:2], complex_field)):
        assert math.isclose(expected_abs_det_exact(model), brute_force_expected_abs_det(model),
                            rel_tol=1e-12)
    assert powers == [(4, 4), (4, 3)]


def test_exact_abs_det_of_a_json_model_with_equal_blocks_is_the_iid_value():
    # the pairwise route over 5^3 tuples reads 1.1e-16 less on these atoms
    d = random_discrete(rng(38), 5, 3)
    blocks = [{"width": 1, "dist": json.loads(json.dumps(distribution_to_dict(d)))}
              for _ in range(3)]
    model = model_from_dict({"size": 3, "blocks": blocks})
    assert model.blocks[0].dist is not model.blocks[1].dist
    iid = iid_column_model(model.blocks[0].dist, 3)
    assert expected_abs_det_exact(model) == expected_abs_det_exact(iid)


def test_exact_block_widths():
    g = rng(4)
    wide = DiscreteDistribution(g.standard_normal((3, 3, 2)), [0.2, 0.3, 0.5])
    col = random_discrete(g, 2, 3)
    model = MatrixBlockModel(3, (MatrixBlock(2, dist=wide), MatrixBlock(1, dist=col)))
    assert math.isclose(expected_abs_det_exact(model),
                        brute_force_expected_abs_det(model), rel_tol=1e-12)


def test_exact_invariant_under_block_order():
    g = rng(5)
    d1 = random_discrete(g, 2, 2)
    d2 = random_discrete(g, 3, 2)
    m12 = MatrixBlockModel(2, (MatrixBlock(1, dist=d1), MatrixBlock(1, dist=d2)))
    m21 = MatrixBlockModel(2, (MatrixBlock(1, dist=d2), MatrixBlock(1, dist=d1)))
    assert math.isclose(expected_abs_det_exact(m12), expected_abs_det_exact(m21),
                        rel_tol=1e-12)


def test_mc_matches_exact_and_is_reproducible():
    g = rng(6)
    d = random_discrete(g, 3, 2)
    model = iid_column_model(d, 2)
    exact = expected_abs_det_exact(model)
    val, se = expected_abs_det_mc(model, 200_000, seed=11)
    assert se > 0
    assert abs(val - exact) <= 3 * se
    val2, se2 = expected_abs_det_mc(model, 200_000, seed=11)
    assert val == val2 and se == se2


def test_mc_stderr_at_a_large_mean():
    # Fixed columns 1e4 e1, 1e4 e2 and a third column (0, 0, 1 +- 1e-8)
    # with probability 1/2 each: |det| = 1e8 +- 1, so the true standard
    # error is 1/sqrt(n).  Summing x^2 - n mean^2 cancels at this scale.
    fixed = DiscreteDistribution(np.array([[[1e4, 0.0], [0.0, 1e4], [0.0, 0.0]]]),
                                 np.array([1.0]))
    col = DiscreteDistribution(np.array([[0.0, 0.0, 1.0 + 1e-8], [0.0, 0.0, 1.0 - 1e-8]]),
                               np.array([0.5, 0.5]))
    model = MatrixBlockModel(3, (MatrixBlock(2, dist=fixed), MatrixBlock(1, dist=col)))
    n = 200_000
    val, se = expected_abs_det_mc(model, n, seed=0)
    assert math.isclose(se, 1.0 / math.sqrt(n), rel_tol=0.1)
    assert abs(val - brute_force_expected_abs_det(model)) <= 5 * se


def test_mc_gaussian():
    model = MatrixBlockModel(
        2, tuple(MatrixBlock(1, sampler=SeededSampler("gaussian", 2)) for _ in range(2)))
    val, se = expected_abs_det_mc(model, 100_000, seed=2)
    assert abs(val - 1.0) <= 3 * se


def test_complex_exact_and_mc():
    g = rng(7)
    d1 = random_discrete(g, 2, 2, complex_field=True)
    d2 = random_discrete(g, 3, 2, complex_field=True)
    model = MatrixBlockModel(2, (MatrixBlock(1, dist=d1), MatrixBlock(1, dist=d2)),
                             complex_field=True)
    exact = expected_abs_det_complex_exact(model)
    assert math.isclose(exact, brute_force_expected_abs_det(model), rel_tol=1e-12)
    val, se = expected_abs_det_complex_mc(model, 100_000, seed=3)
    assert abs(val - exact) <= 3 * se
    # real atoms in a complex model reduce to the real functional
    dr1 = DiscreteDistribution(d1.atoms.real.astype(np.complex128), d1.probs)
    dr2 = DiscreteDistribution(d2.atoms.real.astype(np.complex128), d2.probs)
    cmodel = MatrixBlockModel(2, (MatrixBlock(1, dist=dr1), MatrixBlock(1, dist=dr2)),
                              complex_field=True)
    rmodel = MatrixBlockModel(2, (MatrixBlock(1, dist=DiscreteDistribution(d1.atoms.real, d1.probs)),
                                  MatrixBlock(1, dist=DiscreteDistribution(d2.atoms.real, d2.probs))))
    assert math.isclose(expected_abs_det_complex_exact(cmodel),
                        expected_abs_det_exact(rmodel), rel_tol=1e-12)


def test_complex_exact_of_three_blocks_matches_brute_force():
    # the middle product of the complex wedge chain is canonicalized
    g = rng(14)
    model = iid_column_model(random_discrete(g, 4, 3, complex_field=True), 3)
    assert model.complex_field
    want = brute_force_expected_abs_det(model)
    assert math.isclose(expected_abs_det_exact(model), want, rel_tol=1e-12)
    assert expected_abs_det_complex_exact(model) == expected_abs_det_exact(model)


def test_complex_atoms_in_a_real_model_are_rejected():
    d = random_discrete(rng(15), 3, 2, complex_field=True)
    real = MatrixBlockModel(2, (MatrixBlock(1, dist=d),) * 2)
    with pytest.raises(ValueError):
        expected_abs_det_exact(real)
    cplx = MatrixBlockModel(2, (MatrixBlock(1, dist=d),) * 2, complex_field=True)
    assert math.isclose(expected_abs_det_exact(cplx),
                        brute_force_expected_abs_det(cplx), rel_tol=1e-12)


def test_expected_sq_abs_det_complex():
    g = rng(8)
    one = DiscreteDistribution(np.array([[1.5 - 2.0j]]), [1.0])
    m1 = MatrixBlockModel(1, (MatrixBlock(1, dist=one),), complex_field=True)
    assert math.isclose(expected_sq_abs_det_complex(m1), abs(1.5 - 2.0j) ** 2, rel_tol=1e-12)
    d1 = random_discrete(g, 2, 2, complex_field=True)
    d2 = random_discrete(g, 2, 2, complex_field=True)
    model = MatrixBlockModel(2, (MatrixBlock(1, dist=d1), MatrixBlock(1, dist=d2)),
                             complex_field=True)
    want = brute_force_expected_abs_det(model, power=2)
    assert math.isclose(expected_sq_abs_det_complex(model), want, rel_tol=1e-12)
    # blocks wider than 1 and real models take the same second-moment chain;
    # Jensen: E|det| <= sqrt(E|det|^2)
    for model in _block_models([(40, (2, 2), False), (41, (2, 1, 2), False),
                                (42, (3, 3), False), (43, (2, 1, 1), True),
                                (44, (1,) * 6, True)]):
        sq = expected_sq_abs_det_complex(model)
        assert math.isclose(sq, brute_force_expected_abs_det(model, power=2), rel_tol=1e-12)
        assert expected_abs_det_exact(model) <= math.sqrt(sq)


def _block_models(specs, n_atoms=3):
    """One model per (seed, widths, complex_field): each block n_atoms
    random atom matrices of its width, with random probabilities."""
    for seed, widths, complex_field in specs:
        g, size, blocks = rng(seed), sum(widths), []
        for w in widths:
            atoms = g.standard_normal((n_atoms, size, w))
            if complex_field:
                atoms = atoms + 1j * g.standard_normal((n_atoms, size, w))
            probs = g.random(n_atoms) + 0.1
            blocks.append(MatrixBlock(w, dist=DiscreteDistribution(atoms, probs / probs.sum())))
        yield MatrixBlockModel(size, tuple(blocks), complex_field)


def test_var_abs_det_is_exact_and_matches_the_mc_stderr():
    # Var|det| = E|det|^2 - (E|det|)^2, both exact: the seeded Monte Carlo
    # stderr of n draws estimates sqrt(Var / n)
    n = 200_000
    for model in _block_models([(50, (1, 1, 1), False), (51, (2, 1), True),
                                (52, (2, 2), False)]):
        mean = expected_abs_det_exact(model)
        var = expected_sq_abs_det_complex(model) - mean ** 2
        val, se = expected_abs_det_mc(model, n, seed=4)
        assert abs(se / math.sqrt(var / n) - 1.0) <= 0.05
        assert abs(val - mean) <= 4.0 * se


def test_bernoulli_mixture_zonoid_is_minkowski_sum():
    g = rng(9)
    d1 = random_discrete(g, 2, 2)
    d2 = random_discrete(g, 3, 2)
    mix = bernoulli_mixture(d1, d2)
    assert canonical_eq(vitale_zonotope(mix),
                        minkowski_sum(vitale_zonotope(d1), vitale_zonotope(d2)))


def test_bm_probe_exact_concave_with_pure_endpoints():
    g = rng(10)
    d1 = random_discrete(g, 3, 2)
    d2 = random_discrete(g, 3, 2)
    curve = bm_concavity_probe(d1, d2, 2, t_grid=[0.0, 0.25, 0.5, 0.75, 1.0])
    ts, vals, ses = zip(*curve)
    assert all(s == 0.0 for s in ses)
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert b >= (a + c) / 2 - 1e-12
    pure1 = expected_abs_det_exact(iid_column_model(d1, 2))
    assert math.isclose(vals[-1], pure1 ** 0.5, rel_tol=1e-12)
    pure2 = expected_abs_det_exact(iid_column_model(d2, 2))
    assert math.isclose(vals[0], pure2 ** 0.5, rel_tol=1e-12)


@pytest.mark.parametrize("d", [0, -1])
def test_bm_probe_refuses_fewer_than_one_mixture_column(d):
    g = rng(12)
    d1, d2 = random_discrete(g, 3, 2), random_discrete(g, 3, 2)
    companions = np.eye(2, 2 - d)  # d plus the fixed columns is m = 2
    with pytest.raises(ValueError, match=f"got d = {d}"):
        bm_concavity_probe(d1, d2, d, companions=companions)


def test_bm_probe_with_companions_and_mc():
    g = rng(11)
    d1 = random_discrete(g, 2, 3)
    d2 = random_discrete(g, 2, 3)
    comp = g.standard_normal((3, 1))
    exact = bm_concavity_probe(d1, d2, 2, companions=comp, t_grid=[0.5])
    noisy = bm_concavity_probe(d1, d2, 2, companions=comp, t_grid=[0.5],
                               n=100_000, seed=13)
    (_, v_ex, _), (_, v_mc, se_mc) = exact[0], noisy[0]
    assert se_mc > 0
    assert abs(v_mc - v_ex) <= 3 * se_mc
    with pytest.raises(ValueError):
        bm_concavity_probe(d1, d2, 3, companions=comp)  # 3 + 1 != 3


def test_scale_distribution():
    g = rng(12)
    d = random_discrete(g, 3, 2)
    s = scale_distribution(d, 2.0)
    assert np.allclose(s.atoms, 2.0 * d.atoms)
    assert np.allclose(s.probs, d.probs)


def test_af_inequality_for_expected_dets():
    # (E|det(X, Y)|)^2 >= E|det(X, X')| E|det(Y, Y')|
    g = rng(13)
    X = random_discrete(g, 3, 2)
    Y = random_discrete(g, 3, 2)
    mxy = MatrixBlockModel(2, (MatrixBlock(1, dist=X), MatrixBlock(1, dist=Y)))
    cross = expected_abs_det_exact(mxy)
    diag = (expected_abs_det_exact(iid_column_model(X, 2))
            * expected_abs_det_exact(iid_column_model(Y, 2)))
    assert cross ** 2 >= diag * (1 - 1e-12)


def test_sampler_determinism_and_brute_cap():
    s1 = SeededSampler("uniform_sphere", 3, seed=5)
    s2 = SeededSampler("uniform_sphere", 3, seed=5)
    assert np.array_equal(s1.sample(100), s2.sample(100))
    g = rng(14)
    d = random_discrete(g, 10, 5)
    with pytest.raises(ValueError):
        brute_force_expected_abs_det(iid_column_model(d, 5), cap=1000)


def test_model_dict_roundtrip():
    g = rng(15)
    d = random_discrete(g, 3, 2)
    payload = {
        "size": 2,
        "complex": False,
        "blocks": [
            {"width": 1, "dist": {"atoms": d.atoms.tolist(), "probs": d.probs.tolist()}},
            {"width": 1, "dist": {"atoms": d.atoms.tolist(), "probs": d.probs.tolist()}},
        ],
    }
    model = model_from_dict(payload)
    assert model.size == 2
    assert math.isclose(expected_abs_det_exact(model),
                        expected_abs_det_exact(iid_column_model(d, 2)), rel_tol=1e-12)
    gpayload = {"size": 2, "blocks": [{"width": 2, "sampler": {"kind": "gaussian"}}]}
    gm = model_from_dict(gpayload)
    val, se = expected_abs_det_mc(gm, 50_000, seed=1)
    assert abs(val - 1.0) <= 4 * se


def test_mc_estimate_is_pinned_across_chunks():
    # 70000 draws span two chunks of the fixed schedule; the shared Monte
    # Carlo routine must reproduce these digits bit for bit (the table
    # route: one multinomial draw of the joint atom counts per chunk)
    d = DiscreteDistribution(np.array([[1.0, 0.2, -0.3], [0.1, -1.0, 0.5], [0.4, 0.4, 2.0]]),
                             np.array([0.2, 0.3, 0.5]))
    model = iid_column_model(d, 3)
    assert expected_abs_det_mc(model, 70_000, 9) == (0.41333034285714293, 0.003365912562704066)
    assert expected_abs_det_mc(model, 500, 9) == (0.4710640000000001, 0.04191364239296426)
    with pytest.raises(ValueError):
        expected_abs_det_mc(model, 1, 9)


def test_mc_estimate_bits_do_not_depend_on_blas_threads():
    # a BLAS dot splits long vectors across threads; the chunk sums of
    # squared deviations must not, so one and two threads agree bit for bit
    code = (
        "import numpy as np\n"
        "from zonoidal import DiscreteDistribution, expected_abs_det_mc, iid_column_model\n"
        "d = DiscreteDistribution(np.array([[1.0, 0.2, -0.3], [0.1, -1.0, 0.5],\n"
        "                                   [0.4, 0.4, 2.0]]), np.array([0.2, 0.3, 0.5]))\n"
        "print(repr(expected_abs_det_mc(iid_column_model(d, 3), 70_000, 9)))\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs == ["(0.41333034285714293, 0.003365912562704066)\n"] * 2


@pytest.mark.parametrize("n", [500, 20_000, 70_000, 200_000])
def test_vector_mc_rows_equal_scalar_calls(n):
    # T quantities of the same samples in one pass: |det|, |det|^2 and a
    # row whose mean dwarfs its spread; each row's estimate and error are
    # those of a scalar call on that row alone, bit for bit
    d = DiscreteDistribution(rng(20).standard_normal((5, 3)), np.full(5, 0.2))
    model = iid_column_model(d, 3)

    def rows(stream, size):
        a = randomdet._abs_det(model.sample(size, stream))
        return np.stack([a, a * a, 1e8 + a])

    stream = SeedStream(21).derive("vector")
    means, ses = _mc_mean_se(stream, n, rows)
    assert means.shape == ses.shape == (3,)
    for t in range(3):
        assert _mc_mean_se(stream, n, lambda s, size: rows(s, size)[t]) == (means[t], ses[t])


@pytest.mark.parametrize("n", [500, 200_000])
def test_mc_estimates_scale_by_powers_of_two_bit_for_bit(n):
    # values times 2^k give the estimate and the error times 2^k, also where
    # the squared deviations of the scaled values overflow (k = 600) or
    # underflow (k = -600); drawn values and table values with their counts
    ks = np.array([-600.0, -30.0, 0.0, 30.0, 600.0])[:, None]
    table, law = np.array([0.5, 2.0, 3.0, 7.5]), np.array([0.1, 0.2, 0.3, 0.4])
    for draw in (lambda s, size: s.uniforms(size) * 2.0 ** ks,
                 lambda s, size: (table * 2.0 ** ks, s._generator().multinomial(size, law))):
        means, ses = _mc_mean_se(SeedStream(22).derive("scale"), n, draw)
        assert np.all(ses > 0)
        assert np.array_equal(means, means[2] * 2.0 ** ks[:, 0])
        assert np.array_equal(ses, ses[2] * 2.0 ** ks[:, 0])


def _probe_models(d1, d2, d, companions, grid):
    """The probe's per-t models, built here from its definition."""
    models = []
    for t in grid:
        mix = bernoulli_mixture(scale_distribution(d1, t), scale_distribution(d2, 1.0 - t))
        blocks = [MatrixBlock(1, dist=mix)] * d
        if companions is not None:
            blocks.append(MatrixBlock(companions.shape[1], dist=DiscreteDistribution(
                companions[None], [1.0])))
        models.append(MatrixBlockModel(len(companions) if companions is not None else d,
                                       tuple(blocks)))
    return models


@pytest.mark.parametrize("grid", [None, [0.0, 0.3, 0.8]])
@pytest.mark.parametrize("with_companions", [False, True])
@pytest.mark.parametrize("n", [70_000, 200])
def test_mc_probe_is_expected_abs_det_mc_per_t(grid, with_companions, n, monkeypatch):
    # n = 70000 spans two chunks and reads the |det| tables, as n = 200
    # does for the 36 joint atoms of d = 2 beside a companion; without one,
    # d = 3 columns of 10 atoms have 1000 > 200, so each t's chunk is drawn
    g = rng(22)
    k = 3 if with_companions else 5
    d1, d2 = random_discrete(g, k, 3), random_discrete(g, k, 3)
    d, comp = (2, g.standard_normal((3, 1))) if with_companions else (3, None)
    ts = np.linspace(0.0, 1.0, 11).tolist() if grid is None else grid
    want = []
    for t, model in zip(ts, _probe_models(d1, d2, d, comp, ts)):
        val, se = expected_abs_det_mc(model, n, seed=23)
        want.append((t, val ** (1.0 / d), se / (d * val ** (1.0 - 1.0 / d))))
    stacks, abs_det = [], randomdet._abs_det
    monkeypatch.setattr(randomdet, "_abs_det", lambda a: stacks.append(len(a)) or abs_det(a))
    assert bm_concavity_probe(d1, d2, d, companions=comp, t_grid=grid, n=n, seed=23) == want
    support = math.prod(b.dist.n_atoms for b in _probe_models(d1, d2, d, comp, ts)[0].blocks)
    if support <= min(n, CHUNK):  # one |det| call over every t's support
        assert stacks == [len(ts) * support]
    else:
        assert len(stacks) == len(ts)


@pytest.mark.parametrize("n", [0, 1, -5])
def test_probe_refuses_fewer_than_two_samples(n):
    g = rng(24)
    d1, d2 = random_discrete(g, 2, 2), random_discrete(g, 2, 2)
    with pytest.raises(ValueError, match="need at least two samples"):
        bm_concavity_probe(d1, d2, 2, n=n)


def _table_models():
    rng = np.random.default_rng(14)
    real = DiscreteDistribution(rng.normal(size=(4, 3)), np.full(4, 0.25))
    cplx = DiscreteDistribution(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
                                np.array([0.5, 0.3, 0.2]))
    col = DiscreteDistribution(rng.normal(size=(5, 4)), np.full(5, 0.2))
    wide = MatrixBlock(2, dist=DiscreteDistribution(rng.normal(size=(3, 4, 2)),
                                                    np.array([0.6, 0.3, 0.1])))
    big = DiscreteDistribution(rng.normal(size=(17, 4)), np.full(17, 1 / 17))
    return {
        "real iid": iid_column_model(real, 3),
        "complex iid": iid_column_model(cplx, 3),
        "mixed widths": MatrixBlockModel(4, (wide, MatrixBlock(1, dist=col),
                                             MatrixBlock(1, dist=col))),
        "support above CHUNK": iid_column_model(big, 4),
    }


def _sampler_models():
    # sampler models that the chi route does not take (a Gaussian block
    # beside a block of another law, or no Gaussian block): each is drawn
    # in slices
    rng = np.random.default_rng(15)

    def blocks(size, *specs):
        return tuple(MatrixBlock(width, sampler=SeededSampler(kind, size))
                     for width, kind in specs)

    beside = MatrixBlock(2, dist=DiscreteDistribution(rng.normal(size=(3, 4, 2)),
                                                      np.array([0.5, 0.3, 0.2])))
    return {
        "gaussian width 1": MatrixBlockModel(4, blocks(
            4, (1, "gaussian"), (1, "gaussian"), (1, "gaussian"), (1, "uniform_sphere"))),
        "gaussian width 2": MatrixBlockModel(6, blocks(  # m > 4: LAPACK's det
            6, (2, "gaussian"), (2, "uniform_sphere"), (2, "uniform_sphere"))),
        "uniform sphere": MatrixBlockModel(3, blocks(3, *[(1, "uniform_sphere")] * 3)),
        "complex gaussian": MatrixBlockModel(4, blocks(  # the 4 x 4 complex kernel
            4, (2, "gaussian"), (2, "complex_gaussian")), complex_field=True),
        "sampler beside discrete": MatrixBlockModel(4, (
            MatrixBlock(2, sampler=SeededSampler("gaussian", 4)), beside)),
    }


def _support_table(model):
    """The joint atoms' |det|, in np.ravel_multi_index order of the blocks'
    atom indices, and the atom counts of the blocks."""
    shape = tuple(b.dist.n_atoms for b in model.blocks)
    joint = np.indices(shape).reshape(len(shape), -1)
    return randomdet._abs_det(model._stack(joint.shape[1], (
        b.atom_matrices(model.size)[i] for b, i in zip(model.blocks, joint)))), shape


# the sampler models' counts end in a one-sample chunk, a one-slice chunk
# and a chunk of two near-equal slices, or take one slice in all
@pytest.mark.parametrize("name, n", [
    *((name, n) for name in _table_models() for n in (2, 100, 70_000, 200_000)),
    *((name, n) for name in _sampler_models()
      for n in (CHUNK + 1, 2 * CHUNK + 3392, CHUNK + SLICE + 1, 5000))])
def test_mc_table_route_is_the_direct_route_bit_for_bit(name, n, monkeypatch):
    # the direct route (sampler blocks, supports above min(n, CHUNK)) is
    # model.sample's |det| chunk by chunk; the table route is each chunk's
    # statistics of the support's |det| table under the chunk stream's counts
    model = {**_table_models(), **_sampler_models()}[name]
    support = (math.prod(b.dist.n_atoms for b in model.blocks) if model.all_discrete()
               else math.inf)
    stream = SeedStream(5).derive("edet")
    if support <= min(n, CHUNK):
        table, _ = _support_table(model)
        laws = [b.dist.probs for b in model.blocks]
        count, mean, m2 = 0, 0.0, 0.0
        for ci, size in enumerate(chunk_sizes(n)):
            counts = stream.derive(ci)._counts(size, laws)
            assert counts.sum() == size and counts.shape == table.shape
            c_mean = np.sum(counts * table) / size
            c_m2 = np.sum(counts * ((table - c_mean) * (table - c_mean)))
            delta = c_mean - mean
            mean += delta * size / (count + size)
            m2 += c_m2 + delta * delta * count * size / (count + size)
            count += size
        ref = (float(mean), float(np.sqrt(m2 / (n - 1) / n)))
    else:
        ref = _mc_mean_se(stream, n, lambda s, size: randomdet._abs_det(model.sample(size, s)))
    stacks, abs_det = [], randomdet._abs_det
    monkeypatch.setattr(randomdet, "_abs_det", lambda a: stacks.append(len(a)) or abs_det(a))
    assert expected_abs_det_mc(model, n, 5) == ref
    # one |det| kernel call over the support matrices when there are at most
    # min(n, CHUNK) of them, else one per slice of each chunk of samples
    slices = [p.stop - p.start for size in chunk_sizes(n) for p in _row_blocks(size, SLICE)]
    assert stacks == ([support] if support <= min(n, CHUNK) else slices)


@pytest.mark.parametrize("name", ["real iid", "complex iid", "mixed widths"])
@pytest.mark.parametrize("n", [500, 70_000])
def test_mc_table_route_errors_are_standard_normal_over_seeds(name, n):
    # the counts route draws the same law as one atom index per sample: over
    # 200 fixed seeds, (estimate - exact) / stderr has mean near 0 and sd
    # near 1 (under numpy 2.4, the counts and the index draws both read
    # |mean| <= 0.15 and sd 0.94-1.06)
    model = _table_models()[name]
    exact = expected_abs_det_exact(model)
    z = []
    for seed in range(200):
        val, se = expected_abs_det_mc(model, n, seed)
        z.append((val - exact) / se)
    assert abs(np.mean(z)) <= 0.3
    assert 0.85 <= np.std(z, ddof=1) <= 1.15


@pytest.mark.parametrize("name", list(_sampler_models()))
def test_a_chunk_drawn_in_slices_repeats_the_whole_chunk(name, monkeypatch):
    # every |det| of the chunk, not only their mean: a one-row last slice
    # would sum the 4 x 4 complex kernel's terms in another order
    model, n, draws = _sampler_models()[name], SLICE + 1, []
    monkeypatch.setattr(randomdet, "_mc_mean_se", lambda stream, n, draw: draws.append(
        (stream.derive(0), draw(stream.derive(0), n))))
    expected_abs_det_mc(model, n, 3)
    [(stream, got)] = draws
    assert np.array_equal(got, randomdet._abs_det(model.sample(n, stream)))


def _gaussian_model(size, width, kind="gaussian", complex_field=None):
    return MatrixBlockModel(size, tuple(
        MatrixBlock(width, sampler=SeededSampler(kind, size)) for _ in range(size // width)),
        complex_field=kind == "complex_gaussian" if complex_field is None else complex_field)


# (model, exact E|det|): E|det|^2 = m! in both fields
_CHI_MODELS = {
    "real 1x1": (_gaussian_model(1, 1), gaussian_abs_det(1)),
    "real 4x4": (_gaussian_model(4, 1), gaussian_abs_det(4)),
    "real 6x6 width 2": (_gaussian_model(6, 2), gaussian_abs_det(6)),
    "complex 3x3": (_gaussian_model(3, 1, "complex_gaussian"), complex_gaussian_abs_det(3)),
}


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in _CHI_MODELS for n in (2, CHUNK + 5)),
    ("real blocks of a complex model", 1000)])
def test_gaussian_mc_is_a_product_of_gamma_factors_bit_for_bit(name, n, monkeypatch):
    # chunk ci's |det| are the products over j = 1 .. m of sqrt(2 Gamma(j/2))
    # (real) or sqrt(Gamma(j)) (complex), drawn factor by factor from
    # stream.derive(ci); no matrix is drawn and no determinant taken
    model = (_CHI_MODELS[name][0] if name in _CHI_MODELS
             else _gaussian_model(4, 2, complex_field=True))
    m, real = model.size, model.blocks[0].sampler.kind == "gaussian"

    def chunk(stream, size):
        g, vals = stream._generator(), np.ones(size)
        for j in range(1, m + 1):
            vals *= np.sqrt(2.0 * g.standard_gamma(j / 2, size) if real
                            else g.standard_gamma(j, size))
        return vals

    stream = SeedStream(9).derive("edet")
    want = _mc_mean_se(stream, n, chunk)
    draws, mc_mean_se = [], randomdet._mc_mean_se

    def spy(stream, n, draw):
        def logged(s, size):
            got = draw(s, size)
            draws.append((s, size, got.copy()))  # _mc_mean_se reuses got
            return got
        return mc_mean_se(stream, n, logged)
    monkeypatch.setattr(randomdet, "_mc_mean_se", spy)

    def refused(*args):
        raise AssertionError("the Gaussian route draws no matrix")
    monkeypatch.setattr(randomdet, "_abs_det", refused)
    monkeypatch.setattr(MatrixBlockModel, "_slices", refused)
    assert expected_abs_det_mc(model, n, 9) == want
    assert [size for _, size, _ in draws] == chunk_sizes(n)
    for ci, (s, size, got) in enumerate(draws):
        assert s._labels == stream.derive(ci)._labels
        assert np.array_equal(got, chunk(stream.derive(ci), size))


@pytest.mark.parametrize("name", list(_CHI_MODELS))
@pytest.mark.parametrize("n", [500, 70_000])
def test_gaussian_mc_errors_are_standard_normal_over_seeds(name, n):
    # over 200 fixed seeds (estimate - exact) / stderr has mean near 0 and sd
    # near 1, and the stderr estimates the true sd / sqrt(n) (under numpy
    # 2.4: |mean| <= 0.15, sd 0.92-1.05, mean stderr ratio 0.991-1.002)
    model, exact = _CHI_MODELS[name]
    true_se = math.sqrt(math.factorial(model.size) - exact ** 2) / math.sqrt(n)
    z, ratio = [], []
    for seed in range(200):
        val, se = expected_abs_det_mc(model, n, seed)
        z.append((val - exact) / se)
        ratio.append(se / true_se)
    assert abs(np.mean(z)) <= 0.3
    assert 0.85 <= np.std(z, ddof=1) <= 1.15
    assert abs(np.mean(ratio) - 1.0) <= (0.03 if n == 500 else 0.01)


def test_gaussian_mc_of_a_large_matrix_stays_finite():
    # E|det|^2 = 180! overflows a double, E|det| does not: each factor's
    # square root is taken before the product
    assert math.lgamma(181) > math.log(sys.float_info.max)
    val, se = expected_abs_det_mc(_gaussian_model(180, 1), 2000, 4)
    exact = gaussian_abs_det(180)
    assert math.isfinite(val) and math.isfinite(se) and math.isfinite(exact)
    assert abs(val - exact) <= 5 * se


def test_gaussian_stream_is_pinned():
    # numpy's ziggurat on the path's SFC64 stream; a change of either moves
    # every Gaussian, sphere and net draw in the library
    g = SeedStream(5).derive("g").gaussians(9)
    assert g[:8].tolist() == [
        -0.06319028078843543, 1.0557377983373037, -1.6768184175278236, 2.363147700843154,
        -0.02497384031483576, 0.7137601197955027, 0.029009076003368866, -0.10806847814635061,
    ]
    assert np.array_equal(SeedStream(5).derive("g").gaussians(1), g[:1])
    assert SeedStream(5).derive("g").gaussians(0).shape == (0,)
    s = SeedStream(5).derive("m")
    assert np.array_equal(s.gaussian_matrix(3, 4), s.gaussians(12).reshape(3, 4))
    x = SeedStream(11).derive("moments").gaussians(10**6)
    assert abs(x.mean()) <= 5e-3
    assert abs(x.var() - 1.0) <= 5e-3
    assert abs(np.mean(x**4) - 3.0) <= 3e-2


def test_a_sampled_chunk_holds_its_buffer_and_one_block_draw():
    # MatrixBlockModel._stack drops each block's draw before the next one
    size, width, n = 6, 2, CHUNK
    model = MatrixBlockModel(size, tuple(
        MatrixBlock(width, sampler=SeededSampler("gaussian", size, seed=3))
        for _ in range(size // width)))
    model.sample(8, SeedStream(1))  # one-time allocations outside the trace
    tracemalloc.start()
    try:
        A = model.sample(n, SeedStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer, block = n * size * size * 8, n * size * width * 8
    assert A.nbytes == buffer
    assert peak < buffer + block + 2**20


def test_a_monte_carlo_chunk_holds_one_slice_of_matrices():
    # a chunk of 6 x 6 matrices is drawn in slices into one reused buffer,
    # not into a buffer of the whole chunk's matrices
    size, width, n = 6, 2, CHUNK
    model = MatrixBlockModel(size, tuple(
        MatrixBlock(width, sampler=SeededSampler("gaussian", size, seed=3))
        for _ in range(size // width)))
    expected_abs_det_mc(model, 8, 1)  # one-time allocations outside the trace
    tracemalloc.start()
    try:
        expected_abs_det_mc(model, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * size * size * 8 / 2


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m", range(1, 7))
def test_abs_det_kernel_agrees_with_lapack(m, complex_field):
    g = rng(20 + m)

    def draw(n):
        A = g.standard_normal((n, m, m))
        return A + 1j * g.standard_normal((n, m, m)) if complex_field else A

    A = draw(300)
    ref = np.abs(np.linalg.det(A))
    assert np.all(np.abs(randomdet._abs_det(A) - ref) <= 1e-12 * ref)
    # near-singular: the last column is a combination of the others plus
    # 1e-9 of noise.  Rescaled by s = 1e+-70 (for m <= 4, where |det| stays
    # finite) the reference is s^m |det| at scale 1: numpy's det is
    # exp(log |det|), which loses about |log |det|| ulps.
    B = draw(300)
    B[..., -1] = B[..., :-1] @ g.standard_normal(m - 1) + 1e-9 * B[..., -1]
    for Y in (A, B):
        ref = np.abs(np.linalg.det(Y))
        for s in (1.0, 1e70, 1e-70) if m <= 4 else (1.0,):
            X = s * Y
            gap = np.abs(randomdet._abs_det(X) - ref * s ** m)
            assert np.all(gap <= 1e-14 * np.prod(np.linalg.norm(X, axis=1), axis=1))


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_model_sample_puts_each_block_at_its_columns(complex_field):
    g = rng(21)

    def atoms(*shape):
        a = g.standard_normal(shape)
        return a + 1j * g.standard_normal(shape) if complex_field else a

    kind = "complex_gaussian" if complex_field else "gaussian"
    model = MatrixBlockModel(5, (
        MatrixBlock(2, sampler=SeededSampler(kind, 5)),
        MatrixBlock(1, dist=DiscreteDistribution(atoms(4, 5), np.full(4, 0.25))),
        MatrixBlock(2, dist=DiscreteDistribution(atoms(3, 5, 2), np.array([0.6, 0.3, 0.1]))),
    ), complex_field=complex_field)
    stream = SeedStream(3).derive("model")
    M = model.sample(100, stream)
    if complex_field:  # the buffer takes the model's field
        with pytest.raises(ValueError, match="complex_field"):
            MatrixBlockModel(5, model.blocks).sample(100, stream)
    assert M.shape == (100, 5, 5) and np.iscomplexobj(M) == complex_field
    start = 0
    for j, b in enumerate(model.blocks):
        want = b.sample_matrices(100, 5, stream.derive("block", j))
        assert np.array_equal(M[:, :, start:start + b.width], want)
        start += b.width


def test_complex_gaussian_sampler_pairs_the_stream_gaussians():
    stream = SeedStream(8).derive("complex")
    z = SeededSampler("complex_gaussian", 4).sample(25_000, stream)
    g = stream.gaussians(2 * z.size)
    assert z.shape == (25_000, 4)
    assert np.array_equal(z.ravel(), (g[0::2] + 1j * g[1::2]) / math.sqrt(2.0))
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 4.0 / math.sqrt(z.size)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_exact_abs_det_of_repeated_and_zero_atoms_matches_brute_force(complex_field):
    # the block zonoids are read unmerged: an atom repeated, negated and
    # doubled, and a zero atom
    a = random_discrete(rng(22), 3, 3, complex_field).atoms
    atoms = np.array([a[0], a[1], a[0], -a[1], np.zeros(3), 2 * a[2], a[2]])
    probs = np.arange(1.0, 8.0) / 28.0
    model = iid_column_model(DiscreteDistribution(atoms, probs), 3)
    assert model.complex_field == complex_field
    assert math.isclose(expected_abs_det_exact(model), brute_force_expected_abs_det(model),
                        rel_tol=1e-12)
    # a width-2 block with a repeated and a zero atom beside a width-1 block
    wide = DiscreteDistribution(np.array([np.stack([a[0], a[1]], axis=1)] * 2
                                         + [np.zeros((3, 2))]), [0.25, 0.5, 0.25])
    model = MatrixBlockModel(3, (MatrixBlock(2, dist=wide),
                                 MatrixBlock(1, dist=DiscreteDistribution(atoms, probs))),
                             complex_field=complex_field)
    assert math.isclose(expected_abs_det_exact(model), brute_force_expected_abs_det(model),
                        rel_tol=1e-12)


def _searchsorted_reference(u, probs):
    """The atom index by binary search over the cumulative sums, the last
    forced to 1."""
    cum = np.cumsum(np.asarray(probs, dtype=np.float64))
    cum[-1] = 1.0
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _laws(g, k):
    """Laws of k atoms: generic, with zero atoms (repeated bounds), and with
    a zero last atom after sums 1 +- PROB_TOL / 2 (1 +- PROB_TOL itself
    rounds past the tolerance)."""
    generic = g.random(k) + 0.1
    zeros = np.where(g.random(k) < 0.4, 0.0, g.random(k))
    zeros[k // 2] = 1.0
    laws = [generic / generic.sum(), zeros / zeros.sum()]
    if k >= 2:
        for excess in (randomdet.PROB_TOL / 2, -randomdet.PROB_TOL / 2):
            p = np.append(generic[:-1] / generic[:-1].sum(), 0.0)
            p[0] += excess
            laws.append(p)
    return laws


def _atom_counts(n):
    """k from 1 to twice the last k whose n draws are counted, on both sides
    of the step from counting to the binary search (none counts at n = 2)."""
    last = min(256, n // sampling._COUNT_MIN_DRAWS_PER_BOUND + 1)
    return sorted({1, 2, 3, 5, 8, 16, last, last + 1, 2 * last, 512})


@pytest.mark.parametrize("n", [2, 3392, 65536])
def test_choice_is_the_binary_search_on_every_law(n):
    g = np.random.default_rng(n)
    for k in _atom_counts(n):
        for i, p in enumerate(_laws(g, k)):
            stream = SeedStream(n).derive("choice", k, i)
            got = stream.choice(n, p)
            want = _searchsorted_reference(stream.uniforms(n), p) if k > 1 else np.zeros(n)
            assert got.dtype == (np.uint8 if k <= 256 else np.intp), (k, i)
            assert np.array_equal(got, want), (k, i)


@pytest.mark.parametrize("n", [2, 3392, 65536])
def test_atom_index_on_the_bounds_themselves(n):
    # uniforms exactly on each bound and one ulp either side, and both ends
    # of [0, 1)
    g = np.random.default_rng(3)
    for k in _atom_counts(n)[1:]:
        for i, p in enumerate(_laws(g, k)):
            cum = np.cumsum(p)
            edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
                                    [0.0, np.nextafter(1.0, 0.0)]])
            edges = edges[edges < 1.0]
            u = g.random(n)
            u[:len(edges)] = edges[:n]
            got = sampling._atom_index(u, cum)
            assert np.array_equal(got, _searchsorted_reference(u, p)), (k, i)


def test_choice_rejects_probabilities_it_cannot_count():
    stream = SeedStream(0)
    for probs in ([0.5, np.nan], [np.inf, 0.0], [1.5, -0.5], [], [[0.5, 0.5]]):
        with pytest.raises(ValueError):
            stream.choice(10, probs)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.eye(2), [np.nan, np.nan])
    with pytest.raises(ValueError):
        DiscreteDistribution(np.eye(2), [np.inf, 0.0])


@pytest.mark.parametrize("probs", [[0.2, 0.2], [0.5, 0.6], [0.3, 0.3, 0.3]])
def test_choice_refuses_laws_that_do_not_sum_to_one(probs):
    # refused, not read with the missing (or excess) mass on the last atom
    stream = SeedStream(1)
    with pytest.raises(ValueError, match="sum to 1"):
        stream.choice(200_000, probs)
    with pytest.raises(ValueError, match="sum to 1"):
        stream._counts(200_000, [[0.5, 0.5], probs])
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteDistribution(np.eye(len(probs)), probs)


def test_one_atom_laws_draw_no_uniform(monkeypatch):
    calls, uniforms = [], SeedStream.uniforms
    monkeypatch.setattr(SeedStream, "uniforms",
                        lambda self, n: calls.append(n) or uniforms(self, n))
    one = DiscreteDistribution(np.array([[1.0, 2.0]]), [1.0])
    got = SeedStream(1).choice(7, [1.0])
    assert got.dtype == np.uint8 and np.array_equal(got, np.zeros(7))
    assert np.array_equal(SeededSampler("discrete", 2, dist=one).sample(5),
                          np.tile([1.0, 2.0], (5, 1)))
    assert calls == []
    # a one-atom block beside a two-atom one: the table route draws counts,
    # no uniform; the direct route one uniform draw, for the two-atom block
    two = DiscreteDistribution(np.array([[0.0, 1.0], [0.0, 3.0]]), [0.5, 0.5])
    model = MatrixBlockModel(2, (MatrixBlock(1, dist=one), MatrixBlock(1, dist=two)))
    expected_abs_det_mc(model, 70_000, 4)
    assert calls == []
    model.sample(9, SeedStream(4))
    assert calls == [9]


@pytest.mark.parametrize("n", [100, 70_000])
def test_mc_joint_index_is_ravel_multi_index(n, monkeypatch):
    # the counts contract: chunk ci's counts are one multinomial draw on
    # stream.derive(ci) from the product of the blocks' laws, in
    # np.ravel_multi_index order of their atom indices, each block's law
    # the one its atom index is drawn from (cum clipped to 1, cum[-1] read
    # as 1); mixed widths, atom counts and laws (zero atoms, sums 1 +-
    # PROB_TOL / 2), one-atom blocks between the others
    g = np.random.default_rng(8)
    specs = (((2, 3), (1, 1), (1, 4), (1, 1), (1, 2)) if n > 100
             else ((1, 1), (2, 3), (1, 2), (1, 1)))
    size = sum(w for w, _ in specs)
    probs = [_laws(g, k)[j % 4 if k > 1 else 0] for j, (_, k) in enumerate(specs)]
    blocks = tuple(MatrixBlock(w, dist=DiscreteDistribution(g.standard_normal((k, size, w)), p))
                   for (w, k), p in zip(specs, probs))
    model = MatrixBlockModel(size, blocks)
    table, shape = _support_table(model)
    assert len(np.unique(table)) == table.size  # equal values mean equal atoms

    def law(p):
        cum = np.minimum(np.cumsum(p), 1.0)
        cum[-1] = 1.0
        return np.diff(cum, prepend=0.0)

    joint = np.empty(table.size)
    for idx in np.ndindex(*shape):
        joint[np.ravel_multi_index(idx, shape)] = math.prod(
            law(p)[i] for p, i in zip(probs, idx))
    draws = []
    monkeypatch.setattr(randomdet, "_mc_mean_se", lambda stream, n, draw: draws.extend(
        (stream.derive(ci), draw(stream.derive(ci), size))
        for ci, size in enumerate(chunk_sizes(n))))
    expected_abs_det_mc(model, n, 6)
    assert [len(c) for _, (_, c) in draws] == [table.size] * len(chunk_sizes(n))
    for (stream, (values, counts)), size in zip(draws, chunk_sizes(n)):
        assert np.array_equal(values, table)
        assert np.array_equal(counts, stream._generator().multinomial(size, joint))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.clongdouble])
def test_complex_atoms_of_any_precision_stay_complex(dtype):
    atoms = np.array([[1.0 + 2.0j, 0.5], [-1.0j, 3.0]], dtype=dtype)
    d = DiscreteDistribution(atoms, [0.25, 0.75])
    assert d.atoms.dtype == np.complex128 and d.is_complex
    assert np.array_equal(d.atoms, atoms.astype(np.complex128))


def test_a_gaussian_sampler_block_of_a_complex_model_draws_complex_gaussians():
    model = model_from_dict({"size": 2, "complex": True,
                             "blocks": [{"width": 2, "sampler": {"kind": "gaussian"}}]})
    assert model.blocks[0].sampler.kind == "complex_gaussian"
    val, se = expected_abs_det_complex_mc(model, 40_000, seed=6)
    assert abs(val - complex_gaussian_abs_det(2)) <= 4 * se


def test_bm_probe_takes_one_companion_as_a_vector_and_none_as_empty():
    g = rng(14)
    d1, d2 = random_discrete(g, 3, 3), random_discrete(g, 3, 3)
    c = g.standard_normal(3)
    grid = [0.0, 0.5, 1.0]
    assert (bm_concavity_probe(d1, d2, 2, companions=c, t_grid=grid)
            == bm_concavity_probe(d1, d2, 2, companions=c[:, None], t_grid=grid))
    d1, d2 = random_discrete(g, 3, 2), random_discrete(g, 3, 2)
    assert (bm_concavity_probe(d1, d2, 2, companions=np.zeros((2, 0)), t_grid=grid)
            == bm_concavity_probe(d1, d2, 2, companions=[], t_grid=grid)
            == bm_concavity_probe(d1, d2, 2, t_grid=grid))


_D2 = DiscreteDistribution(np.eye(2), np.array([0.5, 0.5]))  # vector atoms in R^2
_D3 = DiscreteDistribution(np.eye(3), np.full(3, 1.0 / 3.0))
_MATRIX_ATOMS = DiscreteDistribution(np.ones((2, 2, 2)), np.array([0.5, 0.5]))
_GAUSS2 = SeededSampler("gaussian", 2)
_SAMPLED = MatrixBlockModel(2, (MatrixBlock(2, sampler=_GAUSS2),))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: bernoulli_mixture(_D2, _D3), "atom shapes must agree",
                 id="mixture-of-unequal-atom-shapes"),
    pytest.param(lambda: SeededSampler("discrete", 2), "needs a distribution",
                 id="discrete-sampler-without-dist"),
    pytest.param(lambda: MatrixBlock(1, dist=_D2, sampler=_GAUSS2), "exactly one of dist",
                 id="block-with-dist-and-sampler"),
    pytest.param(lambda: MatrixBlock(1), "exactly one of dist", id="block-with-neither"),
    pytest.param(lambda: MatrixBlock(2, sampler=_GAUSS2).atom_matrices(2), "non-discrete",
                 id="atoms-of-a-sampler-block"),
    pytest.param(lambda: MatrixBlock(1, dist=_D2).atom_matrices(3), "atom shape does not match",
                 id="atoms-of-the-wrong-shape"),
    pytest.param(lambda: expected_abs_det_mc(
        MatrixBlockModel(3, (MatrixBlock(3, sampler=_GAUSS2),)), 10),
        "sampler dimension does not match", id="sampler-dimension-not-the-size"),
    pytest.param(lambda: expected_abs_det_mc(MatrixBlockModel(2, (
        MatrixBlock(2, sampler=SeededSampler("complex_gaussian", 2)),)), 10),
        "need complex_field=True", id="complex-gaussian-block-of-a-real-model"),
    pytest.param(lambda: MatrixBlockModel(3, (MatrixBlock(1, dist=_D2),)), "widths must sum",
                 id="widths-not-the-size"),
    pytest.param(lambda: vitale_zonotope(scale_distribution(_D2, 1j)), "real distribution",
                 id="vitale-of-complex-atoms"),
    pytest.param(lambda: vitale_zonotope(_MATRIX_ATOMS), "vector atoms",
                 id="vitale-of-matrix-atoms"),
    pytest.param(lambda: empirical_zonotope(_GAUSS2, 0), "at least one sample",
                 id="empirical-of-no-samples"),
    pytest.param(lambda: multivariate_gamma(0, 1.0), "k >= 1", id="multivariate-gamma-k0"),
    pytest.param(lambda: expected_simple_wedge_norm(3, 2), "1 <= k <= m",
                 id="wedge-norm-k-above-m"),
    pytest.param(lambda: complex_gaussian_abs_det(0), "n >= 1", id="complex-abs-det-n0"),
    pytest.param(lambda: expected_abs_det_exact(_SAMPLED), "discrete blocks",
                 id="exact-of-a-sampler-model"),
    pytest.param(lambda: expected_sq_abs_det_complex(_SAMPLED), "discrete blocks",
                 id="second-moment-of-a-sampler-model"),
    pytest.param(lambda: brute_force_expected_abs_det(_SAMPLED), "discrete blocks",
                 id="brute-force-of-a-sampler-model"),
    pytest.param(lambda: bm_concavity_probe(_MATRIX_ATOMS, _D2, 1), "vector distributions",
                 id="probe-of-matrix-atoms"),
    pytest.param(lambda: bm_concavity_probe(_D2, _D3, 2), "dimension mismatch",
                 id="probe-of-unequal-dimensions"),
    pytest.param(lambda: bm_concavity_probe(_D2, _D2, 1, companions=np.ones(3)), "same space",
                 id="probe-companions-in-another-space"),
])
def test_models_and_constants_refuse_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
