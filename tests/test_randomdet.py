"""Tests for random matrix blocks, expected determinants and constants."""

import math

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
from zonoidal import randomdet
from zonoidal.sampling import CHUNK, SeedStream, _mc_mean_se, chunk_sizes
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
    # Carlo routine must reproduce these digits bit for bit
    d = DiscreteDistribution(np.array([[1.0, 0.2, -0.3], [0.1, -1.0, 0.5], [0.4, 0.4, 2.0]]),
                             np.array([0.2, 0.3, 0.5]))
    model = iid_column_model(d, 3)
    assert expected_abs_det_mc(model, 70_000, 9) == (0.41013217142857145, 0.003355658517819053)
    assert expected_abs_det_mc(model, 500, 9) == (0.44774400000000003, 0.04111824481956987)
    with pytest.raises(ValueError):
        expected_abs_det_mc(model, 1, 9)


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


@pytest.mark.parametrize("n", [2, 100, 70_000, 200_000])
@pytest.mark.parametrize("name", list(_table_models()))
def test_mc_table_route_is_the_direct_route_bit_for_bit(name, n, monkeypatch):
    model = _table_models()[name]
    support = math.prod(b.dist.n_atoms for b in model.blocks)
    stream = SeedStream(5).derive("edet")
    ref = _mc_mean_se(stream, n, lambda s, size: randomdet._abs_det(model.sample(size, s)))
    stacks, abs_det = [], randomdet._abs_det
    monkeypatch.setattr(randomdet, "_abs_det", lambda a: stacks.append(len(a)) or abs_det(a))
    assert expected_abs_det_mc(model, n, 5) == ref
    # one |det| kernel call over the support matrices when there are at most
    # min(n, CHUNK) of them, else one per chunk of samples
    assert stacks == ([support] if support <= min(n, CHUNK) else chunk_sizes(n))


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
