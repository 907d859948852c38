"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Every check runs at its stated tolerance; nothing is loosened here.
"""

import math
import time
from fractions import Fraction

import numpy as np

from zonoidal import (
    MatrixBlock,
    MatrixBlockModel,
    SeededSampler,
    Subspace,
    VirtualZonotope,
    af_gap,
    canonical_eq,
    canonicalize,
    complex_gaussian_abs_det,
    complex_zonotope,
    disc_zonotope,
    embed_real_zonotope,
    expected_abs_det_complex_mc,
    expected_abs_det_exact,
    expected_abs_det_mc,
    hausdorff_estimate,
    hodge_star_zonoid,
    iid_column_model,
    intrinsic_volume,
    j_ball_volume,
    j_volume_polytope_mc,
    j_volume_zonotope,
    length,
    measure_from_dict,
    measure_to_dict,
    measure_to_zonotope,
    mixed_J_volume,
    mixed_volume,
    normal_angle_mc,
    projection_body,
    reverse_af_gap,
    scale,
    support,
    tensor_product,
    virtual_support,
    virtual_tensor,
    vitale_zonotope,
    volume,
    wedge_power,
    zonotope,
    zonotope_face_data,
    zonotope_faces_for_span,
    zonotope_to_measure,
    cosine_transform_eval,
    DiscreteDistribution,
    complex_wedge_zonoids,
)
from zonoidal.exterior import complex_blade_from_vectors
from zonoidal.sampling import direction_net
from zonoidal.testkit import (
    brute_force_expected_abs_det,
    mixed_volume_brute,
    mixed_volume_brute_exact,
)
from zonoidal.zonotope import _spans


def rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def report(num, ok, desc):
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_criterion_01_cube_intrinsic_volumes():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(2, 9):
        K = zonotope(np.eye(m), grading=(m, 1))
        for d in range(m + 1):
            worst = max(worst, abs(intrinsic_volume(K, d) - math.comb(m, d)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(1, ok, f"cube V_d binomial, worst |err| {worst:.2e}, {elapsed:.2f}s"), \
        f"worst error {worst}, elapsed {elapsed}"


def test_criterion_02_mixed_volume_oracle():
    t0 = time.perf_counter()
    g = rng(20240819)
    worst = 0.0
    exact_ok = True
    for trial in range(50):
        m = 1 + trial % 4
        rows_list = [
            g.integers(-3, 4, size=(int(g.integers(1, 6)), m)).tolist()
            for _ in range(m)
        ]
        Ks = [zonotope(np.asarray(rows, dtype=np.float64)) for rows in rows_list]
        got = mixed_volume(Ks)
        want = mixed_volume_brute([K.generators for K in Ks])
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))

        def frac(rows):
            arr = np.empty((len(rows), m), dtype=object)
            for i, r in enumerate(rows):
                arr[i, :] = [Fraction(x) for x in r]
            return zonotope(arr)

        got_exact = mixed_volume([frac(rows) for rows in rows_list])
        want_exact = mixed_volume_brute_exact(
            [[[Fraction(x) for x in r] for r in rows] for rows in rows_list])
        exact_ok = exact_ok and got_exact == want_exact
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and exact_ok and elapsed < 10.0
    assert report(2, ok, f"mixed volume vs enumeration, rel {worst:.2e}, "
                         f"exact bit-equal {exact_ok}, {elapsed:.2f}s"), worst


def test_criterion_03_tensor_length_multiplicative():
    g = rng(3)
    worst = 0.0
    for _ in range(100):
        K = zonotope(g.standard_normal((int(g.integers(1, 6)), int(g.integers(1, 5)))))
        L = zonotope(g.standard_normal((int(g.integers(1, 6)), int(g.integers(1, 5)))))
        prod = length(K) * length(L)
        worst = max(worst, abs(length(tensor_product(K, L)) - prod) / prod)
    ok = worst <= 1e-12
    assert report(3, ok, f"length(K tensor L) = length(K) length(L), rel {worst:.2e}"), worst


def test_criterion_04_vitale_identity():
    g = rng(4)
    atoms = g.standard_normal((5, 3))
    probs = g.random(5) + 0.2
    probs /= probs.sum()
    X = DiscreteDistribution(atoms, probs)
    model = iid_column_model(X, 3)
    exact = expected_abs_det_exact(model)
    brute = brute_force_expected_abs_det(model)
    exact_ok = abs(exact - brute) <= 1e-12 * max(abs(brute), 1.0)
    K = vitale_zonotope(X)
    target = math.factorial(3) * volume(zonotope(K.generators, grading=(3, 1)))
    val, se = expected_abs_det_mc(model, 10**6, seed=41)
    mc_ok = abs(val - target) <= 3.0 * se
    ok = exact_ok and mc_ok
    assert report(4, ok, f"E|det|={exact:.6f} vs enumeration (ok={exact_ok}); "
                         f"MC dev {abs(val - target) / se:.2f} se"), (exact, brute, val, se)


def test_criterion_05_block_vitale():
    t0 = time.perf_counter()
    g = rng(5)
    wide = DiscreteDistribution(g.standard_normal((3, 4, 2)), [0.3, 0.45, 0.25])
    col1 = DiscreteDistribution(g.standard_normal((3, 4)), [0.2, 0.5, 0.3])
    col2 = DiscreteDistribution(g.standard_normal((2, 4)), [0.6, 0.4])
    model = MatrixBlockModel(4, (MatrixBlock(2, dist=wide),
                                 MatrixBlock(1, dist=col1),
                                 MatrixBlock(1, dist=col2)))
    exact = expected_abs_det_exact(model)
    brute = brute_force_expected_abs_det(model)
    exact_ok = abs(exact - brute) <= 1e-12 * max(abs(brute), 1.0)
    val, se = expected_abs_det_mc(model, 10**6, seed=51)
    mc_ok = abs(val - exact) <= 3.0 * se
    elapsed = time.perf_counter() - t0
    ok = exact_ok and mc_ok and elapsed < 30.0
    assert report(5, ok, f"blocks (2,1,1): exact {exact:.6f} (enum ok={exact_ok}), "
                         f"MC dev {abs(val - exact) / se:.2f} se, {elapsed:.1f}s"), \
        (exact, brute, val, se, elapsed)


def test_criterion_06_gaussian_determinants():
    devs = []
    for m, target in ((2, 1.0), (3, 2.0 * math.sqrt(2.0) / math.sqrt(math.pi))):
        model = MatrixBlockModel(
            m, tuple(MatrixBlock(1, sampler=SeededSampler("gaussian", m))
                     for _ in range(m)))
        val, se = expected_abs_det_mc(model, 10**6, seed=60 + m)
        devs.append(abs(val - target) / se)
    ok = all(d <= 3.0 for d in devs)
    assert report(6, ok, "gaussian E|det| m=2,3 devs "
                         + ", ".join(f"{d:.2f} se" for d in devs)), devs


def test_criterion_07_complex_gaussian_determinants():
    devs = []
    for n in (1, 2, 3):
        target = 1.0
        for j in range(1, n + 1):
            target *= math.gamma(j + 0.5) / math.gamma(j)
        model = MatrixBlockModel(
            n, tuple(MatrixBlock(1, sampler=SeededSampler("complex_gaussian", n))
                     for _ in range(n)), complex_field=True)
        val, se = expected_abs_det_complex_mc(model, 10**6, seed=70 + n)
        devs.append(abs(val - target) / se)
    ball_ok = (math.isclose(j_ball_volume(2), 3.0 * math.pi**2 / 4.0, rel_tol=1e-12)
               and math.isclose(complex_gaussian_abs_det(2),
                                math.factorial(2) / (2 * math.sqrt(math.pi))**2
                                * j_ball_volume(2), rel_tol=1e-12))
    ok = all(d <= 3.0 for d in devs) and ball_ok
    assert report(7, ok, "complex gaussian E|det| n=1..3 devs "
                         + ", ".join(f"{d:.2f}" for d in devs)
                         + f" se; ball identity {ball_ok}"), (devs, ball_ok)


def test_criterion_08_disc_mixed_j_volume():
    g = rng(8)
    worst_mvj = 0.0
    for _ in range(20):
        z1 = g.standard_normal(2) + 1j * g.standard_normal(2)
        z2 = g.standard_normal(2) + 1j * g.standard_normal(2)
        got = mixed_J_volume(disc_zonotope(z1, 64), disc_zonotope(z2, 64))
        target = (math.pi**2 / math.factorial(2)) * complex_blade_from_vectors(z1, z2).norm()
        worst_mvj = max(worst_mvj, abs(got - target) / target)
    worst_len = 0.0
    for q in (2, 3, 4, 5, 6, 7, 8, 16, 32, 64):
        for _ in range(3):
            z = g.standard_normal(2) + 1j * g.standard_normal(2)
            want = math.pi * float(np.linalg.norm(z))
            worst_len = max(worst_len, abs(length(disc_zonotope(z, q)) - want) / want)
    ok = worst_mvj <= 1e-3 and worst_len <= 1e-12
    assert report(8, ok, f"disc MV^J rel {worst_mvj:.2e} (tol 1e-3); "
                         f"disc length rel {worst_len:.2e}"), (worst_mvj, worst_len)


def test_criterion_09_j_volume_dual_path():
    g = rng(9)
    worst = 0.0
    for _ in range(30):
        k = int(g.integers(2, 7))
        Z = g.standard_normal((k, 2)) + 1j * g.standard_normal((k, 2))
        P = complex_zonotope(Z)
        a = j_volume_zonotope(P)
        b = length(complex_wedge_zonoids(P, P)) / math.factorial(2)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    worst_real = 0.0
    for _ in range(10):
        K = zonotope(g.standard_normal((4, 2)))
        a = j_volume_zonotope(embed_real_zonotope(K))
        b = volume(zonotope(K.generators, grading=(2, 1)))
        worst_real = max(worst_real, abs(a - b) / max(abs(b), 1e-30))
    ok = worst <= 1e-10 and worst_real <= 1e-10
    assert report(9, ok, f"dual path rel {worst:.2e}; real-body rel {worst_real:.2e}"), \
        (worst, worst_real)


def test_criterion_10_normal_angle_machinery():
    g = rng(10)
    worst_dev = 0.0
    worst_theta = 0.0
    for i in range(10):
        n_gens = 4 + i % 2
        Z = g.standard_normal((n_gens, 2)) + 1j * g.standard_normal((n_gens, 2))
        P = complex_zonotope(Z)
        exact = j_volume_zonotope(P)
        fd = zonotope_face_data(P)
        val, se = j_volume_polytope_mc(fd, 10**5, seed=100 + i)
        worst_dev = max(worst_dev, abs(val - exact) / se)
        E = Subspace(4, _spans(P.generators[None], 2)[2][0][:2])
        total, var = 0.0, 0.0
        for eps in zonotope_faces_for_span(P, E):
            th, s = normal_angle_mc(P, (E, eps), 10**5, seed=200 + i)
            total += th
            var += s * s
        worst_theta = max(worst_theta, abs(total - 1.0) / math.sqrt(var))
    ok = worst_dev <= 3.0 and worst_theta <= 3.0
    assert report(10, ok, f"face MC worst dev {worst_dev:.2f} se; "
                          f"theta partition worst dev {worst_theta:.2f} se"), \
        (worst_dev, worst_theta)


def test_criterion_11_af_and_reverse_af():
    g = rng(11)
    af_ok = True
    for _ in range(100):
        K1 = zonotope(g.standard_normal((int(g.integers(1, 4)), 4)), grading=(4, 1))
        K2 = zonotope(g.standard_normal((int(g.integers(1, 4)), 4)), grading=(4, 1))
        comp = [zonotope(g.standard_normal((int(g.integers(1, 3)), 4)), grading=(4, 1))
                for _ in range(2)]
        gap = af_gap(K1, K2, companions=comp)
        from zonoidal import wedge_product
        C = wedge_product(comp[0], comp[1])
        rhs = (length(wedge_product(wedge_product(K1, K1), C))
               * length(wedge_product(wedge_product(K2, K2), C)))
        af_ok = af_ok and gap >= -1e-10 * max(rhs, 1.0)
    orth = abs(reverse_af_gap(
        [zonotope([[1.0, 0.5, 0, 0], [0.3, 1.0, 0, 0]], grading=(4, 1)),
         zonotope([[0, 0, 1.0, -0.7], [0, 0, 0.2, 1.0]], grading=(4, 1))], [2, 2]))
    generic_ok = True
    for _ in range(10):
        K3 = zonotope(g.standard_normal((3, 4)), grading=(4, 1))
        K4 = zonotope(g.standard_normal((3, 4)), grading=(4, 1))
        generic_ok = generic_ok and reverse_af_gap([K3, K4], [2, 2]) > 0.0
    ok = af_ok and orth <= 1e-12 and generic_ok
    assert report(11, ok, f"af_gap >= -1e-10 rhs on 100 triples ({af_ok}); reverse "
                          f"orthogonal {orth:.1e}; generic positive ({generic_ok})"), \
        (af_ok, orth, generic_ok)


def test_criterion_12_projection_body():
    cube = zonotope(np.eye(3), grading=(3, 1))
    P = projection_body(cube)
    target = zonotope(2.0 * np.eye(3))
    star = hodge_star_zonoid(wedge_power(cube, 2))
    canon_ok = (canonical_eq(P, target)
                and canonical_eq(star, scale(P, math.factorial(2) / 2.0)))
    worst = 0.0
    for u in direction_net(3, 1000):
        want = float(np.sum(np.abs(u)))  # shadow area of the unit cube
        worst = max(worst, abs(support(P, u) - want))
    ok = canon_ok and worst <= 1e-10
    assert report(12, ok, f"star(cube^2) = Pi K = {{2e_i}} ({canon_ok}); "
                          f"support identity on 10^3 net, worst {worst:.2e}"), \
        (canon_ok, worst)


def test_criterion_13_noncontinuity_witness():
    # Expected value, from the segment convention alone: h_seg(x)(u) = |<x, u>|/2
    # and seg(x) (x) seg(y) = seg(x (x) y), so for P = (A - B) (x) (A - B) with
    # A = seg(a), B = seg(b),
    #   h_P(w) = |<a(x)a, w>|/2 + |<b(x)b, w>|/2 - |<a(x)b, w>|/2 - |<b(x)a, w>|/2.
    # With a = (n, 1), b = (n, 0), w = (1, -n, -n, 0) the four pairings are
    # -n^2, n^2, 0, 0, so h_P(w) = n^2 and h_P(w)/|w| = n^2/sqrt(1+2n^2).
    def seg_pairing(x, y, w):
        return abs(float(np.outer(x, y).ravel() @ w)) / 2.0

    interval_ok = True
    ratio_ok = True
    worst_rel = 0.0
    ratios = []
    for n in range(1, 101):
        a = np.array([float(n), 1.0])
        b = np.array([float(n), 0.0])
        A = zonotope([a])
        B = zonotope([b])
        lo, hi = hausdorff_estimate(A, B, delta=1e-3)
        interval_ok = interval_ok and lo <= 0.5 <= hi
        W = VirtualZonotope(A, B)
        P = virtual_tensor(W, W)
        w = np.array([1.0, -float(n), -float(n), 0.0])
        ratio = virtual_support(P, w) / float(np.linalg.norm(w))
        ratios.append(ratio)
        h_expected = (seg_pairing(a, a, w) + seg_pairing(b, b, w)
                      - seg_pairing(a, b, w) - seg_pairing(b, a, w))
        expected = h_expected / float(np.linalg.norm(w))
        rel = abs(ratio - expected) / expected
        worst_rel = max(worst_rel, rel)
        ratio_ok = ratio_ok and rel <= 1e-9
    growth_ok = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = interval_ok and ratio_ok and growth_ok
    assert report(13, ok, f"d_H interval contains 1/2 ({interval_ok}); "
                          f"h(w)/|w| vs n^2/sqrt(1+2n^2) from segment supports, "
                          f"rel err {worst_rel:.1e}; growth {growth_ok}"), \
        (interval_ok, worst_rel, growth_ok)


def test_criterion_14_measure_dictionary():
    g = rng(14)
    ok = True
    worst_mass = 0.0
    worst_net = 0.0
    for _ in range(10):
        m = int(g.integers(2, 4))
        K = canonicalize(zonotope(g.standard_normal((int(g.integers(1, 6)), m))))
        mu = zonotope_to_measure(K)
        ok = ok and canonical_eq(K, measure_to_zonotope(mu))
        back = measure_from_dict(measure_to_dict(mu))
        ok = ok and np.array_equal(back.atoms, mu.atoms) \
            and np.array_equal(back.weights, mu.weights)
        worst_mass = max(worst_mass,
                         abs(length(K) - 2.0 * mu.total_mass()) / max(length(K), 1e-30))
        for u in direction_net(m, 100):
            worst_net = max(worst_net, abs(cosine_transform_eval(mu, u) - support(K, u)))
    arr = np.empty((2, 2), dtype=object)
    arr[0, :] = [Fraction(3), Fraction(4)]
    arr[1, :] = [Fraction(5, 13), Fraction(-12, 13)]
    Ke = canonicalize(zonotope(arr))
    mue = zonotope_to_measure(Ke)
    back_e = canonicalize(measure_to_zonotope(mue))
    exact_ok = mue.exact and all(
        x == y for ra, rb in zip(Ke.generators, back_e.generators)
        for x, y in zip(ra, rb))
    d_e = measure_to_dict(mue)
    back_mu = measure_from_dict(d_e, exact=True)
    exact_ok = exact_ok and all(back_mu.weights[i] == mue.weights[i]
                                for i in range(len(mue.weights)))
    ok = ok and worst_mass <= 1e-12 and worst_net <= 1e-12 and exact_ok
    assert report(14, ok, f"round trips (exact path {exact_ok}); length=2*mass rel "
                          f"{worst_mass:.2e}; transform==support worst {worst_net:.2e}"), \
        (ok, worst_mass, worst_net, exact_ok)
