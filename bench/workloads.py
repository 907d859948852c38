"""Seeded workloads of the zonoidal benchmark.

``build(name, seed, workdir)`` makes a workload's inputs from the seed
and returns its task list.  A task is one call into the library
(``run``); ``check`` compares a result with a reference that does not go
through the code path under test and returns None or a description of
the miss.  The benchmark runs ``check`` outside the timed phase.

Tasks with ``known_defect`` set reproduce a documented library bug on
fixed inputs.  They are never re-seeded or resized; their misses count
in fail_frac but do not make the run incorrect.

Why each workload exists, and which layer it should move, is written in
NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable

import numpy as np

import zonoidal  # noqa: F401  (package import, as a user pays it)

algebra = importlib.import_module("zonoidal.algebra")
jvolume = importlib.import_module("zonoidal.jvolume")
randomdet = importlib.import_module("zonoidal.randomdet")
testkit = importlib.import_module("zonoidal.testkit")
zt = importlib.import_module("zonoidal.zonotope")

MC_SAMPLES = 200_000
# |MC - reference| must stay within this many reported standard errors.
# With about 20 Monte Carlo comparisons per run, 5 sigma keeps the
# chance of a false miss near 1e-5 per run (4 sigma: about 1e-3).
MC_SIGMAS = 5.0
# Reported stderr must be within this share of the true sd / sqrt(n).
STDERR_RTOL = 0.10


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None
    # The same work inside this process; set when ``run`` starts another
    # process, so the traced run can record spans for it.
    inprocess: Callable[[], object] | None = None


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload]])


def _rel(got, want, rtol) -> str | None:
    got, want = float(got), float(want)
    if math.isfinite(got) and abs(got - want) <= rtol * abs(want):
        return None
    return f"got {got!r}, want {want!r} at rel {rtol:g}"


def _within(got, want, se, label="") -> str | None:
    if math.isfinite(got) and abs(got - want) <= MC_SIGMAS * se:
        return None
    return f"{label}got {got!r}, want {want!r} +- {MC_SIGMAS:g} x stderr {se!r}"


def _first_miss(*misses) -> str | None:
    return next((m for m in misses if m), None)


# ---------------------------------------------------------------------------
# exact_real: exterior, algebra and canonicalize; no sampling at all.


def _fraction_rows(rng, n, m) -> np.ndarray:
    ints = rng.integers(-5, 6, size=(n, m))
    rows = np.empty((n, m), dtype=object)
    rows[:, :] = [[Fraction(int(x)) for x in row] for row in ints]
    return rows


def _projection_support(G, u) -> float:
    """h_{Pi K}(u) for unit u: sum over (m-1)-subsets of |det [u; G_S]|."""
    m = G.shape[1]
    return math.fsum(abs(float(np.linalg.det(np.vstack([u, G[list(S)]]))))
                     for S in combinations(range(len(G)), m - 1))


def _exact_real(seed, workdir):
    rng = _rng(seed, "exact_real")
    tasks = []
    for n, m in ((12, 4), (14, 4), (12, 5), (10, 6)):
        G = rng.standard_normal((n, m))
        K = zt.zonotope(G)
        tasks.append(Task(f"volume N={n} R^{m}", lambda K=K: algebra.volume(K),
                          lambda r, G=G: _rel(r, testkit.volume_brute(G), 1e-9)))
    for n, m in ((8, 3), (10, 3), (7, 4)):
        G = _fraction_rows(rng, n, m)
        K = zt.zonotope(G)
        tasks.append(Task(
            f"volume Fraction N={n} R^{m}", lambda K=K: algebra.volume(K),
            lambda r, G=G, m=m: None if r == testkit.mixed_volume_brute_exact([G] * m)
            else f"got {r}, want {testkit.mixed_volume_brute_exact([G] * m)}"))
    for count, n, m in ((3, 8, 3), (4, 5, 4)):
        Gs = [rng.standard_normal((n, m)) for _ in range(count)]
        Ks = [zt.zonotope(G) for G in Gs]
        tasks.append(Task(f"mixed_volume {count}x N={n} R^{m}",
                          lambda Ks=Ks: algebra.mixed_volume(Ks),
                          lambda r, Gs=Gs: _rel(r, testkit.mixed_volume_brute(Gs), 1e-9)))
    Gs = [_fraction_rows(rng, 4, 3) for _ in range(3)]
    Ks = [zt.zonotope(G) for G in Gs]
    tasks.append(Task(
        "mixed_volume Fraction 3x N=4 R^3", lambda Ks=Ks: algebra.mixed_volume(Ks),
        lambda r, Gs=Gs: None if r == testkit.mixed_volume_brute_exact(Gs)
        else f"got {r}, want {testkit.mixed_volume_brute_exact(Gs)}"))
    G = rng.standard_normal((14, 5))
    K = zt.zonotope(G)
    for d in (2, 3):
        tasks.append(Task(f"intrinsic_volume d={d} N=14 R^5",
                          lambda K=K, d=d: algebra.intrinsic_volume(K, d),
                          lambda r, G=G, d=d: _rel(r, testkit.intrinsic_brute(G, d), 1e-9)))
    G = rng.standard_normal((12, 4))
    K = zt.zonotope(G)
    U = rng.standard_normal((5, 4))
    U /= np.linalg.norm(U, axis=1)[:, None]

    def check_projection(r, G=G, U=U):
        return _first_miss(*(
            _rel(testkit.support_brute(r.generators, u), _projection_support(G, u), 1e-9)
            for u in U))

    tasks.append(Task("projection_body N=12 R^4",
                      lambda K=K: algebra.projection_body(K), check_projection))
    for n in (60, 100):
        A, B = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
        KA, KB = zt.zonotope(A), zt.zonotope(B)
        tasks.append(Task(
            f"tensor_product {n}x{n} R^3",
            lambda KA=KA, KB=KB: algebra.tensor_product(KA, KB),
            lambda r, A=A, B=B: _rel(testkit.length_brute(r.generators),
                                     testkit.length_brute(A) * testkit.length_brute(B),
                                     1e-12)))
    return tasks


# ---------------------------------------------------------------------------
# exact_complex: complex exterior products, span enumeration, sigma_J.


def _j_apply(Q: np.ndarray) -> np.ndarray:
    """Standard structure (x, y) -> (-y, x) on interleaved rows of Q."""
    out = np.empty_like(Q)
    out[0::2] = -Q[1::2]
    out[1::2] = Q[0::2]
    return out


def _span_sum(G: np.ndarray, power: float) -> float:
    """sum over independent n-subsets S of ||wedge S|| sigma_J(span S)^power.

    Grouping the subsets by span gives the sum over generator spans E of
    vol_n(F_E) sigma_J(E)^power: the J-volume at power 1/2, the
    Kazarnovskii pseudovolume at power 1.
    """
    n = G.shape[1] // 2
    scale = max(float(np.max(np.linalg.norm(G, axis=1))), 1e-300) ** n
    terms = []
    for S in combinations(range(len(G)), n):
        V = G[list(S)]
        vol = testkit.wedge_norm_brute(V)
        if vol <= 1e-12 * scale:
            continue
        Q, _ = np.linalg.qr(V.T)
        sigma = min(abs(float(np.linalg.det(np.hstack([Q, _j_apply(Q)])))), 1.0)
        terms.append(vol * sigma ** power)
    return math.fsum(terms)


def _dual_j_volume(P) -> float:
    n = P.ambient_dim // 2
    return float(zt.length(jvolume.complex_wedge_zonoids(*[P] * n))) / math.factorial(n)


def _face_counts(n_gens: int, dim: int, k: int) -> tuple[int, int]:
    """(k-faces, vertices) of a zonotope with generic generators in R^dim."""
    faces = 2 * math.comb(n_gens, k) * sum(math.comb(n_gens - k - 1, i)
                                           for i in range(dim - k))
    verts = 2 * sum(math.comb(n_gens - 1, i) for i in range(dim))
    return faces, verts


def _check_faces(fd, n_gens) -> str | None:
    want_faces, want_verts = _face_counts(n_gens, fd.ambient_dim, fd.ambient_dim // 2)
    got = (len(fd.n_faces), len(fd.vertices))
    if got != (want_faces, want_verts):
        return f"(faces, vertices) = {got}, want {(want_faces, want_verts)}"
    if any(len(f) != 4 for f in fd.n_faces):
        return "a 2-face of a generic zonotope is not a parallelogram"
    return None


def _r4_half_step_body():
    """Four generators in one plane whose projector has an entry on a
    rounding half-step (cos^2 t = 0.123456785), plus two more."""
    c2 = 0.123456785
    w = np.array([0.0, math.sqrt(c2), math.sqrt(1.0 - c2), 0.0])
    e1, e4 = np.eye(4)[0], np.eye(4)[3]
    return zt.zonotope(np.array([e1, w, e1 + 0.7 * w, 0.3 * e1 - w, e4,
                                 [0.2, 0.1, 0.3, 1.0]]), cgrading=(2, 1))


def _exact_complex(seed, workdir):
    rng = _rng(seed, "exact_complex")

    def cvec(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    tasks = []
    for q in (32, 48, 64):
        z1, z2 = cvec(2), cvec(2)
        want = math.pi ** 2 / 2.0 * abs(z1[0] * z2[1] - z1[1] * z2[0])
        tasks.append(Task(
            f"mixed_J_volume discs q={q}",
            lambda z1=z1, z2=z2, q=q: jvolume.mixed_J_volume(
                jvolume.disc_zonotope(z1, q), jvolume.disc_zonotope(z2, q)),
            lambda r, want=want: _rel(r, want, 1e-3)))
    for n_gens, n in ((10, 2), (12, 2), (8, 3)):
        P = jvolume.complex_zonotope(cvec(n_gens, n))
        label = f"N={n_gens} C^{n}"
        tasks.append(Task(f"j_volume_zonotope {label}",
                          lambda P=P: jvolume.j_volume_zonotope(P),
                          lambda r, P=P: _rel(r, _dual_j_volume(P), 1e-10)))
        tasks.append(Task(f"kazarnovskii_zonotope {label}",
                          lambda P=P: jvolume.kazarnovskii_zonotope(P),
                          lambda r, P=P: _rel(r, _span_sum(P.generators, 1.0), 1e-9)))
        tasks.append(Task(f"dual J-volume {label}", lambda P=P: _dual_j_volume(P),
                          lambda r, P=P: _rel(r, _span_sum(P.generators, 0.5), 1e-9)))
    for n_gens in (4, 5):
        P = jvolume.complex_zonotope(cvec(n_gens, 2))
        tasks.append(Task(f"zonotope_face_data N={n_gens} C^2",
                          lambda P=P: jvolume.zonotope_face_data(P),
                          lambda r, n_gens=n_gens: _check_faces(r, n_gens)))
    P = _r4_half_step_body()
    tasks.append(Task(
        "j_volume_zonotope R^4 half-step span", lambda P=P: jvolume.j_volume_zonotope(P),
        lambda r, P=P: _rel(r, _dual_j_volume(P), 1e-10),
        known_defect="a span keyed by its rounded projector is counted twice"))
    return tasks


# ---------------------------------------------------------------------------
# stochastic: seeded streams, batched det and normal-angle Monte Carlo.


def _real_gaussian_abs_det(m: int) -> float:
    """E|det| of an m x m standard Gaussian matrix, prod of chi means."""
    return math.exp(sum(0.5 * math.log(2.0) + math.lgamma((j + 1) / 2.0)
                        - math.lgamma(j / 2.0) for j in range(1, m + 1)))


def _complex_gaussian_abs_det(n: int) -> float:
    return math.exp(sum(math.lgamma(j + 0.5) - math.lgamma(j) for j in range(1, n + 1)))


def _enumerated_sd(blocks) -> float:
    """Standard deviation of |det| over the joint atoms of discrete blocks.

    blocks: (atoms of shape (k, m, width), probs) per block.  Two passes
    (mean first, then centred squares), so large means do not cancel.
    """
    vals, probs = [], []
    for pick in product(*[range(len(p)) for _, p in blocks]):
        M = np.concatenate([blocks[j][0][i] for j, i in enumerate(pick)], axis=1)
        vals.append(abs(complex(np.linalg.det(M))))
        probs.append(math.prod(float(blocks[j][1][i]) for j, i in enumerate(pick)))
    mean = math.fsum(p * v for p, v in zip(probs, vals))
    return math.sqrt(math.fsum(p * (v - mean) ** 2 for p, v in zip(probs, vals)))


def _check_mc(r, mean, sd, n) -> str | None:
    val, se = r
    want_se = sd / math.sqrt(n)
    miss_se = None
    if not abs(se - want_se) <= STDERR_RTOL * want_se:
        miss_se = f"stderr {se!r}, true sd/sqrt(n) {want_se!r} (rel tol {STDERR_RTOL:g})"
    return _first_miss(_within(val, mean, se), miss_se)


def _probs(rng, k) -> np.ndarray:
    p = rng.uniform(0.5, 1.5, size=k)
    return p / p.sum()


def _gaussian_model(size, width, seed, kind="gaussian"):
    blocks = tuple(randomdet.MatrixBlock(width, sampler=randomdet.SeededSampler(
        kind, size, seed=seed)) for _ in range(size // width))
    return randomdet.MatrixBlockModel(size, blocks, complex_field=kind != "gaussian")


def _iid_blocks(dist, m):
    atoms = dist.atoms[:, :, None]
    return [(atoms, dist.probs)] * m


def _mixture_root(d1, d2, d, companions, t) -> float:
    """E|det[X_t .. X_t, companions]|^(1/d) by joint enumeration."""
    atoms = np.concatenate([2.0 * t * d1.atoms, 2.0 * (1.0 - t) * d2.atoms])
    probs = np.concatenate([d1.probs / 2.0, d2.probs / 2.0])
    mix = randomdet.MatrixBlock(1, dist=randomdet.DiscreteDistribution(atoms, probs))
    fixed = randomdet.MatrixBlock(companions.shape[1], dist=randomdet.DiscreteDistribution(
        companions[None, :, :], np.array([1.0])))
    model = randomdet.MatrixBlockModel(atoms.shape[1], tuple([mix] * d + [fixed]))
    return testkit.brute_force_expected_abs_det(model) ** (1.0 / d)


def _check_probe(curve, d1, d2, d, companions) -> str | None:
    return _first_miss(*(
        _within(root, _mixture_root(d1, d2, d, companions, t), se, f"t={t}: ")
        for t, root, se in curve))


def _check_empirical(Z, n) -> str | None:
    """Z holds X_k / n for n standard Gaussian draws X_k in R^3."""
    if Z.n_generators != n:
        return f"{Z.n_generators} generators, want {n}"
    mean_norm = 2.0 * math.sqrt(2.0 / math.pi)          # E||X||, chi_3
    sd_norm = math.sqrt(3.0 - mean_norm ** 2)
    half_abs = 0.5 * math.sqrt(2.0 / math.pi)           # (1/2) E|<u, X>|
    sd_half = 0.5 * math.sqrt(1.0 - 2.0 / math.pi)
    return _first_miss(
        _within(testkit.length_brute(Z.generators), mean_norm, sd_norm / math.sqrt(n),
                "length: "),
        *(_within(testkit.support_brute(Z.generators, u), half_abs,
                  sd_half / math.sqrt(n), f"support e{i}: ")
          for i, u in enumerate(np.eye(3))))


def _check_interval(r, truth) -> str | None:
    lo, hi = r
    return None if lo <= truth <= hi else f"interval [{lo!r}, {hi!r}] misses {truth!r}"


def _scale_1e8_model():
    """Block one is the fixed columns 1e4 e1, 1e4 e2; block two is
    (0, 0, 1 +- 1e-8) with probability 1/2 each.  |det| = 1e8 +- 1."""
    fixed = np.array([[[1e4, 0.0], [0.0, 1e4], [0.0, 0.0]]])
    col = np.array([[0.0, 0.0, 1.0 + 1e-8], [0.0, 0.0, 1.0 - 1e-8]])
    blocks = [(fixed, np.array([1.0])), (col[:, :, None], np.array([0.5, 0.5]))]
    model = randomdet.MatrixBlockModel(3, (
        randomdet.MatrixBlock(2, dist=randomdet.DiscreteDistribution(*blocks[0])),
        randomdet.MatrixBlock(1, dist=randomdet.DiscreteDistribution(col, blocks[1][1]))))
    return model, blocks


def _stochastic(seed, workdir):
    rng = _rng(seed, "stochastic")

    def seed31():
        return int(rng.integers(2 ** 31))

    n = MC_SAMPLES
    tasks = []
    for size, width in ((4, 1), (6, 2)):
        model = _gaussian_model(size, width, seed31())
        mean = _real_gaussian_abs_det(size)
        sd = math.sqrt(math.factorial(size) - mean ** 2)
        tasks.append(Task(
            f"expected_abs_det_mc Gaussian {size}x{size} width {width}",
            lambda model=model, s=seed31(): randomdet.expected_abs_det_mc(model, n, s),
            lambda r, mean=mean, sd=sd: _check_mc(r, mean, sd, n)))
    exact_models = []
    for k, m in ((6, 3), (5, 4)):
        dist = randomdet.DiscreteDistribution(rng.standard_normal((k, m)), _probs(rng, k))
        model = randomdet.iid_column_model(dist, m)
        exact_models.append((f"iid k={k} R^{m}", model))
        sd = _enumerated_sd(_iid_blocks(dist, m))
        tasks.append(Task(
            f"expected_abs_det_mc iid k={k} R^{m}",
            lambda model=model, s=seed31(): randomdet.expected_abs_det_mc(model, n, s),
            lambda r, model=model, sd=sd: _check_mc(
                r, testkit.brute_force_expected_abs_det(model), sd, n)))
    model = _gaussian_model(3, 1, seed31(), kind="complex_gaussian")
    mean = _complex_gaussian_abs_det(3)
    sd = math.sqrt(math.factorial(3) - mean ** 2)
    tasks.append(Task(
        "expected_abs_det_complex_mc Gaussian 3x3",
        lambda model=model, s=seed31(): randomdet.expected_abs_det_complex_mc(model, n, s),
        lambda r, mean=mean, sd=sd: _check_mc(r, mean, sd, n)))
    dist = randomdet.DiscreteDistribution(
        rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)), _probs(rng, 4))
    model = randomdet.iid_column_model(dist, 3)
    exact_models.append(("complex iid k=4 C^3", model))
    sd = _enumerated_sd(_iid_blocks(dist, 3))
    tasks.append(Task(
        "expected_abs_det_complex_mc iid k=4 C^3",
        lambda model=model, s=seed31(): randomdet.expected_abs_det_complex_mc(model, n, s),
        lambda r, model=model, sd=sd: _check_mc(
            r, testkit.brute_force_expected_abs_det(model), sd, n)))
    for label, model in exact_models:
        call = ("expected_abs_det_complex_exact" if model.complex_field
                else "expected_abs_det_exact")
        tasks.append(Task(
            f"{call} {label}",
            lambda model=model, call=call: getattr(randomdet, call)(model),
            lambda r, model=model: _rel(r, testkit.brute_force_expected_abs_det(model), 1e-10)))
    P = jvolume.complex_zonotope(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    faces = jvolume.zonotope_face_data(P)
    tasks.append(Task(
        "j_volume_polytope_mc N=4 C^2 n=2e4",
        lambda faces=faces, s=seed31(): jvolume.j_volume_polytope_mc(faces, 20_000, s),
        lambda r, P=P: _within(r[0], _span_sum(P.generators, 0.5), r[1])))
    d1 = randomdet.DiscreteDistribution(rng.standard_normal((3, 3)), _probs(rng, 3))
    d2 = randomdet.DiscreteDistribution(rng.standard_normal((3, 3)), _probs(rng, 3))
    companions = rng.standard_normal((3, 1))
    tasks.append(Task(
        "bm_concavity_probe d=2 R^3 n=2e4",
        lambda s=seed31(): randomdet.bm_concavity_probe(
            d1, d2, 2, companions=companions, n=20_000, seed=s),
        lambda r: _check_probe(r, d1, d2, 2, companions)))
    sampler = randomdet.SeededSampler("gaussian", 3, seed=seed31())
    tasks.append(Task("empirical_zonotope Gaussian R^3 2000 draws",
                      lambda: randomdet.empirical_zonotope(sampler, 2000),
                      lambda r: _check_empirical(r, 2000)))
    G, v = rng.standard_normal((6, 3)), rng.standard_normal(3)
    K, L = zt.zonotope(G), zt.zonotope(np.vstack([G, v]))
    tasks.append(Task(
        "hausdorff_estimate R^3 delta=1e-2",
        lambda s=seed31(): zt.hausdorff_estimate(K, L, delta=1e-2, seed=s),
        lambda r, truth=float(np.linalg.norm(v)) / 2.0: _check_interval(r, truth)))
    model, blocks = _scale_1e8_model()
    tasks.append(Task(
        "expected_abs_det_mc 1e8-scale model",
        lambda: randomdet.expected_abs_det_mc(model, n, 0),
        lambda r: _check_mc(r, testkit.brute_force_expected_abs_det(model),
                            _enumerated_sd(blocks), n),
        known_defect="the variance sum x^2 - n mean^2 cancels at the 1e8 scale"))
    S1, S2 = zt.zonotope(np.eye(5)[:1]), zt.zonotope(np.eye(5)[1:2])
    tasks.append(Task(
        "hausdorff_estimate R^5 delta=1e-3 seg(e1), seg(e2)",
        lambda: zt.hausdorff_estimate(S1, S2, delta=1e-3, seed=0),
        lambda r: _check_interval(r, 0.5),
        known_defect="the direction net certifies its covering radius only in dims 2, 3"))
    return tasks


# ---------------------------------------------------------------------------
# cli_cold: one cold `python -m zonoidal` process per task.


@dataclass
class CliOutput:
    returncode: int
    stdout: bytes
    maxrss_kb: int = 0


def _cold(argv, workdir, env) -> CliOutput:
    out_path = os.path.join(workdir, "stdout")
    with open(out_path, "wb") as out, open(os.path.join(workdir, "stderr"), "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "zonoidal", *argv],
                                stdout=out, stderr=err, cwd=workdir, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        return CliOutput(proc.returncode, fh.read(), usage.ru_maxrss)


def _inprocess(argv) -> CliOutput:
    cli = importlib.import_module("zonoidal.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliOutput(code, out.getvalue().encode())


def _check_cli(r: CliOutput, expected) -> str | None:
    if r.returncode != 0:
        return f"exit code {r.returncode}"
    got = json.loads(r.stdout)
    want = expected()
    return None if got == want else f"printed {got!r}, library gives {want!r}"


def _write(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _body(G) -> dict:
    return {"ambient_dim": G.shape[1], "grading": None, "generators": G.tolist()}


def _cli_cold(seed, workdir):
    rng = _rng(seed, "cli_cold")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    body_G = rng.standard_normal((12, 4))
    body = _write(workdir, "body.json", _body(body_G))
    mv_Gs = [rng.standard_normal((8, 3)) for _ in range(3)]
    mv = [_write(workdir, f"mv{i}.json", _body(G)) for i, G in enumerate(mv_Gs)]
    Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    discs = _write(workdir, "discs.json",
                   {"vectors": [[[z.real, z.imag] for z in row] for row in Z]})
    atoms = rng.standard_normal((5, 3))
    exact_model = {"size": 3, "blocks": [{"width": 1, "dist": {
        "atoms": atoms.tolist(), "probs": _probs(rng, 5).tolist()}}] * 3}
    exact_path = _write(workdir, "edet_exact.json", exact_model)
    mc_model = {"size": 4, "blocks": [
        {"width": 1, "sampler": {"kind": "gaussian", "seed": int(rng.integers(2 ** 31))}}] * 4}
    mc_path = _write(workdir, "edet_mc.json", mc_model)
    mc_seed = int(rng.integers(2 ** 31))

    def body_zonotope(G):
        return zt.zonotope_from_dict(_body(G))

    def measure_dict():
        measures = importlib.import_module("zonoidal.measures")
        mu = measures.zonotope_to_measure(body_zonotope(body_G))
        return {"atoms": mu.atoms.tolist(), "weights": mu.weights.tolist()}

    commands = [
        ("vol", ["vol", body], lambda: {"value": algebra.volume(body_zonotope(body_G))}),
        ("mv", ["mv", *mv], lambda: {"value": algebra.mixed_volume(
            [body_zonotope(G) for G in mv_Gs])}),
        ("mvj --discs --q 16", ["mvj", "--discs", "--q", "16", discs],
         lambda: {"value": jvolume.mixed_J_volume(
             *[jvolume.disc_zonotope(z, 16) for z in Z])}),
        ("edet --mode exact", ["edet", "--mode", "exact", exact_path],
         lambda: {"value": randomdet.expected_abs_det_exact(
             randomdet.model_from_dict(exact_model))}),
        ("edet --mode mc --samples 100000",
         ["edet", "--mode", "mc", "--samples", "100000", "--seed", str(mc_seed), mc_path],
         lambda: dict(zip(("value", "stderr"), randomdet.expected_abs_det_mc(
             randomdet.model_from_dict(mc_model), 100_000, mc_seed)))),
        ("measure --to", ["measure", "--to", body], measure_dict),
        ("constants gaussian-edet", ["constants", "gaussian-edet", "--m", "4"],
         lambda: {"value": randomdet.gaussian_abs_det(4)}),
    ]
    return [Task(f"zonoid {label}",
                 lambda argv=argv: _cold(argv, workdir, env),
                 lambda r, expected=expected: _check_cli(r, expected),
                 inprocess=lambda argv=argv: _inprocess(argv))
            for label, argv, expected in commands]


BUILDERS = {
    "exact_real": _exact_real,
    "exact_complex": _exact_complex,
    "stochastic": _stochastic,
    "cli_cold": _cli_cold,
}
WORKLOAD_IDS = {name: i for i, name in enumerate(BUILDERS)}


def build(name: str, seed: int, workdir: str) -> list[Task]:
    return BUILDERS[name](seed, workdir)
