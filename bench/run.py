"""Layered benchmark for zonoidal.

Usage (from the repository root):

    python3 bench/run.py --workload exact_real --seed 1 --seconds 15 --trace 0

Workloads: exact_real, exact_complex, stochastic, cli_cold (see NOTES.md).
Each runs as a closed loop with one caller in one process: whole passes
over the workload's task list, until --seconds have passed and at least
MIN_PASSES passes are done.  BLAS and OpenMP threads are pinned to 1.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes (spans around every public library function, see
spans.py) and prints the per-layer metrics.  Every task
result is checked against an independent reference after the timed
phase.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds
the details (tail percentile, misses, environment, span table).
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (thread pins must precede any numpy import)
import bisect  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("exact_real", "exact_complex", "stochastic", "cli_cold")
# At least this many passes.  The tail percentile is taken over exactly
# the first MIN_PASSES passes, so it is the same order statistic in every
# run, and the slowest task of a pass has more than ten samples in it.
# The three slowest cli_cold commands take about the same time, so five
# passes already put 15 samples of them there.
MIN_PASSES = {"exact_real": 11, "exact_complex": 11, "stochastic": 11, "cli_cold": 5}
TRACE_MIN_PASSES = 3
SETUP_PROBES = 3
TAIL_BEYOND = 10
# Machine-speed calibration.  On a shared host the CPU runs up to 1.5x
# slower for a second at a time and drifts by 20-30% over minutes.  A
# fixed calibration kernel that never touches zonoidal runs after every
# task; each task latency is scaled by the kernel's reference time over
# its mean time within CALIB_WINDOW_S of the task, so end-to-end times
# read as times at one fixed machine speed.  Raw times are in the detail
# line.  Each workload gets the kernel that slows down as its tasks do.
CALIBRATION = {"exact_real": "interpreter", "exact_complex": "interpreter",
               "stochastic": "batched", "cli_cold": "process"}
# About the kernel times on the development host (2-core Xeon VM) when it
# runs at full speed; they only set the scale of the reported times.
CALIB_REF_S = {"interpreter": 0.0045, "batched": 0.0052, "process": 0.062}
CALIB_WINDOW_S = 0.5
CALIB_SAMPLES = 5


class Calibration:
    """Times a fixed kernel that measures machine speed, not zonoidal.

    interpreter: a Python loop, small-array numpy calls and a small
    batched determinant, like the exact paths.  batched: Box-Muller
    Gaussians from a Philox stream and a batched determinant, like the
    Monte Carlo paths.  process: a fresh `python -c pass`, like the start
    of a CLI process.
    """

    def __init__(self, workload):
        import numpy as np

        self._np = np
        self.kind = CALIBRATION[workload]
        self.ref_s = CALIB_REF_S[self.kind]
        self._small = np.arange(4000 * 16).reshape(4000, 4, 4) % 7 + np.eye(4)

    def sample(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        if self.kind == "process":
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        elif self.kind == "batched":
            u = np.random.Generator(np.random.Philox(key=7)).random(2 * 4000 * 16)
            g = np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
            float(np.sum(np.abs(np.linalg.det(g.reshape(4000, 4, 4)))))
        else:
            acc = 0
            for j in range(30_000):
                acc += j * j
            x = np.ones(6)
            for _ in range(800):
                x = x * 0.5 + 1.0
            np.linalg.det(self._small)
        return time.perf_counter() - t0


@dataclasses.dataclass
class Execution:
    task: int
    latency_s: float
    scaled_s: float     # latency at the reference machine speed
    same: bool          # result identical to the checked warm-up result
    error: str | None
    maxrss_kb: int


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@contextlib.contextmanager
def workdir(workload):
    path = WORK / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def fingerprint(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    import numpy as np

    from workloads import CliOutput

    if isinstance(obj, CliOutput):
        obj = (obj.returncode, obj.stdout)
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        if obj.dtype == object:
            h.update(repr(obj.tolist()).encode())
        else:
            h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


def call_task(task, inprocess):
    fn = task.inprocess if inprocess and task.inprocess is not None else task.run
    try:
        return fn(), None
    except Exception as e:  # a raising task is counted as failed, not fatal
        return None, f"{type(e).__name__}: {e}"


def run_passes(tasks, reference, seconds, min_passes, inprocess, recorder=None,
               first_id=0, calibration=None):
    """Whole passes over tasks; returns executions and per-pass busy time.

    With a calibration, a kernel sample runs before the first task and
    after every task, and each latency is scaled by the samples taken
    within CALIB_WINDOW_S of it.
    """
    execs, spans, pass_busy = [], [], []
    samples = []   # (time, kernel seconds)

    def calibrate():
        if calibration is not None:
            dt = calibration.sample()
            samples.append((time.perf_counter(), dt))

    calibrate()
    start = time.perf_counter()
    while len(pass_busy) < min_passes or time.perf_counter() - start < seconds:
        busy = 0.0
        for i, task in enumerate(tasks):
            if recorder is not None:
                recorder.task = first_id + len(execs)
            t0 = time.perf_counter()
            result, error = call_task(task, inprocess)
            t1 = time.perf_counter()
            busy += t1 - t0
            calibrate()
            same = error is None and fingerprint(result) == reference[i]
            execs.append(Execution(i, t1 - t0, t1 - t0, same, error,
                                   getattr(result, "maxrss_kb", 0)))
            spans.append((t0, t1))
        pass_busy.append(busy)
    if samples:
        times = [t for t, _ in samples]
        for ex, (t0, t1) in zip(execs, spans):
            before = bisect.bisect_left(times, t0) - 1   # last sample before the task
            after = bisect.bisect_right(times, t1)       # first sample after it
            lo = min(before, bisect.bisect_left(times, t0 - CALIB_WINDOW_S))
            hi = max(after, bisect.bisect_right(times, t1 + CALIB_WINDOW_S) - 1)
            speed = statistics.mean(dt for _, dt in samples[lo:hi + 1])
            ex.scaled_s = ex.latency_s * calibration.ref_s / speed
    return execs, pass_busy


def check_results(tasks, results, errors):
    misses = []
    for task, result, error in zip(tasks, results, errors):
        if error is not None:
            misses.append(f"raised {error}")
            continue
        try:
            misses.append(task.check(result))
        except Exception as e:  # a broken result shape is a miss
            misses.append(f"check raised {type(e).__name__}: {e}")
    return misses


def tally(tasks, execs, misses):
    """(missed executions, unexpected misses, miss report)."""
    missed = unexpected = 0
    report = {}
    for ex in execs:
        task = tasks[ex.task]
        reason = ex.error or (None if ex.same else "result differs from the checked run")
        reason = reason or misses[ex.task]
        if reason is None:
            continue
        missed += 1
        known = task.known_defect is not None and ex.error is None and ex.same
        unexpected += not known
        entry = report.setdefault(task.name, {"reason": reason, "count": 0,
                                              "known_defect": task.known_defect if known else None})
        entry["count"] += 1
    return missed, unexpected, report


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def environment():
    import numpy
    from importlib import metadata

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    l3 = None
    with contextlib.suppress(OSError):
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            l3 = fh.read().strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "cpu_model": cpu,
        "l3_size": l3,
    }


def setup_probe(args):
    """Time a fresh process spends importing zonoidal and building inputs."""
    t0 = time.perf_counter()
    import workloads

    with workdir(args.workload) as wd:
        workloads.build(args.workload, args.seed, wd)
        elapsed = time.perf_counter() - t0
    calibration = Calibration(args.workload)
    speed = statistics.mean(calibration.sample() for _ in range(CALIB_SAMPLES))
    print(repr(elapsed), repr(elapsed * calibration.ref_s / speed))


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        r, s = out.stdout.split()[-2:]
        raw.append(float(r))
        scaled.append(float(s))
    return statistics.median(scaled), raw


def import_times():
    """Median `python -X importtime` figures for the CLI's import path, ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zonoidal.cli"],
                             env=env, capture_output=True, text=True, timeout=60, check=True)
        rows = {}
        for line in out.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[0].strip().isdigit():
                rows[parts[2].strip()] = (int(parts[0]), int(parts[1]))
        runs.append(rows)

    def med(name, col):
        return statistics.median(rows[name][col] for rows in runs) / 1000.0

    out = {"cli.import_ms": med("zonoidal", 1) + med("zonoidal.cli", 1),
           "import.numpy_ms": med("numpy", 1)}
    from spans import MODULES

    for mod in MODULES:
        out[f"import.{mod}.self_ms"] = med(f"zonoidal.{mod}", 0)
    return out


def warm_up(tasks, inprocess):
    results, errors = zip(*(call_task(t, inprocess) for t in tasks))
    return list(results), list(errors), [fingerprint(r) for r in results]


def end_to_end(args, tasks):
    phase = [time.perf_counter()]
    setup_s, setup_runs = measure_setup(args)
    results, errors, reference = warm_up(tasks, inprocess=False)
    phase.append(time.perf_counter())
    passes = MIN_PASSES[args.workload]
    execs, pass_busy = run_passes(tasks, reference, args.seconds, passes, False,
                                  calibration=Calibration(args.workload))
    phase.append(time.perf_counter())
    if args.workload == "cli_cold":
        peak_kb = max(ex.maxrss_kb for ex in execs)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    misses = check_results(tasks, results, errors)
    phase.append(time.perf_counter())
    missed, unexpected, report = tally(tasks, execs, misses)
    latencies = [ex.scaled_s for ex in execs]
    raw = [ex.latency_s for ex in execs]
    tail_s, tail_pct, n = tail(latencies[:passes * len(tasks)])
    metrics = {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (len(execs) / sum(latencies), "1/s"),
        "task_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "task_tail_ms": (tail_s * 1e3, "ms"),
        "pass_frac": (1.0 - missed / len(execs), "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    by_task = {}
    for ex in execs:
        by_task.setdefault(tasks[ex.task].name, []).append(ex.latency_s * 1e3)
    detail = {
        "raw": {"setup_runs_s": setup_runs, "tasks_per_s": len(raw) / sum(raw),
                "task_p50_ms": statistics.median(raw) * 1e3,
                "task_tail_ms": tail(raw[:passes * len(tasks)])[0] * 1e3,
                "speed_factor": sum(raw) / sum(latencies)},
        "phase_s": dict(zip(("setup_and_warm_up", "timed_loop", "checks"),
                            (b - a for a, b in zip(phase, phase[1:])))),
        "passes": len(pass_busy),
        "tasks_per_pass": len(tasks),
        "tail": {"percentile": tail_pct, "samples": n, "beyond": TAIL_BEYOND},
        "fail_frac": missed / len(execs),
        "task_p50_ms_raw": {name: statistics.median(v) for name, v in by_task.items()},
    }
    return execs, unexpected, report, metrics, detail


def per_layer(args, tasks):
    from spans import MODULES, SpanRecorder

    inprocess = True
    results, errors, reference = warm_up(tasks, inprocess)
    # Untraced and traced passes alternate, so drift on a shared machine
    # lands on both sides of trace.overhead_frac.
    recorder = SpanRecorder()
    untraced, traced, busy_plain, busy_traced = [], [], [], []
    start = time.perf_counter()
    while len(busy_traced) < TRACE_MIN_PASSES or time.perf_counter() - start < args.seconds:
        execs, busy = run_passes(tasks, reference, 0, 1, inprocess)
        untraced += execs
        busy_plain += busy
        recorder.install()
        try:
            execs, busy = run_passes(tasks, reference, 0, 1, inprocess, recorder,
                                     first_id=len(untraced) + len(traced))
        finally:
            recorder.uninstall()
        traced += execs
        busy_traced += busy
    execs = untraced + traced
    misses = check_results(tasks, results, errors)
    missed, unexpected, report = tally(tasks, execs, misses)

    passes = len(busy_traced)
    table = recorder.summary()

    def row(name):
        return table.get(name, {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0})

    counts = recorder.counts
    metrics = {}
    for mod in MODULES:
        rows = [r for name, r in table.items() if name.split(".", 1)[0] == mod]
        metrics[f"{mod}.self_s"] = (sum(r["self_s"] for r in rows) / passes, "s")
        metrics[f"{mod}.calls"] = (sum(r["calls"] for r in rows) / passes, "count")
        metrics[f"{mod}.errors"] = (sum(r["errors"] for r in rows) / passes, "count")
    canon = row("zonotope.canonicalize")
    metrics.update({
        "zonotope.canonicalize.self_s": (canon["self_s"] / passes, "s"),
        "zonotope.canonicalize.calls": (canon["calls"] / passes, "count"),
        "zonotope.canonicalize.gens_in": (counts["zonotope.canonicalize.gens_in"] / passes, "count"),
        "zonotope.canonicalize.gens_out": (counts["zonotope.canonicalize.gens_out"] / passes, "count"),
        "zonotope.canonicalize.max_gens_in": (recorder.max_gens_in, "count"),
    })
    for name in ("exterior.wedge", "exterior.complex_wedge", "exterior.blade_from_vectors",
                 "exterior.hodge_star", "jvolume.sigma_J"):
        metrics[f"{name}.calls"] = (row(name)["calls"] / passes, "count")
    for name in ("algebra.wedge_power", "algebra.wedge_product", "algebra.tensor_product",
                 "jvolume.j_volume_zonotope", "jvolume.complex_wedge_zonoids",
                 "jvolume.normal_angle_mc", "randomdet.expected_abs_det_mc"):
        metrics[f"{name}.self_s"] = (row(name)["self_s"] / passes, "s")
    for name in ("algebra.wedge_power.subsets_computed", "jvolume.span_subsets_computed",
                 "randomdet.mc_samples", "sampling.draws", "sampling.chunks"):
        metrics[name] = (counts[name] / passes, "count")
    mc_time = sum(row(f"randomdet.{f}")["total_s"]
                  for f in ("expected_abs_det_mc", "expected_abs_det_complex_mc"))
    metrics["randomdet.mc_samples_per_s"] = (
        counts["randomdet.mc_samples"] / mc_time if mc_time else 0.0, "1/s")
    cli_pass = statistics.median(busy_plain) if args.workload == "cli_cold" else 0.0
    metrics["cli.main_ms"] = (cli_pass / len(tasks) * 1e3, "ms")
    for name, value in import_times().items():
        metrics[name] = (value, "ms")
    metrics["trace.overhead_frac"] = (
        statistics.median(busy_traced) / statistics.median(busy_plain) - 1.0, "ratio")
    metrics["trace.spans"] = (len(recorder.spans) / passes, "count")
    detail = {
        "untraced_pass_s": busy_plain,
        "traced_pass_s": busy_traced,
        "fail_frac": missed / len(execs),
        "spans_per_pass": {name: {k: v / passes for k, v in r.items()}
                           for name, r in sorted(table.items())},
    }
    return execs, unexpected, report, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "zonoidal" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no zonoidal sources under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0
    import workloads

    with workdir(args.workload) as wd:
        tasks = workloads.build(args.workload, args.seed, wd)
        measure = per_layer if args.trace else end_to_end
        execs, unexpected, report, metrics, detail = measure(args, tasks)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  misses=report, environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(execs),
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
