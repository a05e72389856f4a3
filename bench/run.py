"""sgineq benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py`` and listed with their reasons
in ``BENCHMARK.json``. The package is imported from ``src/`` of the
same checkout; nothing is installed.

With ``--trace 0`` the run times set-up in fresh processes, then repeats
passes of the workload for ``--seconds`` and reports the end-to-end
metrics. Times are calibrated: ``calibration.py`` samples the machine's
speed between cases, and each case time is scaled to the nominal speed
(``*_cal_*`` metrics, and ``setup_s``). The raw times are printed on
the summary lines. With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics from ``tracing.Tracer`` and
the tracing overhead.

Every case is checked. Reports go to a temporary directory under
``.bench_out/`` that is removed at exit; a traced run leaves the spans
of its first traced pass there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it print every metric with its unit, the raw times, ``failed_frac``,
the self times that only some workloads have, and the environment.
"""

import os

# BLAS threads are pinned before numpy is first imported, in this
# process and in the set-up processes it starts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# An output-directory override would send reports out of the temp dir.
os.environ.pop("SGINEQ_OUTPUT_DIR", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import calibration
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("verify_bundled", "random_cases", "gram_psd", "large_k")
SETUP_PROBES = 5
MIN_PASSES = 3
ORACLE_SEED = 20240821

# Layers that every workload calls inside its timed passes. Their self
# time is reported in seconds; the others only as a share of the pass,
# since a layer a workload never calls has a self time of exactly 0.
ALWAYS_CALLED = ("semigroup.evolve", "semigroup.apply", "families.apply", "lattice.element_new")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_workloads():
    """Import the package from this checkout's src/ and the workloads."""
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_probe(args, workdir: Path) -> tuple[float, float]:
    """Import the package and build pass 0's inputs.

    Returns the seconds taken and the machine speed measured with plain
    Python chunks just before and just after.
    """
    before = calibration.sample("python", 5 * calibration.NOMINAL_S["python"])
    start = time.perf_counter()
    workloads = import_workloads()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(workdir)
    wl.make_pass(args.seed, 0)
    took = time.perf_counter() - start
    after = calibration.sample("python", 5 * calibration.NOMINAL_S["python"])
    return took, calibration.speed("python", before + after)


def measure_setup(args) -> tuple[list, list]:
    """Raw and calibrated set-up seconds of fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    raw, calibrated = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        took, speed = (float(v) for v in proc.stdout.split()[-2:])
        raw.append(took)
        calibrated.append(took * speed)
    return raw, calibrated


def run_pass(wl, cases):
    """Run every case with reference samples between them.

    Returns the case seconds, each case's machine speed and the results.
    A sample of reference chunks runs before the first case, after the
    last, and before any case that follows ``calibration.GAP_S`` of case
    time since the last sample. A case's speed comes from the samples on
    either side of it.
    """
    clock = time.perf_counter
    case_s, sample_at, results = [], [], []
    samples = [statistics.fmean(calibration.sample(wl.reference))]
    since_sample = 0.0
    for case in cases:
        if since_sample >= calibration.GAP_S:
            window = calibration.SHARE * since_sample
            samples.append(statistics.fmean(calibration.sample(wl.reference, window)))
            since_sample = 0.0
        sample_at.append(len(samples) - 1)
        began = clock()
        try:
            result = wl.run_case(case)
        except Exception as err:  # a raised error is a failed case, not a crash
            result = err
        elapsed = clock() - began
        case_s.append(elapsed)
        results.append(result)
        since_sample += elapsed
    window = calibration.SHARE * since_sample
    samples.append(statistics.fmean(calibration.sample(wl.reference, window)))
    speeds = [calibration.speed(wl.reference, samples[i:i + 2]) for i in sample_at]
    return case_s, speeds, results


class Tally:
    """Attempted and failed operations; the first failures are kept."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    def check_pass(self, wl, cases, results) -> None:
        failures = []
        for case, result in zip(cases, results):
            if isinstance(result, Exception):
                failures.append(f"{type(result).__name__}: {result}")
            else:
                message = wl.check(case, result)
                if message is not None:
                    failures.append(message)
        self.add(len(cases), failures)


def blas_info() -> dict:
    """OpenBLAS version and the thread count the loaded library reports."""
    import ctypes
    import glob

    import numpy as np

    info = {"numpy": np.__version__, "blas_threads_env": BLAS_THREADS}
    try:
        info["blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            info["blas_threads"] = lib.scipy_openblas_get_num_threads64_()
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = {"nproc": nproc, "cpu": cpu_model(), "python": platform.python_version(),
           **blas_info(), "git_commit": git_commit()}
    threads = env.get("blas_threads", BLAS_THREADS)
    if threads > nproc:
        raise SystemExit(f"bench: {threads} BLAS threads exceed nproc = {nproc}")
    return env


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def pass_layers(tracer, times, speeds) -> tuple:
    """What one traced pass leaves for the per-layer metrics.

    Self times are scaled by the pass's mean machine speed, like the
    calibrated end-to-end times.
    """
    calls, self_s = tracer.layer_totals()
    speed = sum(t * v for t, v in zip(times, speeds)) / sum(times)
    self_cal_s = Counter({layer: speed * value for layer, value in self_s.items()})
    return calls, self_cal_s, len(tracer.pairs), len(tracer.spans), speed * sum(times)


def trace_metrics(traced, untraced_cal_walls) -> tuple[dict, dict]:
    """Medians over traced passes: (reported metrics, summary-only metrics)."""
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    metrics, extra = {}, {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (med(lambda p: p[0][layer]), "count")
        metrics[f"{layer}.self_pct"] = (med(lambda p: 100.0 * p[1][layer] / p[4]), "%")
        target = metrics if layer in ALWAYS_CALLED else extra
        target[f"{layer}.self_s"] = (med(lambda p: p[1][layer]), "s")
    metrics["semigroup.evolve.distinct"] = (med(lambda p: p[2]), "count")
    metrics["trace.spans"] = (med(lambda p: p[3]), "count")
    metrics["trace.overhead_s"] = (
        med(lambda p: p[4]) - statistics.median(untraced_cal_walls), "s")
    return metrics, extra


def ratio_metrics() -> dict:
    import oracle

    ratios = oracle.evolve_vs_expm()
    geomean = statistics.geometric_mean
    metrics = {"semigroup.evolve.ratio_vs_expm": (geomean(ratios.values()), "ratio")}
    for dim in oracle.GRID_DIMS:
        metrics[f"semigroup.evolve.ratio_vs_expm.k{dim}"] = (
            geomean([r for (k, _), r in ratios.items() if k == dim]), "ratio")
    return metrics


def write_spans(path: Path, spans) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def measure(args, workdir: Path):
    """One run: returns (tally, metrics, summary-only metrics, notes)."""
    setup_raw, setup_cal = measure_setup(args) if args.trace == 0 else ([], [])

    workloads = import_workloads()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(workdir)
    tally = Tally()
    attempted, failures, ref_pairs = wl.reference_checks()
    tally.add(attempted, failures)

    warm = wl.make_pass(args.seed, 0)
    _, _, results = run_pass(wl, warm)
    tally.check_pass(wl, warm, results)

    walls, cal_walls, case_s, cal_case_s, speeds = [], [], [], [], []
    traced, spans = [], None
    index = 1
    deadline = time.perf_counter() + args.seconds
    while index <= MIN_PASSES * (1 + args.trace) or time.perf_counter() < deadline:
        cases = wl.make_pass(args.seed, index)
        if args.trace == 1 and index % 2 == 0:
            with tracing.Tracer(extra_modules=(workloads,)) as tracer:
                times, case_speeds, results = run_pass(wl, cases)
            traced.append(pass_layers(tracer, times, case_speeds))
            spans = spans or tracer.spans
        else:
            times, case_speeds, results = run_pass(wl, cases)
            cal_times = [t * v for t, v in zip(times, case_speeds)]
            walls.append(sum(times))
            cal_walls.append(sum(cal_times))
            case_s.extend(times)
            cal_case_s.extend(cal_times)
            speeds.extend(case_speeds)
        tally.check_pass(wl, cases, results)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The run's own pairs are checked; expm_err is reported on pairs drawn
    # at ORACLE_SEED, so that it is the same number on every run of one
    # program and moves only when the program's accuracy does.
    import oracle

    checked = ref_pairs + wl.pairs(warm)
    reported = ref_pairs or wl.pairs(wl.make_pass(ORACLE_SEED, 0))
    _, failures = oracle.expm_check(checked)
    tally.add(len(checked), failures)
    expm_err, failures = oracle.expm_check(reported)
    tally.add(len(reported), failures)

    notes = {"passes": len(walls), "traced_passes": len(traced), "cases": len(case_s),
             "oracle_pairs": len(checked) + len(reported)}
    if hasattr(wl, "redrawn"):
        notes["redrawn_exponent_sets"] = wl.redrawn
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup_cal), "s"),
            "wall_cal_s": (statistics.median(cal_walls), "s"),
            "case_cal_ms_p50": (1e3 * percentile(cal_case_s, 50), "ms"),
            "case_cal_ms_p99": (1e3 * percentile(cal_case_s, 99), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "expm_err": (expm_err, "1"),
        }
        extra = {
            "setup_raw_s": (statistics.median(setup_raw), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "case_ms_p50": (1e3 * percentile(case_s, 50), "ms"),
            "case_ms_p99": (1e3 * percentile(case_s, 99), "ms"),
            "machine_speed": (statistics.median(speeds), "1"),
        }
    else:
        metrics, extra = trace_metrics(traced, cal_walls)
        metrics.update(ratio_metrics())
        span_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(span_file, spans)
        notes["span_file"] = str(span_file.relative_to(ROOT))
    extra["failed_frac"] = (len(tally.failures) / tally.attempted, "1")
    return tally, metrics, extra, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgineq" / "__init__.py").is_file():
        print(f"bench: no sgineq package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.setup_probe:
            print(*setup_probe(args, workdir))
            return 0
        env = environment()
        tally, metrics, extra, notes = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in notes.items()))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:44s} {value!r:>24} {unit}")
    for message in tally.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    failed = len(tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
