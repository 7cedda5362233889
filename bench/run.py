"""ncfun benchmark: one seeded workload in one single-threaded process.

    python3 bench/run.py --workload blackbox --seed 1 --seconds 40 --trace 0

Runs the workload's job list once to warm up, then repeatedly for
``--seconds`` seconds, checks every job's output against its reference,
prints one line per metric and, as the last line, a JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics.  A full result file (metrics,
run environment, per-job latencies, failures) goes to ``bench/out/``,
and a traced run also writes its spans there.  The command exits 1 and
names the failing jobs when any job's output is wrong.
"""

import os

# single-threaded BLAS/OpenMP, set before numpy is imported anywhere
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import List, Optional, Tuple  # noqa: E402

from spans import PASS, PER_LAYER_UNITS, OracleMeter, Tracer, median_metrics, pass_metrics, pass_views  # noqa: E402

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7

END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "accuracy_digits": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ncfun from this checkout's ``src`` and the job definitions."""
    if not os.path.isfile(os.path.join(SRC, "ncfun", "__init__.py")):
        raise SystemExit(f"error: program source not found: {os.path.join(SRC, 'ncfun')}")
    sys.path.insert(0, SRC)
    import ncfun

    if not os.path.abspath(ncfun.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported ncfun from {ncfun.__file__}, not from {SRC}")
    import workloads

    return ncfun, workloads


@dataclass
class PassResult:
    latencies: List[float] = field(default_factory=list)
    errors: List[Optional[float]] = field(default_factory=list)
    failures: List[tuple] = field(default_factory=list)
    oracle: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(jobs, meter: OracleMeter, nc, tracer: Optional[Tracer] = None, pass_idx: int = -1) -> PassResult:
    """Run every job once, timing only the library calls; checks run
    outside the timed region and outside tracing."""
    res = PassResult()
    meter.reset()
    for j, job in enumerate(jobs):
        if tracer is not None:
            tracer.pass_idx, tracer.job_idx = pass_idx, j
            tracer.install(nc)
            meter.tracer = tracer
        exc = None
        t0 = perf()
        try:
            out = job.run()
        except Exception as e:  # a crashing job is a failed job, not a crashed benchmark
            out, exc = None, e
        dt = perf() - t0
        if tracer is not None:
            meter.tracer = None
            tracer.uninstall()
        res.latencies.append(dt)
        if exc is not None:
            res.errors.append(None)
            res.failures.append((job.name, f"raised {type(exc).__name__}: {exc}"))
            continue
        try:
            ok, err = job.check(out)
        except Exception as e:
            ok, err = False, None
            res.failures.append((job.name, f"check raised {type(e).__name__}: {e}"))
        else:
            if not ok:
                res.failures.append((job.name, f"output differs from reference (error {err})"))
        res.errors.append(err)
    res.oracle = meter.snapshot()
    return res


def tail(latencies: List[float]):
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    r = max(len(xs) - 11, 0)
    return xs[r], 100.0 * (r + 1) / len(xs)


def digits(err: float) -> float:
    return -math.log10(max(err, 1e-16))


def git_commit() -> Optional[str]:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import ncfun and generate the workload's seeded inputs."""
    t0 = perf()
    _, wl = import_program()
    wl.build(workload, seed, WORK, OracleMeter().wrap)
    return perf() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[dict, Optional[Tracer]]:
    nc, wl = import_program()
    meter = OracleMeter()
    built = wl.build(workload, seed, WORK, meter.wrap)
    os.makedirs(WORK, exist_ok=True)
    for name, text in built.files.items():
        with open(os.path.join(WORK, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    # oracles the CLI builds from its --map argument are accounted too
    load_map = nc.cli.load_map
    nc.cli.load_map = functools.wraps(load_map)(lambda spec: meter.wrap(load_map(spec)))
    tracer = Tracer() if trace else None
    setup: List[float] = []
    probes = 0 if trace else SETUP_PROBES
    try:
        warm = run_pass(built.jobs, meter, nc)
        untraced: List[PassResult] = []
        traced: List[PassResult] = []
        start = perf()
        while True:
            # set-up probes are spread over the run, between passes, so
            # that they sample the machine at different times as the passes do
            if len(setup) < probes and perf() >= start + len(setup) * seconds / probes:
                setup.append(measure_setup(workload, seed))
            untraced.append(run_pass(built.jobs, meter, nc))
            if tracer is not None:
                traced.append(run_pass(built.jobs, meter, nc, tracer, len(traced)))
            if perf() >= start + seconds:
                break
        setup += [measure_setup(workload, seed) for _ in range(probes - len(setup))]
    finally:
        nc.cli.load_map = load_map
        shutil.rmtree(WORK, ignore_errors=True)

    passes = [warm] + untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    lat = [x for p in untraced for x in p.latencies]
    tail_s, tail_pct = tail(lat)
    errs = [e for p in passes for e in p.errors if e is not None]
    extra = {
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "oracle": untraced[0].oracle,
        "jobs_per_pass": len(built.jobs),
        "passes_timed": len(untraced),
        "jobs_timed": len(lat),
        "tail_percentile": tail_pct,
        "pass_wall_s": [p.wall for p in untraced],
        "job_median_ms": {job.name: 1000 * statistics.median(p.latencies[j] for p in untraced)
                          for j, job in enumerate(built.jobs)},
        "job_min_digits": {job.name: min((digits(p.errors[j]) for p in passes if p.errors[j] is not None),
                                         default=None) for j, job in enumerate(built.jobs)},
        "failures": sorted({f"{name}: {why}" for name, why in failures}),
    }
    if not trace:
        metrics = {
            "wall_s": statistics.fmean(p.wall for p in untraced),
            "job_p50_ms": 1000 * statistics.median(lat),
            "job_tail_ms": 1000 * tail_s,
            "accuracy_digits": min(digits(e) for e in errs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        extra["setup_samples_s"] = setup
    else:
        metrics = median_metrics(pass_metrics(v, tracer.counts, tracer.spans[v.first][PASS])
                                 for v in pass_views(tracer.spans))
        metrics["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                          / statistics.median(p.wall for p in untraced) - 1.0)
        units = PER_LAYER_UNITS
        extra["spans"] = len(tracer.spans)
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(seed), "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "extra": extra, "jobs": [job.name for job in built.jobs]}
    return result, tracer


def write_results(result: dict, tracer: Optional[Tracer]) -> str:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer is not None:
        # every traced pass runs the same jobs; the first one is kept
        with gzip.open(stem + "-spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for name, start, end, parent, pass_idx, job, info in tracer.spans:
                if pass_idx == 0:
                    fh.write(json.dumps([name, start, end, parent, pass_idx, result["jobs"][job], info]) + "\n")
    return stem + ".json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("blackbox", "nonscalar", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    result, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_results(result, tracer)
    extra = result["extra"]
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"# fail_frac {extra['fail_frac']:.6g} ({extra['failed']} of {extra['attempted']} jobs failed)")
    print(f"# oracle_calls {extra['oracle']['calls']} per pass; {extra['passes_timed']} passes, "
          f"{extra['jobs_timed']} jobs timed, tail at p{extra['tail_percentile']:.2f}; results in {path}")
    print(json.dumps({"correct": extra["failed"] == 0, "attempted": extra["attempted"], "failed": extra["failed"],
                      "metrics": result["metrics"]}))
    for line in extra["failures"]:
        print(f"FAILED JOB {line}", file=sys.stderr)
    return 1 if extra["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
