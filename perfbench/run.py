#!/usr/bin/env python3
"""Benchmark of paclab's three headline experiments.

Run from the repository root:

    python3 perfbench/run.py --workload gc_contrast --seed 1 --seconds 20 --trace 0

One process imports paclab from ``src/``, builds the workload's inputs from
the seed, then repeats the experiment for about ``--seconds`` seconds.
Set-up is also timed in fresh interpreters started one after another.
Repetition r uses the library seed ``rep_seed(seed, r)``.  With
``--trace 0`` no spans are recorded and the run reports the end-to-end
metrics of BENCHMARK.json (medians over repetitions).  With
``--trace 1`` untraced and traced repetitions alternate on the same seeds;
the run reports the per-layer metrics from the traced ones, the tracing
overhead, and checks that both produce the same result digest.

Every repetition's outputs are checked; a failed check makes the run exit
with code 1.  The last stdout line is the JSON summary; a fuller record (and,
when traced, the spans) goes to ``perfbench/out/``.
"""

import os

# One BLAS thread: the single-threaded baseline, and steadier timings on a
# small shared machine.  An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 10   # fresh processes timing setup, besides this one
MIN_REPS = 2        # untraced repetitions, whatever --seconds says
MIN_PAIRS = 1       # untraced/traced pairs in a traced run
PROBE_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """The checkout does not hold a paclab source tree to benchmark."""


def load(workload, seed):
    """Import paclab from ``src/`` and build the workload's inputs.

    Returns (seconds taken, workload, inputs); the seconds are setup_s.
    """
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import paclab
    except ImportError as exc:
        raise SetupError(f"cannot import paclab from {src}: {exc}") from exc
    if Path(paclab.__file__).resolve().parent != src / "paclab":
        raise SetupError(f"paclab imported from {paclab.__file__}, "
                         f"not from {src}")
    import workloads
    bench = workloads.WORKLOADS[workload]
    inputs = bench.setup(seed)
    return time.perf_counter() - start, bench, inputs


def probe_setup(workload, seed):
    """setup_s measured in a fresh interpreter, as a user would pay it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def digest(values):
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def machine_facts():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads_env": {var: os.environ.get(var) for var in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}}


class Run:
    """Repetitions of one workload, with their checks and digests."""

    def __init__(self, bench, inputs, seed):
        self.bench = bench
        self.inputs = inputs
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failed_checks = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks.append(name)

    def rep(self, index):
        """One timed repetition: (wall s, cpu s, result digest)."""
        import workloads
        seed = workloads.rep_seed(self.seed, index)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        results = self.bench.run(self.inputs, seed)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
        attempted, failed = self.bench.operations(results)
        self.attempted += attempted
        self.failed += failed
        for name, ok in self.bench.checks(self.inputs, results):
            self.check(f"rep {index}: {name}", ok)
        return wall, cpu, digest(self.bench.values(results))


def keep_going(count, minimum, elapsed, durations, seconds):
    """Another repetition fits when it is expected to end within --seconds."""
    if count < minimum:
        return True
    return elapsed + statistics.median(durations) <= seconds


def measure_untraced(run, seconds):
    walls, cpus, digests = [], [], []
    start = time.perf_counter()
    while keep_going(len(walls), MIN_REPS, time.perf_counter() - start, walls,
                     seconds):
        wall, cpu, dig = run.rep(len(walls))
        walls.append(wall)
        cpus.append(cpu)
        digests.append(dig)
    return {"wall_s": walls, "cpu_s": cpus, "digests": digests}


def measure_traced(run, seconds):
    import spans
    tracer = spans.Tracer()
    plain, traced, digests = [], [], []
    start = time.perf_counter()
    while keep_going(len(plain), MIN_PAIRS, time.perf_counter() - start,
                     [a + b for a, b in zip(plain, traced)], seconds):
        index = len(plain)
        pair = {}
        # Alternate which side runs first, so warm-up and drift within a
        # pair do not bias the overhead one way.
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                pair[with_trace] = run.rep(index)
            finally:
                tracer.uninstall()
        plain.append(pair[False][0])
        traced.append(pair[True][0])
        digests.append(pair[False][2])
        run.check(f"rep {index}: traced digest equals untraced digest",
                  pair[True][2] == pair[False][2])
    layers = spans.layer_metrics(tracer, len(traced))
    traced_mean = statistics.fmean(traced)
    plain_mean = statistics.fmean(plain)
    layers.update({
        "trace.overhead": traced_mean / plain_mean - 1.0,
        "trace.wall_s": traced_mean,
        "trace.untraced_wall_s": plain_mean,
        "trace.unspanned_s": traced_mean - layers.pop("spans.self_s"),
    })
    return ({"untraced_wall_s": plain, "traced_wall_s": traced,
             "digests": digests}, layers, tracer.to_json(start))


def summary_metrics(declared, values):
    """The declared metrics, in order, with their units; all must exist."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import and input generation")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    try:
        setup_s, bench, inputs = load(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]

    run = Run(bench, inputs, args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(), "setup_s": setup_samples}
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        reps, values, span_doc = measure_traced(run, args.seconds)
        declared = spec["per_layer"]
        spans_path = OUT_DIR / f"{args.workload}_seed{args.seed}_spans.json"
        spans_path.write_text(json.dumps(span_doc))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        reps = measure_untraced(run, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"wall_s": statistics.median(reps["wall_s"]),
                  "cpu_s": statistics.median(reps["cpu_s"]),
                  "peak_rss_mb": peak_kib / 1024.0,
                  "setup_s": statistics.median(setup_samples)}
        declared = spec["end_to_end"]
    metrics = summary_metrics(declared, values)
    correct = not run.failed_checks
    record.update({"repetitions": reps, "result_digest": reps["digests"][0],
                   "attempted": run.attempted, "failed": run.failed,
                   "failed_frac": run.failed / run.attempted,
                   "failed_checks": run.failed_checks, "metrics": metrics})
    record_path = OUT_DIR / (f"{args.workload}_seed{args.seed}"
                             f"_trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps['digests'])} repetitions, digest "
          f"{reps['digests'][0][:16]}, failed_frac "
          f"{record['failed_frac']:.4g}, record {record_path.relative_to(ROOT)}")
    if args.trace:
        print(f"tracing overhead {values['trace.overhead']:+.4f} "
              f"(traced / untraced wall time - 1)")
    for name in run.failed_checks:
        print(f"FAILED CHECK {name}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
