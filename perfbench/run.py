"""Benchmark of the rodgp simulate -> estimate pipeline.

    python3 perfbench/run.py --workload {simulate,study,track} --seed N \
        --seconds S --trace {0,1}

Run from the root of a rodgp checkout; the library is imported from its
src/ directory. One workload runs per process, single-threaded. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the same workload runs with spans around every
traced rodgp function and the JSON holds the per-layer metrics instead.
A fuller record of each run goes to perfbench/out/. See README.md.
"""

import os
import time

_START = time.perf_counter()

# One BLAS thread: set before numpy is first imported, so the timings do
# not depend on how many cores a shared machine lends the run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import TRACED_NAMES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["simulate", "study", "track"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_rodgp() -> float:
    """Import rodgp from this checkout's src/; returns the import time."""
    if not (SRC / "rodgp" / "__init__.py").is_file():
        raise SystemExit(f"rodgp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import rodgp

    elapsed = time.perf_counter() - start
    if Path(rodgp.__file__).resolve().parent != SRC / "rodgp":
        raise SystemExit(f"imported rodgp from {rodgp.__file__}, not from {SRC}")
    return elapsed


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(run: dict, setup_s: float, peak_rss_mb: float) -> dict:
    durations = run["durations"]
    completed = run["attempted"] - run["failed"]
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(completed / run["busy_s"], "1/s"),
        "call_p50_ms": metric(1e3 * statistics.median(durations), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(run: dict, tracer) -> dict:
    ops = run["attempted"]
    metrics = {}
    for name in TRACED_NAMES:
        metrics[f"{name}.calls_per_op"] = metric(tracer.calls[name] / ops, "count")
        metrics[f"{name}.self_ms_per_op"] = metric(1e3 * tracer.self_s[name] / ops, "ms")
    iterations = run["iterations"]
    metrics["solver.iterations_per_solve"] = metric(
        statistics.fmean(iterations) if iterations else 0.0, "count"
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_rodgp()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.build()
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)
    workload.warm_up(inputs)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        run = workloads.measure(workload, inputs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail_pct, tail_s = workloads.tail(run["durations"])
    problems = workload.finish(inputs)
    if tracer is not None:
        unbalanced = tracer.unbalanced_roots()
        if unbalanced:
            problems.append(f"{unbalanced} traced calls whose self times do not add up")
        metrics = per_layer(run, tracer)
    else:
        metrics = end_to_end(run, setup_s, peak_rss_mb)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "import_s": import_s,
        "builds_s": builds,
        "calls": len(run["durations"]),
        "rounds": run["rounds"],
        "busy_s": run["busy_s"],
        "tail_percentile": tail_pct,
        "call_tail_ms": 1e3 * tail_s,
        "wall_s": time.perf_counter() - _START,
        "problems": problems,
        "metrics": metrics,
    }
    if tracer is not None:
        record["traced_ops_per_s"] = (run["attempted"] - run["failed"]) / run["busy_s"]
        record["traced_self_s"] = sum(tracer.self_s.values())
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
