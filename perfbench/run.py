#!/usr/bin/env python3
"""Run one derfree benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 55 --trace 0

One client runs one operation at a time (a closed loop) in this process,
with BLAS pinned to one thread.  With ``--trace 0`` it cycles through the
workload's rounds op by op until ``--seconds`` have passed and reports the
end-to-end metrics over the distinct ops, each timed by the mean of its
repetitions.  With ``--trace 1`` it runs the first round once untraced and once
traced, reports the per-layer metrics of the traced pass, and records the
difference in throughput as the tracing overhead.  Every answer is checked;
the last line of standard output is the JSON result, and the full record
(environment, per-op latencies, report hashes) goes to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("roundtrip", "defect4", "graded", "cli-rational")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # distinct ops that must lie beyond the reported tail percentile
# figures printed on the line before the result (the results file has them all)
INFO_KEYS = ("fail_frac", "distinct_ops", "repeats_min", "latency_tail_pct",
             "latency_middle_sample_ms",
             "untraced_ops_per_s", "traced_ops_per_s", "tracing_overhead_ops_per_s")


def import_program():
    """Import derfree from this checkout's ``src`` and the workloads that use it."""
    init = SRC / "derfree" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a derfree checkout")
    sys.path.insert(0, str(SRC))
    import derfree
    if Path(derfree.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported derfree from {derfree.__file__}, not {init}")
    import workloads
    return workloads


def setup(workloads, args, workdir, import_s):
    """Build the algebras and generate the inputs; returns (rounds, setup_s, samples).

    The import happens once per process and is timed by the caller; the
    build and input generation are repeated and the median total reported.
    """
    samples = []
    rounds = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = workloads.build(args.workload, args.seed, workdir)
        samples.append(import_s + time.perf_counter() - t0)
        rounds = rounds or built
    return rounds, statistics.median(samples), samples


def run_op(op, tracer=None):
    """Time one op; returns (seconds, failure reason or None)."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as e:  # a crash is a failed op, not a failed run
        return time.perf_counter() - t0, f"raised {type(e).__name__}: {e}"[:300]
    finally:
        if tracer is not None:
            tracer.active = False
    dt = time.perf_counter() - t0
    try:
        return dt, op.check(result, op.expected)
    except Exception as e:
        return dt, f"check raised {type(e).__name__}: {e}"[:300]


def measure(rounds, seconds, tracer=None):
    """Closed loop: cycle the rounds op by op until ``seconds`` of wall time
    have passed and every round has run at least once.

    Each op's record carries its round and its position in the round, which
    together name a distinct op.
    """
    ops = []
    t_start = time.perf_counter()
    k = 0
    while True:
        r = k % len(rounds)
        for j, op in enumerate(rounds[r]):
            if k >= len(rounds) and time.perf_counter() - t_start >= seconds:
                return ops
            dt, err = run_op(op, tracer)
            ops.append({"op": op.label, "round": r, "pos": j, "s": dt,
                        **({"error": err} if err else {})})
        k += 1


def per_op_means(ops) -> list:
    """The mean time of each distinct op over its repetitions."""
    times = collections.defaultdict(list)
    for o in ops:
        times[(o["round"], o["pos"])].append(o["s"])
    return [statistics.fmean(t) for t in times.values()]


def hd_quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of the order statistics, the i-th weighted by the mass
    of Beta(q(n+1), (1-q)(n+1)) on [i/n, (i+1)/n].  Op sizes in a workload
    form clusters with gaps between them, and a single order statistic
    jumps across a gap when noise, the number of completed rounds or a
    change moves a few ops; this estimate moves gradually instead.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 50  # midpoint rule per order statistic
    logs = [[(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
             for x in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(n)]
    top = max(map(max, logs))
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_summary(times):
    """Median, and the highest percentile with TAIL_BEYOND op times beyond it."""
    n = len(times)
    out = {"latency_p50_ms": hd_quantile(times, 0.5) * 1e3,
           "latency_middle_sample_ms": statistics.median(times) * 1e3, "distinct_ops": n}
    if n > TAIL_BEYOND:
        q = (n - TAIL_BEYOND) / n
        out["latency_tail_ms"] = hd_quantile(times, q) * 1e3
        out["latency_tail_pct"] = 100.0 * q
    return out


def environment(args):
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def traced(rounds, record):
    """Run the first round untraced, then traced; returns (metrics, ops)."""
    import tracing
    first = [rounds[0]]
    untraced_ops = measure(first, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = measure(first, 0, tracer)
    finally:
        tracer.uninstall()
    untraced = len(untraced_ops) / sum(o["s"] for o in untraced_ops)
    traced_rate = len(ops) / sum(o["s"] for o in ops)
    record.update({"untraced_ops_per_s": untraced, "traced_ops_per_s": traced_rate,
                   "tracing_overhead_ops_per_s": traced_rate - untraced,
                   "ranks": tracer.ranks()})
    return tracer.metrics(), ops


def untraced(rounds, seconds, setup_s, record):
    """Cycle the rounds for ``seconds``; returns (metrics, ops).

    Each distinct op counts once, timed by the mean of its repetitions, so
    a run that stops part-way through a round does not tilt the mix of op
    sizes.
    """
    ops = measure(rounds, seconds)
    times = per_op_means(ops)
    summary = latency_summary(times)
    record.update(summary)
    record["repeats_min"] = min(collections.Counter(
        (o["round"], o["pos"]) for o in ops).values())
    metrics = {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "latency_p50_ms": {"value": summary["latency_p50_ms"], "unit": "ms"},
        **({"latency_tail_ms": {"value": summary["latency_tail_ms"], "unit": "ms"}}
           if "latency_tail_ms" in summary else {}),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return metrics, ops


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    workloads = import_program()
    import_s = time.perf_counter() - t0
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        rounds, setup_s, samples = setup(workloads, args, workdir, import_s)
        record = {"env": environment(args), "import_s": import_s, "setup_s": setup_s,
                  "setup_samples_s": samples}
        if args.trace:
            metrics, ops = traced(rounds, record)
        else:
            metrics, ops = untraced(rounds, args.seconds, setup_s, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [o for o in ops if "error" in o]
    record.update({"attempted": len(ops), "failed": len(failed),
                   "fail_frac": len(failed) / len(ops), "metrics": metrics,
                   "report_sha256": workloads.report_hashes(rounds), "ops": ops})
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for o in failed[:5]:
        print(f"FAILED {o['op']}: {o['error']}", file=sys.stderr)
    info = {k: record[k] for k in INFO_KEYS if k in record}
    print(json.dumps({"info": info, "results": str(out.relative_to(ROOT))}))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
