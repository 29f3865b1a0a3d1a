"""Benchmark worker: one fresh process that sets up and runs one workload.

Run from the repository root with ``PYTHONPATH=src``; ``run.py`` launches it.
The last line of standard output is a JSON record:

* ``ready``: ``time.monotonic()`` when set-up ended and the first operation
  may start (the launcher subtracts its own launch time);
* ``import_s`` and ``modules_loaded``: cost of ``import standgrowth.cli`` in
  this fresh interpreter;
* without ``--setup-only``: the timed loop's latencies, loop time, peak RSS
  and oracle results, or with ``--trace 1`` the per-layer metrics of one
  traced round and the latencies of untraced and traced rounds.
"""

import sys
import time

_t0 = time.perf_counter()
_n0 = len(sys.modules)
import standgrowth.cli  # noqa: E402  (timed: the package import of a cold start)
IMPORT_S = time.perf_counter() - _t0
MODULES_LOADED = len(sys.modules) - _n0

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import standgrowth as sg  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 11          # the tail percentile needs ten samples beyond it
MAX_FAILURE_LINES = 5


def run_op(op):
    t0 = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception:  # an operation that raises is a failed operation
        out, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
    return time.perf_counter() - t0, out, error


def check(op, out, error) -> list:
    """The operation's oracle: a list of failure messages, empty when correct."""
    if error is not None:
        return [f"raised {error}"]
    try:
        return op.check(out)
    except Exception:
        return [f"oracle raised {traceback.format_exc(limit=3).strip()}"]


def report_failures(checked) -> int:
    """Print the first failures to stderr; return the number of failed ops."""
    failed = [(label, msgs) for label, msgs in checked if msgs]
    for label, msgs in failed[:MAX_FAILURE_LINES]:
        print(f"FAILED {label}: {'; '.join(msgs)}", file=sys.stderr)
    if len(failed) > MAX_FAILURE_LINES:
        print(f"... and {len(failed) - MAX_FAILURE_LINES} more failed operations",
              file=sys.stderr)
    return len(failed)


def timed_loop(workload, seconds: float) -> dict:
    """Closed loop for ``seconds`` (and at least MIN_OPS operations).

    Each output is checked as soon as its operation ends, with the loop
    clock stopped, so outputs need not be kept and checking costs no time.
    """
    ops = workload.ops()
    latencies, checked = [], []
    loop_s = 0.0
    while loop_s < seconds or len(latencies) < MIN_OPS:
        t0 = time.perf_counter()
        op = next(ops)
        latency, out, error = run_op(op)
        loop_s += time.perf_counter() - t0
        latencies.append(latency)
        checked.append((op.label, check(op, out, error)))
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return {"latencies": latencies, "loop_s": loop_s, "peak_rss_mb": peak_rss_mb,
            "attempted": len(checked), "failed": report_failures(checked)}


def one_round(workload, ctx, tracer=None):
    """Run the first ``ops_per_round`` operations of the workload's stream.

    With a tracer installed, scenario loading and the stream's own work
    between operations are tagged with op ids of their own.
    """
    def tag(op_id):
        if tracer is not None:
            tracer.op = op_id

    if tracer is not None:
        tracer.install()
    try:
        tag("load")
        for name in workloads.SCENARIOS:
            sg.load_scenario(ctx.path(name))
        ops = workload.ops()
        records, latencies = [], []
        for k in range(workload.ops_per_round):
            tag(("pre", k))
            op = next(ops)
            tag(k)
            latency, out, error = run_op(op)
            records.append((op, out, error))
            latencies.append(latency)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records, latencies


def traced_run(workload, ctx, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced rounds for ``seconds``.

    The per-layer metrics come from the first traced round, whose spans are
    written to ``spans_path``; the latencies of all rounds give the tracing
    overhead.
    """
    scenarios = [loaded.scenario for loaded in ctx.loaded.values()]
    latencies = {False: [], True: []}
    attempted = failed = 0
    layers = None
    start = time.perf_counter()
    for pair in itertools.count():
        if layers is not None and time.perf_counter() - start >= seconds:
            break
        # Alternate which round of a pair runs first, so warm-up is shared.
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            tr = tracing.Tracer() if traced else None
            stats = tracing.LayerStats(tr, scenarios) if traced else None
            records, lat = one_round(workload, ctx, tr)
            latencies[traced] += lat
            attempted += len(records)
            failed += report_failures([(op.label, check(op, out, error))
                                       for op, out, error in records])
            if traced and layers is None:
                layers = tracing.layer_metrics(tr, stats)
                tr.write(spans_path)
                for key in ("objective_rel_err", "ibp_rel_err"):
                    layers[f"economics.{key}_max"] = max(
                        (op.accuracy.get(key, 0.0) for op, _, _ in records), default=0.0)
    layers["trace.overhead_s"] = float(np.median(latencies[True])
                                       - np.median(latencies[False]))
    return {"layers": layers, "attempted": attempted, "failed": failed,
            "traced_ops": len(latencies[True]), "untraced_ops": len(latencies[False]),
            "spans": str(spans_path)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    root = Path.cwd()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        ctx = workloads.Context(root)
        workload = workloads.make(args.workload, ctx, args.seed, workdir, bool(args.trace))
        record = {"ready": time.monotonic(), "import_s": IMPORT_S,
                  "modules_loaded": MODULES_LOADED}
        if not args.setup_only:
            if args.trace:
                spans_dir = root / ".bench_out"
                spans_dir.mkdir(exist_ok=True)
                record.update(traced_run(workload, ctx, args.seconds, spans_dir /
                                         f"spans-{args.workload}-seed{args.seed}.jsonl"))
            else:
                record.update(timed_loop(workload, args.seconds))
            record["environment"] = {
                "python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
