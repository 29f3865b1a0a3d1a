"""Benchmark of the standgrowth package: search, audit and cli workloads.

Usage, from the repository root::

    python3 bench/run.py --workload search|search_convex|audit|cli --seed N --seconds S --trace 0|1

Each run launches fresh single-threaded worker processes (``worker.py``)
with ``PYTHONPATH=src`` after one untimed import that fills the bytecode
cache.  Set-up time is the median over ``SETUP_LAUNCHES`` cold starts; the
last of them also runs the workload's closed loop for ``S`` seconds and
checks every operation's output.

The run prints a table of its metrics with units and sample counts, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer metrics of one traced round of the
workload, plus the tracing overhead.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_LAUNCHES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# ``audit`` and ``search_convex`` run by hand only; BENCHMARK.json lists the
# workloads steady enough to gate on and free of known failures (README.md).
WORKLOADS = ("search", "search_convex", "audit", "cli")
# The metrics each mode prints, in order, with their units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(cmd: list, env: dict, deadline: float) -> str:
    """Run ``cmd`` in its own process group; return its standard output.

    On a timeout the whole group is killed, so no grandchild outlives it.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before launching " + " ".join(cmd[1:3]))
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}") from None
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def launch_worker(args, env: dict, deadline: float, setup_only: bool, index: int) -> dict:
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    record = json.loads(run_child(cmd, env, deadline).strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - launched
    return record


def tail_percentile(n: int) -> float:
    """Highest percentile with ten samples beyond it (linear interpolation)."""
    return 100.0 * (n - 11) / (n - 1)


def percentile(values: list, p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(setups: list, main: dict, rss_of: str) -> tuple[dict, list]:
    lat = main["latencies"]
    n = len(lat)
    p_tail = tail_percentile(n)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "ops_per_s": n / main["loop_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": percentile(lat, p_tail),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"setup_s": f"median of {len(setups)} launches",
             "ops_per_s": f"{n} ops in {main['loop_s']:.2f} s",
             "latency_p50_s": f"{n} ops",
             "latency_tail_s": f"p{p_tail:.1f} of {n} ops",
             "peak_rss_mb": rss_of}
    metrics = {m["name"]: values[m["name"]] for m in SPEC["end_to_end"]}
    rows = [(name, value, UNITS[name], notes[name]) for name, value in metrics.items()]
    rows.append(("error_rate", main["failed"] / n, "ratio",
                 f"{main['failed']} of {n} ops failed"))
    return metrics, rows


def per_layer(setups: list, main: dict) -> tuple[dict, list]:
    values = dict(main["layers"], **{
        "cli.import_s": statistics.median(r["import_s"] for r in setups),
        "cli.modules_loaded": main["modules_loaded"]})
    metrics = {m["name"]: values[m["name"]] for m in SPEC["per_layer"]}
    notes = {"cli.import_s": f"median of {len(setups)} cold imports",
             "trace.overhead_s": f"p50 of {main['traced_ops']} traced minus "
                                 f"{main['untraced_ops']} untraced ops"}
    rows = [(name, value, UNITS[name], notes.get(name, ""))
            for name, value in metrics.items()]
    return metrics, rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "standgrowth" / "__init__.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"error: no standgrowth sources under {ROOT}", file=sys.stderr)
        return 2
    env = worker_env()
    try:
        # Untimed: fill the bytecode cache before any timed cold start.
        run_child([sys.executable, "-c", "import standgrowth.cli"], env, deadline)
        setups = [launch_worker(args, env, deadline, True, i)
                  for i in range(SETUP_LAUNCHES - 1)]
        main_record = launch_worker(args, env, deadline, False, SETUP_LAUNCHES - 1)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    setups.append(main_record)

    if args.trace:
        metrics, rows = per_layer(setups, main_record)
    else:
        metrics, rows = end_to_end(setups, main_record, "largest child"
                                   if args.workload == "cli" else "worker")
    envinfo = main_record["environment"]
    print(f"standgrowth benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in envinfo.items()))
    width = max(len(r[0]) for r in rows)
    if args.trace:
        # Exact counts first, apart from the wall-clock times and accuracy.
        rows.sort(key=lambda row: row[2] != "count")
        print(f"spans of the first traced round: {main_record['spans']}")
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<8} {note}")
    attempted, failed = main_record["attempted"], main_record["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
