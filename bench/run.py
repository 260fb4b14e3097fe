"""covlab benchmark: CLI workloads timed end to end through `covlab.cli.main`.

    python3 bench/run.py --workload h2-grid --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 0     # every workload in turn

Runs from the root of a checkout, with the package sources under src/.
With --trace 0 a run starts fresh interpreters one after another (a closed
loop with one client, one thread each); each sets up, then runs timed
batches of calls, one pass over the workload per batch, and the run reports
the end-to-end metrics over all of them.  With --trace 1 one interpreter
traces a single batch layer by layer (see layertrace.py), then times
untraced batches to measure the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  NOTES.md explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROCESSES = 3          # fresh interpreters per untraced run; setup_s is their median
MIN_CALLS = 100        # per untraced run, so at least ten calls lie beyond p90
DEADLINE_S = 170.0     # a run must end within 180 s


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank q-quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_worker(workload: str, args, budget: float, min_calls: int, trace: bool,
               deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("COVLAB_ENUM_CAP", None)  # the default cap is part of the workload
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--budget", f"{budget:.3f}",
           "--min-calls", str(min_calls)]
    if args.tiny:
        cmd.append("--tiny")
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_checks(samples) -> bool:
    """Print the correctness summary; True when no answer was wrong."""
    wrong = [w for s in samples for w in s["wrong"]]
    raised = {}
    for s in samples:
        for name, n in s["raised"].items():
            raised[name] = raised.get(name, 0) + n
    checked = sum(s["digests_checked"] for s in samples)
    skipped = sum(s["digests_skipped"] for s in samples)
    print(f"  outputs: {checked} digests checked; {skipped} calls have no recorded "
          f"outcome for this seed, so only their exit code was checked")
    for name, n in sorted(raised.items()):
        print(f"  escaped exceptions: {n} x {name} (failed calls; wrong answers "
              f"unless the known InvalidCocycle failure)")
    for w in wrong[:10]:
        print(f"  WRONG: {w}")
    return not wrong


def untraced(workload: str, args, deadline: float):
    processes = 1 if args.tiny else PROCESSES
    min_calls = 0 if args.tiny else math.ceil(MIN_CALLS / processes)
    samples = [run_worker(workload, args, args.seconds / processes, min_calls, False,
                          deadline)
               for _ in range(processes)]
    walls = [w for s in samples for w in s["batch_walls_s"]]
    lat_ms = sorted(x * 1000.0 for s in samples for x in s["latencies_s"])
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    beyond = len(lat_ms) - math.ceil(0.9 * len(lat_ms))
    metrics = {
        "wall_s": (statistics.fmean(walls), "s",
                   f"n={len(walls)} batches of {len(lat_ms) // len(walls)} calls, mean"),
        "call_p50_ms": (percentile(lat_ms, 0.5), "ms", f"n={len(lat_ms)} calls"),
        "call_p90_ms": (percentile(lat_ms, 0.9), "ms",
                        f"n={len(lat_ms)} calls, {beyond} beyond"),
        "fail_frac": (failed / attempted, "ratio", f"n={attempted} calls, {failed} failed"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB",
                        f"n={len(samples)} processes, median"),
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s",
                    f"n={len(samples)} set-ups, median"),
    }
    print(f"covlab benchmark: workload {workload}, seed {args.seed}, "
          f"{len(samples)} processes")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:12s} {value:12.4f} {unit:5s} ({detail})")
    probes = ", ".join(f"{a:.1f}/{b:.1f}" for a, b in (s["probe_ms"] for s in samples))
    print(f"  host probe ms before/after the timed phase, per process: {probes}")
    correct = report_checks(samples)
    # fail_frac is printed above; the result line carries it as failed/attempted.
    reported = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                if k != "fail_frac"}
    return correct, attempted, failed, reported


def traced(workload: str, args, deadline: float):
    s = run_worker(workload, args, args.seconds / 2, 0, True, deadline)
    tr = s["trace"]
    values = dict(tr["layers"])
    print(f"covlab traced run: workload {workload}, seed {args.seed}, "
          f"one batch of {len(s['latencies_s']) // len(s['batch_walls_s'])} calls")
    for layer in layertrace.LAYERS:
        print(f"  {layer:12s} {values[layer + '.calls']:9d} calls "
              f"{values[layer + '.self_s']:9.4f} s self")
    for name, (num, den) in tr["ratio_bases"].items():
        values[name] = num / den if den else 0.0
        print(f"  {name} = {num} / {den}")
    untraced_wall = statistics.fmean(s["batch_walls_s"])
    values["trace.overhead_ratio"] = tr["wall_s"] / untraced_wall
    print(f"  trace.overhead_ratio = {tr['wall_s']:.4f} s traced / "
          f"{untraced_wall:.4f} s untraced (mean of {len(s['batch_walls_s'])} batches)")
    print(f"  {tr['spans']} spans written to {tr['spans_file']}")
    missing = [name for name in layertrace.EXPECTED_CALLS[workload]
               if values[f"{name}.calls"] == 0]
    for name in missing:
        print(f"  TRACE INCOMPLETE: {name} recorded no calls")
    correct = report_checks([s]) and not missing
    units = {name: unit for name, unit, _ in layertrace.metric_names()}
    reported = {name: {"value": values[name], "unit": units[name]} for name in units}
    return correct, s["attempted"], s["failed"], reported


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them in turn with one result line each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="timed seconds per run, split over its processes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one process, a small pass: a smoke test, not a measurement")
    args = ap.parse_args(argv)
    if not (SRC / "covlab" / "cli.py").is_file():
        print(f"covlab sources not found under {SRC}", file=sys.stderr)
        return 2
    for workload in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
        deadline = time.monotonic() + DEADLINE_S
        try:
            correct, attempted, failed, metrics = (traced if args.trace else untraced)(
                workload, args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"benchmark run failed: {err}", file=sys.stderr)
            return 1
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
