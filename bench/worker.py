"""One benchmark process: set up, run timed batches of `cli.main` calls, report.

run.py starts this script in a fresh interpreter for every sample; it prints
one JSON object on its last line of standard output.  A batch is one pass
over the workload's calls, each pass in a seeded shuffled order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"
TRACES = HERE / "traces"

PROBE_LOOP = 200_000


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def run_call(main, argv):
    """Call `main(argv)` with stdout and stderr captured.

    Returns (exit code or None, sha256 of stdout, exception name or None,
    seconds spent in main).
    """
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as e:  # an escaped exception is a failed call
            exc = type(e).__name__
        finally:
            elapsed = time.perf_counter() - start
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return code, digest, exc, elapsed


def known_failure(call: workloads.Call, exc: str) -> bool:
    """The one documented defect (NOTES.md): `build-extension` on a corrupted
    cochain escapes as `InvalidCocycle` instead of returning exit 1 or 2."""
    return call.corrupted and "build-extension" in call.argv and exc == "InvalidCocycle"


def argv_for(call: workloads.Call, workdir: str) -> list:
    """The call's argv, with its input text written to a file in `workdir`
    and that file's path in place of `workloads.INPUT`."""
    argv = list(call.argv)
    if call.input is not None:
        path = os.path.join(workdir, call.key[:16] + ".json")
        with open(path, "w") as f:
            f.write(call.input)
        argv = [path if a == workloads.INPUT else a for a in argv]
    return argv


class Checker:
    """Counts failed calls and wrong answers against the expected outcomes.

    A call fails when an exception escapes `cli.main`, or when its exit code
    or stdout differs from what is expected.  Every failure is also a wrong
    answer, except the known failure, which is counted as failed only.
    """

    def __init__(self, recorded: dict) -> None:
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.raised: dict = {}
        self.digests_checked = 0
        self.digests_skipped = 0

    def check(self, call: workloads.Call, code, digest, exc, timed: bool) -> None:
        ok = True
        if exc is not None:
            ok = False
            self.raised[exc] = self.raised.get(exc, 0) + 1
            if not known_failure(call, exc):
                self.wrong.append(f"{call.label[:80]} -> raised {exc}")
        else:
            want = self.recorded.get(call.key)
            if want is None:
                self.digests_skipped += 1
                right = code in call.expect
            else:
                self.digests_checked += 1
                right = code in call.expect and [code, digest] == want
            if not right:
                ok = False
                self.wrong.append(f"{call.label[:80]} -> exit {code}")
        if timed:
            self.attempted += 1
            self.failed += not ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds of timed batches to run (at least one batch)")
    ap.add_argument("--min-calls", type=int, default=0,
                    help="keep running batches until this many timed calls")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true",
                    help="trace one batch, then time untraced batches")
    args = ap.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    # -- set-up: import, input generation, one untimed warm-up pass ----------
    t0 = time.perf_counter()
    from covlab import cli
    calls = workloads.build(args.workload, args.seed, args.tiny)
    argvs = {call: argv_for(call, workdir) for call in calls}
    checker = Checker(json.loads(EXPECTED.read_text())["calls"])
    orders = workloads.pass_orders(calls, args.seed)
    for call in next(orders):
        code, digest, exc, _ = run_call(cli.main, argvs[call])
        checker.check(call, code, digest, exc, timed=False)
    setup_s = time.perf_counter() - t0

    def batch(hook=None):
        latencies = []
        start = time.perf_counter()
        for i, call in enumerate(next(orders)):
            if hook:
                hook(i)
            code, digest, exc, elapsed = run_call(cli.main, argvs[call])
            latencies.append(elapsed)
            checker.check(call, code, digest, exc, timed=True)
        return time.perf_counter() - start, latencies

    result = {"setup_s": setup_s}

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        origin = time.perf_counter()
        traced_wall, _ = batch(hook=lambda i: setattr(tracer, "call_id", i))
        tracer.uninstall()
        result["trace"] = {
            "wall_s": traced_wall,
            "layers": tracer.layer_metrics(),
            "ratio_bases": tracer.ratio_bases(),
        }

    # -- timed phase -----------------------------------------------------------
    probe_before = host_probe_ms()
    walls, latencies = [], []
    spent = 0.0
    while not walls or spent < args.budget or len(latencies) < args.min_calls:
        wall, lat = batch()
        walls.append(wall)
        latencies += lat
        spent += wall
    probe_after = host_probe_ms()

    if tracer is not None:
        TRACES.mkdir(exist_ok=True)
        path = TRACES / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        result["trace"]["spans"] = tracer.write_spans(path, origin)
        result["trace"]["spans_file"] = str(path.relative_to(HERE.parent))

    result.update({
        "batch_walls_s": walls,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_ms": [probe_before, probe_after],
        "attempted": checker.attempted,
        "failed": checker.failed,
        "wrong": checker.wrong,
        "raised": checker.raised,
        "digests_checked": checker.digests_checked,
        "digests_skipped": checker.digests_skipped,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
