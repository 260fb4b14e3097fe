"""One digest per CLI report on the shipped inputs.

    PYTHONPATH=src python tools/report_digest.py

Runs `covlab.cli.main` in this process on each argv of `argvs()`, once
without and once with `--json`, and prints one line per call: the sha256 of
[exit code, stdout, stderr], then the argv. The last line gives the number
of calls and one sha256 over all the lines before it. `covlab` is imported
from `PYTHONPATH`, so `PYTHONPATH=<other checkout>/src` digests another
checkout's reports, and two checkouts report alike when their lines match.
The argv are read off the `covlab.models` registries, so a registered
fixture is covered with no edit here. Exits 1, naming the argv, when a call
raises or exits with a code other than 0, 1 or 2. Standard library only;
takes no flags and writes no file.

`tools/report_digest.expected` holds this tool's output on the committed
`src`, and CI diffs the two. A change that alters a report, or the set of
argv, regenerates it with

    PYTHONPATH=src python tools/report_digest.py > tools/report_digest.expected

and says which reports changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shlex
import sys
import traceback

from covlab import cli, models
from covlab.fingroup import _STANDARD, standard_group


def argvs() -> list:
    """Every verb over every registry entry it takes, and fixed argv for the
    verbs that take no registry entry; never `--timing`."""
    named = sorted(models.NAMED_MODELS)
    out = [[verb, "--model", m] for verb in ("gauge-group", "extract-cocycle", "lift-extension")
           for m in named]
    out += [["compare-impls", "--model", m, "--other", o]
            for m, o in itertools.product(named, repeat=2)]
    out += [[verb, "--fixture", f] for verb in ("validate-cocycle", "build-extension")
            for f in sorted(models.COCHAIN_FIXTURES)]
    out += [[verb, "--fixture", f] for verb in ("verify-multiplet", "detect-mixing")
            for f in sorted(models.FIELD_FIXTURES)]
    covers, zetas = sorted(models.COVERS), sorted(models.KERNEL_MAPS)
    out += [["cover-z", "--cover", c, "--zeta", z] for c in covers for z in zetas]
    out += [["spin-obstruction", "--cover", c, "--rep", r, "--zeta", z] for c in covers
            for r in sorted(set().union(*models.REPS.values())) for z in zetas]
    out += [["classify-h2", "--G", g, "--A", a] for g in _STANDARD
            if standard_group(g).order <= 4 for a in _STANDARD]
    out += [["scale-power", "--k", str(k), *conformal] for k in (1, 2, 5, 16)
            for conformal in ((), ("--conformal",))]
    out.append(["wick-product", "--p", "1*Phi^2 + 3*Phi^1", "--q", "1*Phi^2"])
    return out + [["scaling-cocycle", *xi] for xi in ((), ("--xi-nonzero",))]


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse refuses an argv this way
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    lines = []
    for argv in argvs():
        for call in (argv, ["--json", *argv]):
            try:
                code, out, err = run(call)
            except Exception as exc:
                traceback.print_exc()
                sys.exit(f"{shlex.join(call)}: raised {exc!r}")
            if code not in (0, 1, 2):
                sys.exit(f"{shlex.join(call)}: exit code {code!r}")
            digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
            lines.append(f"{digest}  {shlex.join(call)}")
            print(lines[-1])
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} calls  {total}")


if __name__ == "__main__":
    main()
