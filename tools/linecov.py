"""Line coverage of the library by the tier-1 tests and the demos.

    python tools/linecov.py

Traces every line of `src/covlab` while the tier-1 suite runs in this process
and each demo runs with `runpy`, and exits 1 naming every executable line
that nothing ran, unless `tools/linecov_allow.txt` lists it. The executable
lines of a module are those its compiled code objects map instructions to
(`co_lines`). An allowlist line reads

    <file under src/covlab> :: <source text of the line, stripped> :: <reason>

and excuses one unrun line with that text in that file. An entry that
excuses no unrun line is stale and fails the run too. Writes nothing into
the checkout: bytecode caches and the pytest cache are off, and the run
works in a temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covlab"
ALLOW = Path(__file__).resolve().with_name("linecov_allow.txt")


def executable_lines(path: Path) -> set:
    """Every line a code object of the module maps an instruction to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def read_allowlist() -> Counter:
    allowed = Counter()
    for number, raw in enumerate(ALLOW.read_text().splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = [f.strip() for f in raw.split(" :: ")]
        if len(fields) != 3 or not all(fields):
            sys.exit(f"{ALLOW.name}:{number}: expected 'file :: source :: reason'")
        allowed[fields[0], fields[1]] += 1
    return allowed


def traced_run() -> dict:
    """Run tier-1 and the demos under a line tracer; the lines run per file.
    A code object all of whose lines have run is not traced again."""
    prefix = str(PACKAGE) + os.sep
    ran, lines_of, done = {}, {}, set()

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        elif event == "return":
            code = frame.f_code
            if lines_of[code] <= ran[code.co_filename]:
                done.add(code)
        return local

    def global_(frame, event, arg):
        code = frame.f_code
        if code in done or not code.co_filename.startswith(prefix):
            return None
        if code not in lines_of:
            lines_of[code] = {line for _, _, line in code.co_lines() if line is not None}
        ran.setdefault(code.co_filename, set()).add(frame.f_lineno)
        return local

    import pytest

    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        if code != 0:
            sys.exit(f"tier-1 failed (pytest exit code {code})")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
    return ran


def main() -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    allowed = read_allowlist()
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)  # what a pytest plugin writes beside the run lands here
        ran = traced_run()
        os.chdir(ROOT)
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        for line in missed:
            key = (path.name, source[line - 1].strip())
            if allowed[key] > 0:
                allowed[key] -= 1
            else:
                unrun.append(f"src/covlab/{path.name}:{line}: {key[1]}")
    stale = [f"{ALLOW.name}: {f} :: {s}" for (f, s), n in allowed.items() for _ in range(n)]
    for line in unrun:
        print("not run:", line)
    for entry in stale:
        print("stale allowlist entry:", entry)
    if unrun or stale:
        return 1
    print("every executable line of src/covlab ran, or is allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
