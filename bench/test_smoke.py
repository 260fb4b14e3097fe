"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import layertrace  # noqa: E402
import workloads  # noqa: E402

# fail_frac is printed with the others; the result line carries it as
# failed / attempted, since BENCHMARK.json takes only metrics that are never 0.
PRINTED = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] + [("fail_frac", "ratio")]


def run(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "bench/run.py", "--seed", "0",
                           "--seconds", "0.5", "--tiny", *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def test_spec_matches_benchmark():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == layertrace.metric_names()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    code, lines, err = run("--workload", workload, "--trace", "0")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for name, unit in PRINTED:
        pattern = rf"^\s+{re.escape(name)}\s+\d+\.\d+ {re.escape(unit)}\s+\(n=\d+ "
        assert any(re.match(pattern, line) for line in lines[:-1]), (name, lines)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    # Only a corrupted cochain sent to build-extension may fail: today it
    # escapes as an InvalidCocycle traceback instead of exit 1 or 2.
    calls = workloads.build(workload, 0, tiny=True)
    bad = sum(c.corrupted and "build-extension" in c.argv for c in calls)
    assert result["failed"] * len(calls) <= bad * result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    results = []
    for _ in range(2):
        code, lines, err = run("--workload", workload, "--trace", "1")
        assert code == 0, err
        results.append(json.loads(lines[-1]))
    first, second = results
    assert first["correct"] is True  # includes the trace-completeness check
    units = {name: unit for name, unit, _ in layertrace.metric_names()}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    calls = [k for k in units if k.endswith(".calls")]
    assert [first["metrics"][k]["value"] for k in calls] \
        == [second["metrics"][k]["value"] for k in calls]
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_unexpected_exception_makes_run_incorrect(tmp_path):
    # A sitecustomize on PYTHONPATH makes every classify-h2 call raise
    # TypeError inside cli.main, in the benchmark's worker processes too.
    (tmp_path / "sitecustomize.py").write_text(
        "import covlab.cli\n"
        "def _broken(*args, **kwargs):\n"
        "    raise TypeError('injected')\n"
        "covlab.cli.classify_h2 = _broken\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(ROOT / "src")])
    code, lines, err = run("--workload", "h2-grid", "--trace", "0", env=env)
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any("raised TypeError" in line for line in lines[:-1]), lines


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    code, lines, _ = run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
