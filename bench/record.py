"""Record the expected outcome of every benchmark call into expected.json.

    PYTHONPATH=src python3 bench/record.py

For the default seed and one hold-out seed, runs each call of each workload
once and stores its exit code and the sha256 of its --json stdout, keyed by
the call's argv and input text.  Calls whose outcome does not depend on the
seed share one entry, so every seed has them checked.  A call that raises
gets no entry: it fails whatever it would have returned.  Run this only when
a change is meant to alter reports, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import tempfile

import workloads
from worker import EXPECTED, WORK, argv_for, run_call

SEEDS = (0, 1)  # the default seed and the hold-out seed


def main() -> int:
    from covlab import cli
    outcomes = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for call in workloads.build(workload, seed):
                    if call.key in outcomes:
                        continue
                    code, digest, exc, _ = run_call(cli.main, argv_for(call, tmp))
                    if exc is None:
                        outcomes[call.key] = [code, digest]
    entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(outcomes.items()))
    with open(EXPECTED, "w") as f:
        f.write(f'{{"seeds": {json.dumps(list(SEEDS))}, "calls": {{\n{entries}\n}}}}\n')
    print(f"recorded {len(outcomes)} outcomes for seeds {list(SEEDS)} in {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
