"""Every demo script runs to completion against the source tree and prints
the bytes pinned below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change to what a demo prints updates its
# digest here in the same commit
STDOUT_SHA256 = {
    "01_groups_and_cohomology.py":
        "0b31c6070bd9f9019e847be42023d850fbf3b5982a6bcd55eb18ae7bfcabb4a5",
    "02_extensions.py":
        "46c86474d74347811b860eff94d807f14d4884ccec2820aec9dc4fb815cce381",
    "03_covariance_models.py":
        "1bea69f78ac370537d849d47fd990c3c00a7ab39047472c9b1af067e0fe75735",
    "04_multiplets_and_mixing.py":
        "2052226c6624c6c121e8695dd5b2c94f7c1052a6ce3df74f9648d2f733851d08",
    "05_covering_and_spin.py":
        "e1b028010dd7d9677bfc45def2bcc92c49f08481ba93ed949c2e3d112a62d5a7",
    "06_wick_scaling.py":
        "3336a427f6d70342be11d5cdd71b3d75089ef77cfd601ceeb373fa4353038d3f",
}


def test_every_demo_has_a_pinned_digest():
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
