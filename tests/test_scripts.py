"""The experiment scripts run end to end against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,summary", [
    ("survey_spectra.py", ["--ring", "Zm:7", "--f", "pow:3"],
     "1 jobs; closed forms matched 0/0"),
    ("trace_census.py", ["--pair", "Zm:4:Zm:4"], "2 trace maps"),
])
def test_script_runs_and_prints_its_summary(script, args, summary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert summary in done.stdout
