"""The experiment scripts run end to end against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script,args,summary", [
    ("survey_spectra.py", ["--ring", "Zm:7", "--f", "pow:3"],
     "1 jobs; closed forms matched 0/0"),
])
def test_script_runs_and_prints_its_summary(script, args, summary):
    assert summary in _run(script, *args).decode()


def test_the_default_survey_grid_is_pinned():
    # every job of the default grid, its code built from its specs, weighed
    # and compared with its closed form, byte for byte
    assert _run("survey_spectra.py", "--json") == (
        ROOT / "tests" / "survey_spectra.json").read_bytes()
    assert _run("survey_spectra.py").endswith(b"\n14 jobs; closed forms matched 10/10\n")
