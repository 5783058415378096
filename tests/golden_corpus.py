"""The golden corpus of CLI outputs: what it holds, how a job is run, and
how the corpus is rewritten.

Each record in ``tests/golden/`` is one ``homring`` job: its argv, exit
code, stderr and stdout.  Stdout over ``RAW_LIMIT`` bytes is stored as its
SHA-256 and length instead.  ``tests/test_golden.py`` replays every record
in process (``run_job``) and a subset of them as processes (``run_process``).

The jobs are the distinct jobs of the benchmark's four workloads at seeds
1-3, ``weight table`` and ``ring info`` on fourteen rings, one refusal for
each exit code that a CLI job can reach, and the CLI surface: output
formats and their refusals, ``verify paper --only``, seeded maps, config
files, the sigma-quadratic, named-trace and Galois-pair jobs, a Galois
ring refused from its spec before it is built, a Hamming weight refused
a gamma other than 1, four small-spectrum codes that neither
``verify paper`` nor another record pins, and a ``table:`` trace and a
``table:`` function.  Exit 1 needs a failing ``verify paper`` record, and
70 a fault that no CLI spec makes.

Every job runs with ``tests/golden/`` as its working directory, so a
config file (``*.cfg`` there) or a two-column table (``*.tbl``) is named by
its bare file name and no record depends on where the checkout lives.

Rewriting the corpus records what the code in ``src/`` prints now, so run
it only on a tree whose outputs are known to be right, and name every
record it changes, with the reason, in CHANGES.md:

    PYTHONPATH=src python3 tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
RAW_LIMIT = 64 * 1024

RINGS = ("Zm:12", "Zm:36", "Zm:60", "Zm:97", "Zm:2000", "GR:2,2,2", "GR:3,2,2",
         "GR:2,3,2", "GR:2,1,7", "GR:5,2,1", "GR:3,1,3", "GR:2,2,3", "FXY:3",
         "Z4X")

# one job for each exit code a CLI job can reach, by code
REFUSALS = {
    2: ("code", "analyze", "--ring", "Zm:5"),
    4: ("code", "analyze", "--ring", "Zm:6", "--f", "pow:2",
        "--gamma", "hamming-normalized"),
    5: ("trace", "check", "--ring", "Z4X", "--subring", "Zm:4",
        "--trace", "z4x:0,2"),
    8: ("code", "analyze", "--ring", "Zm:2048", "--f", "pow:3"),
    9: ("code", "analyze", "--ring", "GR:2,2,2", "--subring", "Zm:4",
        "--trace", "galois", "--f", "frank:0,2,1"),
    10: ("code", "analyze", "--ring", "Zm:4", "--f", "frank:id"),
    11: ("code", "analyze", "--ring", "Zm:5", "--f", "pow:0"),
    12: ("code", "graph", "--ring", "GR:2,2,2", "--subring", "Zm:4",
         "--trace", "galois", "--f", "frank:id"),
    13: ("code", "analyze", "--ring", "Zm:5", "--f", "pow:2", "--gamma", "x"),
    14: ("code", "analyze", "--ring", "Qm:4", "--f", "pow:2"),
}

GALOIS = ("--trace", "galois")

# the CLI surface: formats, --only, a seeded map, config files, the
# sigma-quadratic, named-trace and Galois-pair jobs, a Galois ring over the
# budget, a Hamming weight refused a gamma other than 1, four codes with
# small spectra that nothing else pins: the frank code on GR(9, 2) with
# S = R, the sigma-quadratic code on FXY:2 traced to Zm:2 at gamma = 1, and
# two power maps on Z4X under named traces; and two jobs on two-column
# ``table:`` files, a trace that is not additive and a function
SURFACE = (
    ("weight", "table", "--ring", "Zm:12", "--format", "json"),
    ("code", "analyze", "--ring", "GR:2,2,2", "--subring", "Zm:4", *GALOIS,
     "--f", "frank:id", "--format", "csv"),
    ("ring", "info", "--ring", "Zm:6", "--format", "csv"),
    ("trace", "list", "--ring", "Z4X", "--subring", "Zm:4", "--format", "csv"),
    ("trace", "check", "--ring", "GR:2,2,2", "--subring", "Zm:4", *GALOIS,
     "--format", "csv"),
    ("code", "graph", "--ring", "Zm:5", "--f", "pow:3", "--format", "csv"),
    ("code", "graph", "--ring", "Qm:4", "--format", "csv"),
    ("verify", "paper", "--only", "1,13"),
    ("verify", "paper", "--only", "99"),
    ("code", "analyze", "--ring", "GR:2,2,2", "--subring", "Zm:4", *GALOIS,
     "--f", "frank:rand", "--seed", "11"),
    ("code", "analyze", "--config", "analyze.cfg"),
    ("code", "analyze", "--config", "analyze.cfg", "--f", "pow:2",
     "--format", "json"),
    ("code", "analyze", "--ring", "FXY:2", "--f", "sigmaquad:swapxy"),
    ("code", "analyze", "--ring", "FXY:2", "--subring", "Zm:2",
     "--trace", "fxy-sum", "--f", "sigmaquad:swapxy", "--gamma", "1/2"),
    ("code", "analyze", "--ring", "GR:2,3,2", "--subring", "Zm:8", *GALOIS,
     "--f", "sigmaquad:frobenius"),
    ("code", "analyze", "--ring", "FXY:2", "--f", "sigmaquad:frobenius"),
    ("code", "analyze", "--ring", "GR:2,2,2", "--f", "sigmaquad:swapxy"),
    ("code", "analyze", "--ring", "Z4X", "--f", "sigmaquad:swapxy"),
    ("code", "analyze", "--ring", "Zm:5", "--f", "sigmaquad:frobenius"),
    ("code", "analyze", "--ring", "FXY:2", "--f", "sigmaquad:foo"),
    ("code", "analyze", "--ring", "GR:2,2,2", "--subring", "Zm:2", *GALOIS,
     "--f", "frank:id"),
    ("trace", "check", "--ring", "GR:2,2,2", "--subring", "Zm:4", *GALOIS),
    ("code", "analyze", "--ring", "GR:2,1,4", "--subring", "Zm:2", *GALOIS,
     "--f", "pow:3"),
    ("code", "analyze", "--ring", "GR:2,1,4", "--subring", "GR:2,1,2",
     *GALOIS, "--f", "pow:3"),
    ("code", "analyze", "--ring", "GR:2,1,6", "--subring", "GR:2,1,3",
     *GALOIS, "--f", "pow:3"),
    ("code", "analyze", "--ring", "GR:3,2,2", "--subring", "Zm:9", *GALOIS,
     "--f", "frank:id"),
    ("trace", "list", "--ring", "GR:2,1,4", "--subring", "GR:2,1,2"),
    ("trace", "list", "--ring", "GR:2,2,2", "--subring", "Zm:4"),
    ("trace", "list", "--ring", "FXY:2", "--subring", "Zm:2"),
    ("trace", "list", "--ring", "GR:2,1,6", "--subring", "GR:2,1,3"),
    ("ring", "info", "--ring", "GR:2,1,100"),
    ("code", "analyze", "--ring", "Zm:5", "--f", "pow:3", "--weight", "hamming",
     "--gamma", "7"),
    ("code", "analyze", "--ring", "GR:3,2,2", "--f", "frank:id"),
    ("code", "analyze", "--ring", "FXY:2", "--subring", "Zm:2",
     "--trace", "fxy-sum", "--f", "sigmaquad:swapxy"),
    ("code", "analyze", "--ring", "Z4X", "--subring", "Zm:4",
     "--trace", "z4x:0,1", "--f", "pow:2"),
    ("code", "analyze", "--ring", "Z4X", "--subring", "Zm:4",
     "--trace", "z4x:0,3", "--f", "pow:3"),
    ("trace", "check", "--ring", "Zm:5", "--trace", "table:cube_zm5.tbl"),
    ("code", "analyze", "--ring", "Zm:7", "--f", "table:cube_zm7.tbl"),
)


def _record(argv, code, stderr: str, stdout: bytes) -> dict:
    record = {"argv": list(argv), "exit": code, "stderr": stderr}
    if len(stdout) > RAW_LIMIT:
        record["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        record["stdout_length"] = len(stdout)
    else:
        record["stdout"] = stdout.decode("utf-8")
    return record


def run_job(argv) -> dict:
    """Run one job in process through ``cli.main``; its record."""
    from homring import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return _record(argv, code, err.getvalue(), out.getvalue().encode("utf-8"))


def process_env() -> dict:
    """The environment of a job run as a process: ``src/`` on the path, the
    default budget, and no other ``PYTHON*`` setting (``PYTHONUNBUFFERED``
    would flush every write before the process exits)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON") and key != "HOMRING_BUDGET"}
    env["PYTHONPATH"] = str(HERE.parent / "src")
    return env


def run_process(argv) -> dict:
    """Run one job as ``python -m homring.cli`` in a fresh interpreter; its
    record."""
    done = subprocess.run([sys.executable, "-m", "homring.cli", *argv],
                          cwd=GOLDEN, env=process_env(), capture_output=True,
                          timeout=120)
    return _record(argv, done.returncode, done.stderr.decode("utf-8"), done.stdout)


def record_name(argv) -> str:
    return re.sub(r"[^A-Za-z0-9.,-]+", "_", "_".join(argv)).strip("_") + ".json"


def jobs() -> list:
    """Every job of the corpus, workloads first, without repeats."""
    sys.path.insert(0, str(HERE.parent / "bench"))
    import workloads

    argvs = [job.argv for name in workloads.WORKLOADS for seed in (1, 2, 3)
             for job in workloads.build(name, seed)]
    argvs += [(*command, "--ring", ring) for ring in RINGS
              for command in (("weight", "table"), ("ring", "info"))]
    argvs += list(REFUSALS.values())
    argvs += SURFACE
    return list(dict.fromkeys(argvs))


def main() -> int:
    os.environ.pop("HOMRING_BUDGET", None)  # the default budget only
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for argv in jobs():
        record = run_job(argv)
        path = GOLDEN / record_name(argv)
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{record['exit']:3d}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
