"""Benchmark of homring's CLI jobs.

    python3 bench/run.py --workload analyze-zp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: it runs ``src/homring`` from there.
Each job is a fresh ``python3 -m homring.cli`` process, started one after
another from this process (a closed loop with one client).  Whole rounds of
the workload's jobs run until ``--seconds`` have passed; every output is
checked against ``workloads`` / ``oracles`` after its job, outside its
timing.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (tracing off):
  wall_s       wall time of one round of the workload's jobs
  peak_rss_mb  median over rounds of the largest peak RSS of a job process
  setup_s      summed per-job set-up of one pass over the workload's jobs,
               median of SETUP_PASSES passes
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (medians over traced rounds of per-round sums) and the
tracing overhead.  Raw samples and spans go to bench/results/.

Every time is given in reference seconds.  A fixed pure-Python reference
(``probe.py ref``) runs right after every job and every set-up pass.  A
round's time is the run's mean round times REF_S / r, with r the mean of
the reference times taken alongside; a set-up pass is scaled by the
reference taken right after it.  The shared machine this was built on runs
all Python code up to 1.8 times slower for tens of seconds at a time; the
reference slows with it, so the ratio stays put where raw seconds do not
(see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads  # noqa: E402

SETUP_PASSES = 3
REF_S = 0.05
RECORDS = range(1, 16)
LAYER_METRICS = (["cli.import_s", *probe.SPANS, *probe.COUNTS,
                  "codes.build_code_peak_mb"]
                 + [f"verify.record_{i:02d}_s" for i in RECORDS]
                 + ["trace.overhead_s", "machine.ref_s", "machine.raw_wall_s"])


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts child processes one at a time and measures each."""

    def __init__(self):
        self.env = child_env()
        RESULTS.mkdir(exist_ok=True)
        self.out = RESULTS / f"stdout.{os.getpid()}"
        self.err = RESULTS / f"stderr.{os.getpid()}"
        self.refs = []

    def run(self, argv) -> dict:
        """Wall time, peak RSS, exit code and stdout of one process."""
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
                "code": proc.returncode,
                "stdout": self.out.read_text(encoding="utf-8"),
                "stderr": self.err.read_text(encoding="utf-8")}

    def ref(self) -> float:
        """Time the reference once, in its own process."""
        res = self.run([str(HERE / "probe.py"), "ref"])
        self.refs.append(json.loads(res["stdout"])["ref_s"])
        return self.refs[-1]

    def scale(self) -> float:
        return REF_S / statistics.mean(self.refs)

    def close(self):
        for path in (self.out, self.err):
            path.unlink(missing_ok=True)


def judge(job, expected, result) -> str | None:
    """Failure message for a finished job, or None if its output checks."""
    if result["code"] != 0:
        return f"exit {result['code']}: {result['stderr'].strip()[-300:]}"
    try:
        report = json.loads(result["stdout"])
    except ValueError as exc:
        return f"unreadable report: {exc}"
    try:
        return job.check(report, expected)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks what the check needs: {exc!r}"


class Tally:
    """Jobs attempted and failed; ``wrong`` counts failed checks on jobs
    that exited 0."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def add(self, label, message, wrong):
        self.attempted += 1
        if message is not None:
            self.failed += 1
            self.wrong += wrong
            self.messages.append(f"{label}: {message}")


def cli_round(runner, jobs, expected, tally) -> list:
    out = []
    for job, exp in zip(jobs, expected):
        res = runner.run(["-m", "homring.cli", *job.argv])
        msg = judge(job, exp, res)
        tally.add(job.label, msg, wrong=res["code"] == 0)
        out.append({"wall_s": res["wall_s"], "rss_mb": res["rss_mb"],
                    "ref_s": runner.ref(), "ok": msg is None})
    return out


def traced_round(runner, jobs, expected, tally, memory=False) -> list:
    out = []
    spans = RESULTS / f"spans.{os.getpid()}.json"
    for job, exp in zip(jobs, expected):
        res = runner.run([str(HERE / "probe.py"), "traced", str(spans),
                          "1" if memory else "0", *job.argv])
        msg = judge(job, exp, res)
        tally.add(job.label, msg, wrong=res["code"] == 0)
        data = json.loads(spans.read_text()) if spans.exists() else {}
        spans.unlink(missing_ok=True)
        out.append({"label": job.label, "wall_s": res["wall_s"], **data})
    return out


def record_round(runner, tally) -> dict:
    out = {}
    for rid in RECORDS:
        res = runner.run([str(HERE / "probe.py"), "record", str(rid)])
        rec = json.loads(res["stdout"]) if res["code"] == 0 else {}
        tally.add(f"verify record {rid}", None if rec.get("pass") else
                  f"exit {res['code']}, {rec or res['stderr'][-300:]}",
                  wrong=res["code"] == 0)
        out[f"verify.record_{rid:02d}_s"] = rec.get("seconds", 0.0)
    return out


def setup_passes(runner, jobs) -> list:
    passes = []
    for _ in range(SETUP_PASSES):
        total = 0.0
        for job in jobs:
            res = runner.run([str(HERE / "probe.py"), "setup", json.dumps(job.setup)])
            if res["code"] != 0:
                raise RuntimeError(f"set-up of {job.label} failed: {res['stderr']}")
            total += json.loads(res["stdout"])["setup_s"]
        passes.append({"setup_s": total, "ref_s": runner.ref()})
    return passes


def end_to_end(runner, jobs, expected, seconds, tally) -> tuple:
    setups = setup_passes(runner, jobs)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(cli_round(runner, jobs, expected, tally))
    samples = [j for r in rounds for j in r]
    metrics = {
        # mean round wall over the mean reference taken after each job
        "wall_s": (REF_S * len(jobs) * sum(j["wall_s"] for j in samples)
                   / sum(j["ref_s"] for j in samples), "s"),
        "peak_rss_mb": (statistics.median(max(j["rss_mb"] for j in r)
                                          for r in rounds), "MB"),
        "setup_s": (statistics.median(p["setup_s"] * REF_S / p["ref_s"]
                                      for p in setups), "s"),
    }
    return metrics, {"setup_s": setups, "rounds": rounds, "ref_s": runner.refs}


def per_layer(runner, jobs, expected, seconds, tally, workload) -> tuple:
    memory = traced_round(runner, jobs, expected, tally, memory=True)
    plain, traced, records = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(cli_round(runner, jobs, expected, tally))
        traced.append(traced_round(runner, jobs, expected, tally))
        if workload == "paper-census":
            records.append(record_round(runner, tally))
    scale = runner.scale()
    plain_s = statistics.median(sum(j["wall_s"] for j in r) for r in plain)
    metrics = {}
    for name in LAYER_METRICS:
        if name.startswith("verify."):
            values = [r[name] for r in records] or [0.0]
        elif name == "codes.build_code_peak_mb":
            values = [max(j.get("metrics", {}).get(name, 0) for j in memory)]
        elif name == "trace.overhead_s":
            values = [statistics.median(sum(j["wall_s"] for j in r) for r in traced)
                      - plain_s]
        elif name == "machine.ref_s":
            values = runner.refs
        elif name == "machine.raw_wall_s":
            values = [plain_s]
        else:
            values = [sum(j.get("metrics", {}).get(name, 0) for j in r)
                      for r in traced]
        value = statistics.median(values)
        if name in probe.COUNTS:
            metrics[name] = (value, "count")
        elif name.endswith("_mb"):
            metrics[name] = (value, "MB")
        elif name.startswith("machine."):
            metrics[name] = (value, "s")
        else:
            metrics[name] = (value * scale, "s")
    return metrics, {"memory": memory, "plain": plain, "traced": traced,
                     "records": records, "ref_s": runner.refs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "homring" / "cli.py").is_file():
        print(f"error: no homring sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    jobs = workloads.build(args.workload, args.seed, quick=args.quick)
    expected = [job.oracle() for job in jobs]
    runner, tally = Runner(), Tally()
    try:
        if args.trace:
            metrics, raw = per_layer(runner, jobs, expected, args.seconds, tally,
                                     args.workload)
        else:
            metrics, raw = end_to_end(runner, jobs, expected, args.seconds, tally)
    finally:
        runner.close()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{name}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "jobs": [job.label for job in jobs], "failures": tally.messages,
        "metrics": {k: v for k, (v, _) in metrics.items()}, **raw}))
    for line in tally.messages[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:>16}  {key:<32} {value:12.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
