"""The benchmark's hold on the program: every function that a traced run of
``bench/probe.py`` wraps must resolve once ``homring.cli`` is imported, or
its span or count silently reads 0."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import homring.cli  # noqa: F401  (what the probe imports before it wraps)

PROBE = Path(__file__).resolve().parent.parent / "bench" / "probe.py"


def _load_probe(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing under bench/
    spec = importlib.util.spec_from_file_location("bench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_every_span_and_count_resolves_after_the_cli_import(monkeypatch):
    probe = _load_probe(monkeypatch)
    for table in (probe.SPANS, probe.COUNTS):
        for metric, names in table.items():
            for module, qualname in names:
                mod = sys.modules.get(f"homring.{module}")
                assert mod is not None, (metric, module)
                owner, _, attr = qualname.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                assert holder is not None, (metric, qualname)
                if owner:
                    assert isinstance(holder, type), (metric, qualname)
                if table is probe.SPANS:
                    # the probe wraps what the owner itself defines
                    assert callable(vars(holder).get(attr)), (metric, qualname)
                else:
                    # a count may read a method the class inherits
                    assert callable(getattr(holder, attr, None)), (metric, qualname)


def test_every_span_and_count_reads_above_zero_on_verify_paper(monkeypatch, tmp_path):
    """A pinned name that stays defined but is no longer called would read 0
    in every run; on ``verify paper`` each metric reads above 0 today."""
    probe = _load_probe(monkeypatch)
    src = Path(homring.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("HOMRING_BUDGET", None)
    spans = tmp_path / "spans.json"
    done = subprocess.run([sys.executable, "-B", str(PROBE), "traced", str(spans),
                           "0", "verify", "paper"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(spans.read_text(encoding="utf-8"))["metrics"]
    for metric in (*probe.SPANS, *probe.COUNTS):
        assert metrics[metric] > 0, metric
