"""The benchmark's hold on the program: every function that a traced run of
``bench/probe.py`` wraps must resolve once ``homring.cli`` is imported, or
its span or count silently reads 0."""

import importlib.util
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
