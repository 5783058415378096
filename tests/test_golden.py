"""Every record of the golden corpus (``tests/golden/``) replays byte for
byte: the same exit code, stderr and stdout.

The jobs run in one process through ``cli.main``, in file order, with
``tests/golden/`` as the working directory (where the config files are), so
they share the rings that ``ring_from_spec`` memoizes and the tables those rings
cache.  That changes no bytes (each job run in a fresh interpreter prints
the same), but a fault that only shows on a cold ring may need a fresh
process to surface.  ``tests/golden_corpus.py`` lists the jobs and rewrites
the corpus when it is run by hand.

A subset of the records also replays as ``python -m homring.cli``
processes, so the process exit (the flush and ``os._exit`` of
``cli.entry``) is checked too: one record per exit code in the corpus, the
largest stdout, the first CSV report and ``verify paper``.  They are picked
from the corpus, so a new record can join them.
"""

import json

import pytest

from golden_corpus import GOLDEN, run_job, run_process


def _records() -> list:
    return [(path, json.loads(path.read_text(encoding="utf-8")))
            for path in sorted(GOLDEN.glob("*.json"))]


def test_every_golden_record_replays_byte_identical(monkeypatch):
    monkeypatch.delenv("HOMRING_BUDGET", raising=False)
    records = _records()
    assert len(records) == 106
    changed = [path.name for path, want in records if run_job(want["argv"]) != want]
    assert not changed, changed


def _stdout_length(record) -> int:
    return record.get("stdout_length", len(record.get("stdout", "").encode("utf-8")))


def _process_subset() -> list:
    """The records replayed as processes, by file name, in file order."""
    records = _records()
    picked = {}
    for path, record in records:
        picked.setdefault(record["exit"], path.name)
    chosen = set(picked.values())
    chosen.add(max(records, key=lambda pr: _stdout_length(pr[1]))[0].name)
    chosen.add(next(path.name for path, record in records
                    if record["exit"] == 0 and "csv" in record["argv"]))
    chosen.add(next(path.name for path, record in records
                    if record["argv"] == ["verify", "paper"]))
    return sorted(chosen)


@pytest.mark.parametrize("name", _process_subset())
def test_golden_records_replay_as_processes(name):
    want = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    assert run_process(want["argv"]) == want
