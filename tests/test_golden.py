"""Every record of the golden corpus (``tests/golden/``) replays byte for
byte: the same exit code, stderr and stdout.

The jobs run in one process through ``cli.main``, in file order, with
``tests/golden/`` as the working directory (where the config files are), so
they share the rings that ``ring_from_spec`` memoizes and the tables those rings
cache.  That changes no bytes (each job run in a fresh interpreter prints
the same), but a fault that only shows on a cold ring may need a fresh
process to surface.  ``tests/golden_corpus.py`` lists the jobs and rewrites
the corpus when it is run by hand.
"""

import json

from golden_corpus import GOLDEN, run_job


def test_every_golden_record_replays_byte_identical(monkeypatch):
    monkeypatch.delenv("HOMRING_BUDGET", raising=False)
    paths = sorted(GOLDEN.glob("*.json"))
    assert len(paths) == 99
    changed = []
    for path in paths:
        want = json.loads(path.read_text(encoding="utf-8"))
        if run_job(want["argv"]) != want:
            changed.append(path.name)
    assert not changed, changed
