"""Acceptance gate: the fifteen numbered verification records.

Each test prints one PASS/FAIL line and asserts the record's computed result
equals its recorded expected value with exact (rational) arithmetic.  Records
9-11 carry corrected values; each names the transcribed table it replaces
and why that table is wrong.
"""

from pathlib import Path

import pytest

from homring.cli import main

RECORD_IDS = list(range(1, 16))
REPORT = Path(__file__).resolve().parent / "verify_paper_report.json"


def _line(rec) -> str:
    verdict = "PASS" if rec["pass"] else "FAIL"
    return f"[{rec['id']:02d}] {verdict} {rec['title']}"


@pytest.mark.parametrize("rid", RECORD_IDS)
def test_criterion(rid, verify_report):
    rec = next(r for r in verify_report["records"] if r["id"] == rid)
    print(_line(rec))
    if rec.get("informational"):
        assert rec["computed"]
        return
    assert rec["pass"], (
        f"record {rid} ({rec['title']}):\n"
        f"  expected: {rec['expected']}\n"
        f"  computed: {rec['computed']}"
    )


def test_every_record_is_reported(verify_report):
    assert [r["id"] for r in verify_report["records"]] == RECORD_IDS
    assert verify_report["total"] == 15


def test_the_verify_paper_report_is_pinned(capsys):
    # every record's expected and computed text, byte for byte
    assert main(["verify", "paper"]) == 0
    assert capsys.readouterr().out.encode() == REPORT.read_bytes()
