#!/usr/bin/env python3
"""Census of trace maps R -> S for small ring pairs.

Lists every trace map of each pair, the unit orbit x -> T0(u*x) of its
named trace T0, and reports the count; with ``--values`` the full value
tables are printed.  The test suite compares these lists with a brute
search over S-linear candidates.

Examples:
    python3 scripts/trace_census.py
    python3 scripts/trace_census.py --pair Z4X:Zm:4 --values
    python3 scripts/trace_census.py --budget 1100000 --pair GR:2,1,8:Zm:2

``--budget`` is the work budget of ``homring --budget``, in table lookups
per stage: GR:2,1,8 -> Zm:2 needs 524288 for ring set-up and 1044480 (16
for each of 255 units times 256 elements) for the enumeration, so 1100000
admits it and 1000000 refuses its enumeration.
"""

from __future__ import annotations

import argparse
import sys

from homring.errors import HomringError
from homring.rings import ring_from_spec
from homring.traces import enumerate_trace_maps

DEFAULT_PAIRS = [
    ("Zm:4", "Zm:4"),
    ("Zm:6", "Zm:6"),
    ("Zm:9", "Zm:9"),
    ("GR:2,1,2", "Zm:2"),
    ("GR:2,1,3", "Zm:2"),
    ("GR:2,2,2", "Zm:4"),
    ("GR:2,2,2", "GR:2,2,2"),
    ("GR:3,2,2", "Zm:9"),
    ("FXY:2", "Zm:2"),
    ("FXY:3", "Zm:3"),
    ("Z4X", "Zm:4"),
]


def census(ring_spec: str, sub_spec: str, budget=None) -> list:
    ring = ring_from_spec(ring_spec, budget)
    sub = ring_from_spec(sub_spec, budget)
    return enumerate_trace_maps(ring, sub, budget=budget)


def parse_pair(text: str):
    # ring specs themselves contain colons, so split on the *last* marker
    # that starts a known family
    for marker in ("Zm:", "GR:", "FXY:", "Z4X"):
        idx = text.rfind(marker)
        if idx > 0:
            return text[: idx - 1], text[idx:]
    raise SystemExit(f"cannot split pair spec {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pair", action="append", default=[],
                        metavar="RING:SUB", help="e.g. Z4X:Zm:4 (repeatable)")
    parser.add_argument("--budget", type=int, default=None,
                        help="work budget in table lookups per stage "
                             "(default: HOMRING_BUDGET, else 2^25)")
    parser.add_argument("--values", action="store_true",
                        help="print each trace's value table")
    args = parser.parse_args(argv)

    pairs = [parse_pair(p) for p in args.pair] if args.pair else DEFAULT_PAIRS
    width = max(len(f"{r} -> {s}") for r, s in pairs)
    failures = 0
    for ring_spec, sub_spec in pairs:
        label = f"{ring_spec} -> {sub_spec}"
        try:
            maps = census(ring_spec, sub_spec, budget=args.budget)
        except HomringError as exc:
            print(f"{label:<{width}}  error: {exc}")
            failures += 1
            continue
        print(f"{label:<{width}}  {len(maps):3d} trace maps")
        if args.values:
            for t in maps:
                print(f"    {t.tag:<10} {list(t.values)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
