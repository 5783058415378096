#!/usr/bin/env python3
"""Survey transform spectra and weight enumerators across a grid of codes.

For every job in the sweep the code is built, its spectrum and enumerator
are computed from the code itself and printed, and whenever a closed-form
family covers the job the computed result is compared against the
prediction.  Summary lines are stable, so two runs of the same sweep diff
clean.

Examples:
    python3 scripts/survey_spectra.py                 # the default grid
    python3 scripts/survey_spectra.py --json          # machine-readable
    python3 scripts/survey_spectra.py --ring Zm:13 --f pow:4 --f pow:5
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from homring.codes import (closed_form_enumerator, code_from_specs, code_spectrum,
                           weight_enumerator)
from homring.cyclotomic import rational_str
from homring.errors import HomringError
from homring.weights import hamming_table, hom_weight


@dataclass
class Job:
    ring: str
    f: str
    sub: str | None = None
    trace: str = "identity"
    weight: str = "homogeneous"
    closed: tuple | None = None   # (family, params) when a prediction applies

    @property
    def label(self) -> str:
        target = f" -> {self.sub}" if self.sub else ""
        return f"{self.ring}{target} [{self.trace}] f={self.f} ({self.weight})"


@dataclass
class SweepConfig:
    jobs: list = field(default_factory=list)
    as_json: bool = False


DEFAULT_GRID = [
    Job("GR:2,2,2", "frank:id", sub="Zm:4", trace="galois",
        closed=("frank-subring", (2, 2))),
    Job("GR:3,2,2", "frank:id", sub="Zm:9", trace="galois",
        closed=("frank-subring", (3, 2))),
    Job("GR:2,2,2", "frank:id", closed=("frank-self", (2, 2))),
    Job("GR:3,2,2", "frank:id", closed=("frank-self", (3, 2))),
    Job("Zm:5", "pow:3", weight="hamming", closed=("zp-power", (5, 3))),
    Job("Zm:7", "pow:4", weight="hamming", closed=("zp-power", (7, 4))),
    Job("Zm:10", "pow:3", closed=("z2p-power", (5, 3))),
    Job("Zm:14", "pow:4", closed=("z2p-power", (7, 4))),
    Job("FXY:2", "sigmaquad:swapxy", sub="Zm:2", trace="fxy-sum"),
    Job("FXY:2", "sigmaquad:swapxy"),
    Job("FXY:3", "sigmaquad:swapxy", closed=("sigma-quadratic", "ring")),
    Job("GR:2,3,2", "sigmaquad:frobenius", closed=("sigma-quadratic", "ring")),
    Job("Z4X", "pow:2", sub="Zm:4", trace="z4x:0,1"),
    Job("Z4X", "pow:3", sub="Zm:4", trace="z4x:0,3"),
]


def run_job(job: Job) -> dict:
    code = code_from_specs(job.ring, job.sub, job.trace, job.f)
    table = (hamming_table(code.sub) if job.weight == "hamming"
             else hom_weight(code.sub, 1))
    enum = weight_enumerator(code, table)
    lam = code_spectrum(code, enum)
    out = {
        "job": job.label,
        "size": code.size,
        "spectrum": [rational_str(v) for v in lam],
        "enumerator": enum.poly_str(),
    }
    if job.closed is not None:
        family, params = job.closed
        if params == "ring":
            params = code.ring
        predicted = closed_form_enumerator(family, params)
        out["closed_form"] = predicted.poly_str()
        out["matches_closed_form"] = predicted == enum
    return out


def render_text(results: list) -> str:
    lines = []
    for res in results:
        lines.append(res["job"])
        lines.append(f"  |C| = {res['size']}")
        lines.append("  spectrum  {" + ", ".join(res["spectrum"]) + "}")
        lines.append(f"  enumerator {res['enumerator']}")
        if "closed_form" in res:
            tag = "ok" if res["matches_closed_form"] else "MISMATCH"
            lines.append(f"  closed     {res['closed_form']}  [{tag}]")
        lines.append("")
    agree = sum(1 for r in results if r.get("matches_closed_form"))
    covered = sum(1 for r in results if "closed_form" in r)
    lines.append(f"{len(results)} jobs; closed forms matched {agree}/{covered}")
    return "\n".join(lines)


def parse_args(argv=None) -> SweepConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ring", help="survey a single ring instead of the grid")
    parser.add_argument("--f", action="append", default=[],
                        help="function spec (repeatable; needs --ring)")
    parser.add_argument("--subring")
    parser.add_argument("--trace", default="identity")
    parser.add_argument("--weight", default="homogeneous",
                        choices=("homogeneous", "hamming"))
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)
    if args.ring:
        if not args.f:
            parser.error("--ring needs at least one --f")
        jobs = [Job(args.ring, f_spec, sub=args.subring, trace=args.trace,
                    weight=args.weight) for f_spec in args.f]
    else:
        jobs = list(DEFAULT_GRID)
    return SweepConfig(jobs=jobs, as_json=args.as_json)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    results = []
    for job in cfg.jobs:
        try:
            results.append(run_job(job))
        except HomringError as exc:
            results.append({"job": job.label, "error": str(exc)})
    if cfg.as_json:
        print(json.dumps(results, indent=2))
    else:
        print(render_text(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
