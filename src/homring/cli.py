"""Command-line front-end.

Subcommands: ``ring info``, ``trace list``, ``trace check``, ``weight table``,
``code analyze``, ``code graph``, ``verify paper``.  All reports are
deterministic: rationals are rendered as ``num/den`` and key order is fixed,
so identical configs produce byte-identical output.  Wall-clock timing is
opt-in via ``--timing`` because it would break that guarantee.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from . import verify as verify_mod
from .codes import (build_code, check_code_budget, code_spectrum,
                    function_from_spec, weight_enumerator)
from .cyclotomic import rational_str
from .errors import HomringError, InvalidParameter, ParseError, ValidationFailed
from .graphs import (SRGParams, connected_components, function_columns,
                     is_modular, srg_check, two_weight_graph)
from .rings import ring_from_spec
from .traces import enumerate_trace_maps, trace_from_spec
from .weights import cyclic_submodules, hamming_table, hom_weight, parse_gamma

CONFIG_KEYS = ("ring", "subring", "trace", "f", "gamma", "weight", "format",
               "budget", "seed")


class JobConfig:
    """The settings of one job, one attribute per name in CONFIG_KEYS."""

    def __init__(self, ring: str | None = None, subring: str | None = None,
                 trace: str | None = None, f: str | None = None,
                 gamma: str = "1", weight: str = "homogeneous",
                 format: str | None = None, budget: int | None = None,
                 seed: int | None = None):
        self.ring = ring
        self.subring = subring
        self.trace = trace
        self.f = f
        self.gamma = gamma
        self.weight = weight
        self.format = format
        self.budget = budget
        self.seed = seed

    def __eq__(self, other):
        if not isinstance(other, JobConfig):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in CONFIG_KEYS)

    def __repr__(self):
        return "JobConfig(" + ", ".join(f"{k}={getattr(self, k)!r}"
                                        for k in CONFIG_KEYS) + ")"


def parse_config(text: str) -> JobConfig:
    """Parse whitespace-separated key=value tokens (later keys win)."""
    cfg = JobConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        bare = line.split("#", 1)[0]
        col = 1
        for token in bare.split():
            col = line.index(token, col - 1) + 1
            if "=" not in token:
                raise ParseError(f"expected key=value, got {token!r}",
                                 line=lineno, col=col)
            key, _, value = token.partition("=")
            if key not in CONFIG_KEYS:
                raise ParseError(f"unknown config key {key!r}", line=lineno, col=col)
            if not value:
                raise ParseError(f"empty value for {key!r}", line=lineno, col=col)
            if key in ("budget", "seed"):
                try:
                    value = int(value)
                except ValueError:
                    raise ParseError(f"{key} must be an integer, got {value!r}",
                                     line=lineno, col=col) from None
                if key == "budget" and value <= 0:
                    raise ParseError("budget must be positive", line=lineno, col=col)
            setattr(cfg, key, value)
            col += len(token)
    if cfg.weight not in ("homogeneous", "hamming"):
        raise ParseError(f"weight must be homogeneous or hamming, got {cfg.weight!r}")
    return cfg


def _merge_flags(cfg: JobConfig, args) -> JobConfig:
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    # argparse choices and parse_config refuse a bad weight, and
    # parse_config a bad budget; a --budget flag is checked here
    if cfg.budget is not None and cfg.budget <= 0:
        raise ParseError("budget must be positive")
    return cfg


def _require_ring(cfg: JobConfig):
    if not cfg.ring:
        raise InvalidParameter("a ring spec is required (ring=... or --ring)")
    return ring_from_spec(cfg.ring, cfg.budget)


def _subring(cfg: JobConfig, ring):
    return ring_from_spec(cfg.subring, cfg.budget) if cfg.subring else ring


def _resolve_pair(cfg: JobConfig):
    """The rings, the trace and its spec of a code job.  The code's budget
    is checked once the rings are parsed, before the trace or any table is
    built."""
    ring = _require_ring(cfg)
    sub = _subring(cfg, ring)
    check_code_budget(ring, cfg.budget)
    trace_spec = cfg.trace
    if trace_spec is None:
        if sub is ring:
            trace_spec = "identity"
        else:
            raise InvalidParameter(
                "an explicit trace spec is required when subring differs from ring")
    trace = trace_from_spec(ring, sub, trace_spec)
    return ring, sub, trace, trace_spec


def _weight_table(cfg: JobConfig, sub):
    gamma = parse_gamma(cfg.gamma, sub)
    if cfg.weight == "hamming":
        return hamming_table(sub, gamma)
    return hom_weight(sub, gamma)


def _names(ring, sub, trace_spec, cfg: JobConfig) -> dict:
    return {
        "ring": ring.name,
        "subring": sub.name,
        "trace": trace_spec,
        "f": cfg.f,
        "gamma": rational_str(parse_gamma(cfg.gamma, sub)),
        "weight": cfg.weight,
    }


def run_ring_info(cfg: JobConfig) -> dict:
    ring = _require_ring(cfg)
    local = ring.is_local()
    return {
        "ring": ring.name,
        "family": ring.family,
        "order": ring.order,
        "characteristic": ring.characteristic(),
        "is_local": local,
        "residue_size": ring.residue_size() if local else None,
        "unit_count": len(ring.units()),
        "radical": list(ring.radical().members),
        "socle": list(ring.socle().members),
        "teichmuller": list(ring.teichmuller().elements) if local else None,
    }


def run_trace_list(cfg: JobConfig) -> dict:
    ring = _require_ring(cfg)
    sub = _subring(cfg, ring)
    maps = enumerate_trace_maps(ring, sub, budget=cfg.budget)
    return {
        "ring": ring.name,
        "subring": sub.name,
        "count": len(maps),
        "traces": [{"tag": t.tag, "values": list(t.values)} for t in maps],
    }


def run_trace_check(cfg: JobConfig) -> dict:
    ring = _require_ring(cfg)
    sub = _subring(cfg, ring)
    if not cfg.trace:
        raise InvalidParameter("trace check needs a trace spec")
    spec = cfg.trace.strip()
    try:
        report = trace_from_spec(ring, sub, spec).report
    except ValidationFailed as exc:
        report = exc.report
    return {"ring": ring.name, "subring": sub.name, "trace": spec, **report.to_dict()}


def run_weight_table(cfg: JobConfig) -> dict:
    ring = _require_ring(cfg)
    wt = _weight_table(cfg, ring)
    # each element's orbit is named by the least generator of its module xR
    classes, cls_of = cyclic_submodules(ring)
    rows = [{"element": x, "orbit": classes[n][0],
             "weight": rational_str(wt.values[x])}
            for x, n in enumerate(cls_of)]
    return {
        "ring": ring.name,
        "gamma": rational_str(wt.gamma),
        "kind": wt.kind,
        "rows": rows,
    }


def run_analyze(cfg: JobConfig) -> dict:
    ring, sub, trace, trace_spec = _resolve_pair(cfg)
    if not cfg.f:
        raise InvalidParameter("a function spec is required (f=... or --f)")
    f = function_from_spec(ring, cfg.f, seed=cfg.seed)
    code = build_code(ring, sub, trace, f, budget=cfg.budget)
    wt = _weight_table(cfg, sub)
    enum = weight_enumerator(code, wt)
    spectrum = code_spectrum(code, enum)
    report = _names(ring, sub, trace_spec, cfg)
    report["f"] = f.tag
    if f.seed is not None:
        report["seed"] = f.seed
    report.update({
        "size": code.size,
        "spectrum": [rational_str(v) for v in spectrum],
        "enumerator": enum.to_records(),
    })
    return report


def run_graph(cfg: JobConfig) -> dict:
    ring, sub, trace, trace_spec = _resolve_pair(cfg)
    if not cfg.f:
        raise InvalidParameter("a function spec is required (f=... or --f)")
    f = function_from_spec(ring, cfg.f, seed=cfg.seed)
    code = build_code(ring, sub, trace, f, budget=cfg.budget)
    wt = _weight_table(cfg, sub)
    graph = two_weight_graph(code, wt)
    srg = srg_check(graph)
    modular, r = is_modular(ring, function_columns(ring, f))
    report = _names(ring, sub, trace_spec, cfg)
    report["f"] = f.tag
    report.update({
        "vertices": graph.order,
        "w1": rational_str(graph.w1),
        "regular_degree": graph.degree,
        "srg": ({"v": srg.v, "k": srg.k, "lambda": srg.lam, "mu": srg.mu,
                 "degenerate": srg.degenerate}
                if isinstance(srg, SRGParams) else None),
        "srg_failure": (None if isinstance(srg, SRGParams)
                        else {"reason": srg.reason, "witness": srg.witness}),
        "components": connected_components(graph),
        "modular": {"is_modular": modular,
                    "r": rational_str(r) if r is not None else None},
    })
    return report


def _to_csv(rows, header) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _render(report: dict, command: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        if command == "weight-table":
            return _to_csv(
                [(r["element"], r["orbit"], r["weight"]) for r in report["rows"]],
                ("element", "orbit", "weight"))
        if command == "analyze":
            return _to_csv(
                [(r["weight"], r["count"]) for r in report["enumerator"]],
                ("weight", "count"))
        raise InvalidParameter(f"csv output is not supported for {command}")
    raise ParseError(f"unknown format {fmt!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homring")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags every job leaf takes, added once and shared as a parent
    job = argparse.ArgumentParser(add_help=False)
    job.add_argument("--config", help="path to a key=value config file")
    job.add_argument("--ring")
    job.add_argument("--subring")
    job.add_argument("--trace")
    job.add_argument("--f", dest="f")
    job.add_argument("--gamma")
    job.add_argument("--weight", choices=("homogeneous", "hamming"))
    job.add_argument("--format", choices=("json", "csv"))
    job.add_argument("--budget", type=int)
    job.add_argument("--seed", type=int)
    job.add_argument("--timing", action="store_true")
    job.set_defaults(default_format="json")
    jobs = [job]

    ring_p = sub.add_parser("ring").add_subparsers(dest="action", required=True)
    ring_p.add_parser("info", parents=jobs)

    trace_p = sub.add_parser("trace").add_subparsers(dest="action", required=True)
    trace_p.add_parser("list", parents=jobs)
    trace_p.add_parser("check", parents=jobs)

    weight_p = sub.add_parser("weight").add_subparsers(dest="action", required=True)
    weight_p.add_parser("table", help=None, parents=jobs).set_defaults(
        default_format="csv")

    code_p = sub.add_parser("code").add_subparsers(dest="action", required=True)
    code_p.add_parser("analyze", parents=jobs)
    code_p.add_parser("graph", parents=jobs)

    verify_p = sub.add_parser("verify").add_subparsers(dest="action", required=True)
    vp = verify_p.add_parser("paper")
    vp.add_argument("--only", help="comma-separated record ids")
    vp.add_argument("--timing", action="store_true")
    vp.set_defaults(default_format="json")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        command = f"{args.command}-{args.action}"
        if command == "verify-paper":
            only = None
            if args.only:
                try:
                    only = [int(tok) for tok in args.only.split(",") if tok]
                except ValueError:
                    raise ParseError(f"bad --only list {args.only!r}") from None
            report = verify_mod.run(only=only)
            exit_code = 0 if report["passed"] else 1
        else:
            cfg = JobConfig()
            if args.config:
                try:
                    with open(args.config, "r", encoding="utf-8") as fh:
                        cfg = parse_config(fh.read())
                except OSError as exc:
                    raise InvalidParameter(f"cannot read config: {exc}") from None
            cfg = _merge_flags(cfg, args)
            exit_code = 0
            if command == "ring-info":
                report = run_ring_info(cfg)
            elif command == "trace-list":
                report = run_trace_list(cfg)
            elif command == "trace-check":
                report = run_trace_check(cfg)
                if not report["valid"]:
                    exit_code = ValidationFailed.exit_code
            elif command == "weight-table":
                report = run_weight_table(cfg)
            elif command == "code-analyze":
                report = run_analyze(cfg)
                command = "analyze"
            else:  # argparse leaves only code graph
                report = run_graph(cfg)
        if args.timing:
            report["timing_seconds"] = f"{time.perf_counter() - started:.3f}"
        fmt = getattr(args, "format", None) or args.default_format
        sys.stdout.write(_render(report, command, fmt))
        return exit_code
    except HomringError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
