"""Command-line front-end.

Subcommands: ``ring info``, ``trace list``, ``trace check``, ``weight table``,
``code analyze``, ``code graph``, ``verify paper``.  ``JOBS`` lists them
once, with their flags as data: both parsers, the dispatch in ``main`` and
the CSV columns of ``_render`` all read it.  A well-formed job is parsed
off the table (``_job_args``); argparse is imported only for help, usage
errors and any other argv.  All reports are deterministic: rationals are
rendered as ``num/den`` and key order is fixed, so identical configs
produce byte-identical output.  Wall-clock timing is opt-in via
``--timing`` because it would break that guarantee.  ``entry``, the
process's entry point, ends the process through ``os._exit`` once a job's
output is flushed; ``main`` returns the exit code, and only argparse's help
and usage errors exit from inside it.
"""

from __future__ import annotations

import io
import os
import sys
import time
from types import SimpleNamespace

from .codes import code_from_specs, code_spectrum, weight_enumerator
from .cyclotomic import rational_str
from .errors import HomringError, InvalidParameter, ParseError, ValidationFailed
from .graphs import (SRGParams, connected_components, is_modular, srg_check,
                     two_weight_graph)
from .rings import ring_from_spec
from .traces import enumerate_trace_maps, trace_from_spec
from .weights import hamming_table, hom_weight, parse_gamma


def JobConfig(ring=None, subring=None, trace=None, f=None, gamma="1",
              weight="homogeneous", format=None, budget=None, seed=None):
    """The settings of one job, one attribute per name in CONFIG_KEYS."""
    return SimpleNamespace(**locals())


CONFIG_KEYS = tuple(vars(JobConfig()))
# the keys whose values are integers, and those with a fixed set of values;
# a config file and the flags both take them from here
_INT_KEYS = ("budget", "seed")
_CHOICES = {"weight": ("homogeneous", "hamming"), "format": ("json", "csv")}


def parse_config(text: str) -> SimpleNamespace:
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
            if key in _INT_KEYS:
                try:
                    value = int(value)
                except ValueError:
                    raise ParseError(f"{key} must be an integer, got {value!r}",
                                     line=lineno, col=col) from None
                if key == "budget" and value <= 0:
                    raise ParseError("budget must be positive", line=lineno, col=col)
            setattr(cfg, key, value)
            col += len(token)
    for key, allowed in _CHOICES.items():
        value = getattr(cfg, key)
        if value is not None and value not in allowed:
            raise ParseError(f"{key} must be {' or '.join(allowed)}, got {value!r}")
    return cfg


def _settings(args: dict) -> SimpleNamespace:
    """A job's settings: JobConfig's defaults, then its config file's, then
    every flag given.  Flags that are not config keys (``--only``,
    ``--timing``) are copied as they are."""
    cfg = JobConfig()
    if args.get("config"):
        try:
            with open(args["config"], "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise InvalidParameter(f"cannot read config: {exc}") from None
    for key, val in args.items():
        if val is not None or not hasattr(cfg, key):
            setattr(cfg, key, val)
    # the flags' choices and parse_config refuse a bad weight or format, and
    # parse_config a bad budget; a --budget flag is checked here
    if cfg.budget is not None and cfg.budget <= 0:
        raise ParseError("budget must be positive")
    return cfg


def _ring_spec(cfg):
    if not cfg.ring:
        raise InvalidParameter("a ring spec is required (ring=... or --ring)")
    return cfg.ring


def _require_ring(cfg):
    return ring_from_spec(_ring_spec(cfg), cfg.budget)


def _subring(cfg, ring):
    return ring_from_spec(cfg.subring, cfg.budget) if cfg.subring else ring


def _weight_table(cfg, sub):
    gamma = parse_gamma(cfg.gamma, sub)
    if cfg.weight == "hamming":
        if gamma != (1, 1):
            raise InvalidParameter(
                "--weight hamming has gamma 1 (its weights are 0 and 1), "
                f"got --gamma {cfg.gamma}")
        return hamming_table(sub)
    return hom_weight(sub, gamma)


def run_ring_info(cfg) -> dict:
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
        "radical": list(ring.radical()),
        "socle": list(ring.socle()),
        "teichmuller": list(ring.teichmuller().elements) if local else None,
    }


def run_trace_list(cfg) -> dict:
    ring = _require_ring(cfg)
    sub = _subring(cfg, ring)
    maps = enumerate_trace_maps(ring, sub, budget=cfg.budget)
    return {
        "ring": ring.name,
        "subring": sub.name,
        "count": len(maps),
        "traces": [{"tag": t.tag, "values": list(t.values)} for t in maps],
    }


def run_trace_check(cfg) -> dict:
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


def run_weight_table(cfg) -> dict:
    ring = _require_ring(cfg)
    wt = _weight_table(cfg, ring)
    # each element's unit orbit, which generates its module xR, by least member
    orbit_of, orbits = ring.unit_orbits()
    rows = [{"element": x, "orbit": orbits[i][0],
             "weight": rational_str(wt.values[x], wt.den)}
            for x, i in enumerate(orbit_of)]
    return {
        "ring": ring.name,
        "gamma": rational_str(*wt.gamma),
        "kind": wt.kind,
        "rows": rows,
    }


def _code_job(cfg):
    """The code and weight table of a code job, and the report's names."""
    code = code_from_specs(_ring_spec(cfg), cfg.subring, cfg.trace, cfg.f,
                           seed=cfg.seed, budget=cfg.budget)
    wt = _weight_table(cfg, code.sub)
    report = {"ring": code.ring.name, "subring": code.sub.name,
              "trace": cfg.trace or "identity", "f": code.func.tag,
              "gamma": rational_str(*wt.gamma), "weight": cfg.weight}
    return code, wt, report


def run_analyze(cfg) -> dict:
    code, wt, report = _code_job(cfg)
    if code.func.seed is not None:
        report["seed"] = code.func.seed
    enum = weight_enumerator(code, wt)
    den, spectrum = code_spectrum(code, enum)
    report.update({
        "size": code.size,
        "spectrum": [rational_str(v, den) for v in spectrum],
        "enumerator": enum.to_records(),
    })
    return report


def run_graph(cfg) -> dict:
    code, wt, report = _code_job(cfg)
    graph = two_weight_graph(code, wt)
    srg = srg_check(graph)
    modular, r = is_modular(code.ring, enumerate(code.func.table))
    report.update({
        "vertices": graph.order,
        "w1": rational_str(*graph.w1),
        "regular_degree": graph.degree,
        "srg": ({"v": srg.v, "k": srg.k, "lambda": srg.lam, "mu": srg.mu,
                 "degenerate": srg.degenerate}
                if isinstance(srg, SRGParams) else None),
        "srg_failure": (None if isinstance(srg, SRGParams)
                        else {"reason": srg.reason, "witness": srg.witness}),
        "components": connected_components(graph),
        "modular": {"is_modular": modular,
                    "r": rational_str(*r) if r is not None else None},
    })
    return report


def run_verify_paper(cfg) -> dict:
    from . import verify  # only this job reads the records

    only = None
    if cfg.only is not None:
        try:
            only = [int(tok) for tok in cfg.only.split(",") if tok]
        except ValueError:
            only = []
        if not only:
            raise ParseError(f"bad --only list {cfg.only!r}")
    return verify.run(only=only)


# a leaf's flags, each (name, int or not, choices, help), in help order;
# every leaf also takes --timing.  A job's flags are a config file and every
# config key, typed and checked as in a file.
_JOB_FLAGS = (("config", False, None, "path to a key=value config file"),
              *((key, key in _INT_KEYS, _CHOICES.get(key), None)
                for key in CONFIG_KEYS))
_PAPER_FLAGS = (("only", False, None, "comma-separated record ids"),)


def _job(run, flags=_JOB_FLAGS, format="json", csv=None, verdict=None,
         listed=False):
    """One row of JOBS.  run: the report of the job's settings; flags: the
    leaf's flags besides --timing; csv: the report's list and the columns
    it prints as CSV; verdict: the report key that is false on a failed
    job, and the exit code it then takes; listed: name the leaf in its
    group's help (``help=None`` does that)."""
    return SimpleNamespace(**locals())


# one row per leaf, in help order
JOBS = {
    ("ring", "info"): _job(run_ring_info),
    ("trace", "list"): _job(run_trace_list),
    ("trace", "check"): _job(run_trace_check,
                             verdict=("valid", ValidationFailed.exit_code)),
    ("weight", "table"): _job(run_weight_table, format="csv",
                              csv=("rows", ("element", "orbit", "weight")),
                              listed=True),
    ("code", "analyze"): _job(run_analyze, csv=("enumerator", ("weight", "count"))),
    ("code", "graph"): _job(run_graph),
    ("verify", "paper"): _job(run_verify_paper, _PAPER_FLAGS, verdict=("passed", 1)),
}


# json's ensure_ascii escapes of the characters that have a short one
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}


def _escape(c: str) -> str:
    """One character of a JSON string as json's ensure_ascii writes it."""
    if c in _ESCAPES:
        return _ESCAPES[c]
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n > 0xFFFF:  # a surrogate pair
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return f"\\u{n:04x}"


def _quote(s: str) -> str:
    """s as a JSON string, escaped as json's ensure_ascii escapes it."""
    if not (s.isascii() and s.isprintable()) or '"' in s or "\\" in s:
        s = "".join(map(_escape, s))
    return '"' + s + '"'


def _to_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``'s bytes, for the values a report holds:
    dicts with str keys, lists and tuples, str, int, True, False and None;
    any other value (a Fraction, a float, a set, a non-str key) is a
    TypeError.  ``pad`` is the newline and indent before the value's
    closing bracket.  A list of ints only (not bools) is printed in one
    call."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            body = repr(list(value))[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join([_to_json(v, inner) for v in value])
        return "[" + inner + body + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            raise TypeError("report keys must be str")
        return ("{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _to_json(v, inner) for k, v in value.items()])
            + pad + "}")
    raise TypeError(f"{type(value).__name__} is not a report value")


def _render(report: dict, job: tuple, fmt: str) -> str:
    """The report of the (command, action) job as ``json.dumps(report,
    indent=2)`` prints it (``_to_json``, so no job loads ``json``), or as
    CSV of the list and columns that its row names (``main`` refuses CSV
    for a row that names none)."""
    if fmt == "json":
        return _to_json(report) + "\n"
    import csv  # only CSV output needs it

    rows, columns = JOBS[job].csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in report[rows])
    return buf.getvalue()


def _build_parser():
    """The argparse parser of JOBS, for the argv that ``_job_args`` leaves."""
    import argparse  # only help, usage errors and irregular argv need it

    parser = argparse.ArgumentParser(prog="homring")
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for (command, action), job in JOBS.items():
        if command not in groups:
            groups[command] = commands.add_parser(command).add_subparsers(
                dest="action", required=True)
        leaf = groups[command].add_parser(
            action, **({"help": None} if job.listed else {}))
        for name, is_int, choices, text in job.flags:
            leaf.add_argument(f"--{name}", type=int if is_int else None,
                              choices=choices, help=text)
        leaf.add_argument("--timing", action="store_true")
    return parser


def _job_args(argv) -> dict | None:
    """What ``_build_parser().parse_args(argv)`` sets, read off JOBS, for
    argv of the form ``<command> <action>`` then ``--timing`` and
    ``--name value`` pairs: each name one of the leaf's flags in full, no
    value starting with '-', an int flag's value one that ``int`` takes and
    a value with choices one of them.  A repeated flag keeps its last value.
    None for any other argv: help, abbreviations, ``--name=value``, missing
    or bad values and strays are argparse's."""
    job = JOBS.get(tuple(argv[:2]))
    if job is None:
        return None
    args = {"command": argv[0], "action": argv[1]}
    flags = {}
    for flag in job.flags:
        args[flag[0]] = None
        flags[f"--{flag[0]}"] = flag
    args["timing"] = False
    i = 2
    while i < len(argv):
        if argv[i] == "--timing":
            args["timing"] = True
            i += 1
            continue
        flag = flags.get(argv[i])
        if flag is None or i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        name, is_int, choices, _ = flag
        value = argv[i + 1]
        if is_int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        args[name] = value
        i += 2
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _job_args(argv)
    if args is None:
        args = vars(_build_parser().parse_args(argv))
    started = time.perf_counter()
    key = (args["command"], args["action"])
    job = JOBS[key]
    try:
        cfg = _settings(args)
        fmt = cfg.format or job.format
        if fmt == "csv" and job.csv is None:
            raise InvalidParameter(f"csv output is not supported for {'-'.join(key)}")
        report = job.run(cfg)
        if cfg.timing:
            report["timing_seconds"] = f"{time.perf_counter() - started:.3f}"
        sys.stdout.write(_render(report, key, fmt))
        if job.verdict and not report[job.verdict[0]]:
            return job.verdict[1]
        return 0
    except HomringError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


def entry():
    """The ``homring`` command: ``main`` on sys.argv, then the exit.  Once
    its output is flushed the process ends through ``os._exit``, skipping
    interpreter teardown (atexit handlers, module teardown, ResourceWarnings
    at shutdown).  If a flush fails, ``sys.exit`` lets the interpreter
    report it as it always has."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
