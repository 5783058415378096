"""The benchmark's workloads: lists of homring CLI jobs, each with a check
made apart from the program.

A job is one ``homring`` command line.  ``oracle()`` computes what the job
must report (from ``oracles``, never from homring) and ``check(report,
expected)`` returns a failure message or None.  The seed picks, within each
family, a member of the same cost: the exponent of a power map, the Frank
permutation, and the order of the jobs in a round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

import oracles

WORKLOADS = ("analyze-zp", "analyze-highrank", "graph-zp", "paper-census")


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: Callable
    oracle: Callable = lambda: None
    # what the job builds before its main computation (see probe.setup)
    setup: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def like_three(p: int) -> list:
    """Exponents d in [3, p-2] with gcd(d, p-1) = gcd(3, p-1) and
    gcd(d-1, p-1) = 2.  On Z_p and Z_2p these give codes of the same size
    as pow:3, with codewords of the same shape (x^d hits the same number of
    values, and x^(d-1) = c has 0 or 2 roots), so every choice costs the
    same and the Hamming graphs share pow:3's parameters."""
    return [d for d in range(3, p - 1)
            if gcd(d, p - 1) == gcd(3, p - 1) and gcd(d - 1, p - 1) == 2]


def _prime_part(m: int) -> int:
    return m // 2 if m % 2 == 0 else m


def _enum_of(report) -> dict:
    return {Fraction(r["weight"]): r["count"] for r in report["enumerator"]}


def _first_difference(name, got, want):
    return None if got == want else f"{name}: got {got}, expected {want}"


# ---------------------------------------------------------------------------
# checks


def check_zm_analyze(m: int):
    def check(report, expected):
        enum = _enum_of(report)
        spectrum = {Fraction(s) for s in report["spectrum"]}
        return (_first_difference("size", report["size"], sum(expected.values()))
                or _first_difference("enumerator", enum, expected)
                or _first_difference("spectrum", spectrum, {m - w for w in expected}))
    return check


def check_moments(order: int):
    """Properties every C_{f,S} at gamma = 1 has, plus an exact enumerator
    when one is known apart from the program."""
    def check(report, expected):
        size, enum = report["size"], _enum_of(report)
        spectrum = {Fraction(s) for s in report["spectrum"]}
        first = sum(w * c for w, c in enum.items())
        return (_first_difference("A_0", enum.get(Fraction(0)), 1)
                or _first_difference("total", sum(enum.values()), size)
                or _first_difference("|R|^2 mod |C|", order * order % size, 0)
                or _first_difference("first moment", first, size * (order - 1))
                or _first_difference("spectrum", spectrum, {order - w for w in enum})
                or (expected is not None
                    and _first_difference("enumerator", enum, expected))
                or None)
    return check


def check_zm_graph(report, expected):
    if not expected["two_weight"]:
        return f"oracle finds weights {expected['weights']}, not two"
    n, k = expected["vertices"], expected["degree"]
    lam, mu = expected["lambda"], expected["mu"]
    srg = None
    if lam is not None and mu is not None:
        srg = {"v": n, "k": k, "lambda": lam, "mu": mu, "degenerate": mu == 0}
    comps = [expected["component_size"]] * expected["components"]
    return (_first_difference("vertices", report["vertices"], n)
            or _first_difference("w1", Fraction(report["w1"]), expected["w1"])
            or _first_difference("degree", report["regular_degree"], k)
            or _first_difference("srg", report["srg"], srg)
            or _first_difference("components", sorted(report["components"]), comps))


def check_trace_list(ring: str, sub: str):
    def check(report, expected):
        k, n = oracles.ring_order(sub), oracles.ring_order(ring)
        tables = [tuple(t["values"]) for t in report["traces"]]
        units = [u for u in range(1, k) if gcd(u, k) == 1]
        as_set = set(tables)
        bad = next((t for t in tables if len(t) != n or t[0] != 0
                    or set(t) != set(range(k))), None)
        closed = all(tuple(u * v % k for v in t) in as_set
                     for t in tables for u in units)
        return (_first_difference("count", report["count"], expected)
                or _first_difference("tables listed", len(tables), expected)
                or _first_difference("distinct tables", len(as_set), len(tables))
                or (bad is not None and f"table {bad[:8]}... is not onto S or "
                                        "nonzero at 0")
                or (not closed and "tables not closed under S^x")
                or None)
    return check


def check_verify_paper(report, expected):
    return (_first_difference("records", report["total"], 15)
            or _first_difference("failed_records", report["failed_records"], [])
            or _first_difference("passed", report["passed"], True))


# ---------------------------------------------------------------------------
# job builders


def analyze_zm(m: int, d: int) -> Job:
    return Job(("code", "analyze", "--ring", f"Zm:{m}", "--f", f"pow:{d}"),
               check_zm_analyze(m), lambda: oracles.zm_power_enumerator(m, d),
               {"ring": f"Zm:{m}", "f": f"pow:{d}"})


def analyze_sub(ring: str, sub: str, f: str, oracle=lambda: None) -> Job:
    return Job(("code", "analyze", "--ring", ring, "--subring", sub,
                "--trace", "galois", "--f", f),
               check_moments(oracles.ring_order(ring)), oracle,
               {"ring": ring, "subring": sub, "trace": "galois", "f": f})


def analyze_self(ring: str, f: str) -> Job:
    return Job(("code", "analyze", "--ring", ring, "--f", f),
               check_moments(oracles.ring_order(ring)), setup={"ring": ring, "f": f})


def graph_zm(m: int, d: int, hamming: bool) -> Job:
    argv = ("code", "graph", "--ring", f"Zm:{m}", "--f", f"pow:{d}")
    if hamming:
        argv += ("--weight", "hamming")
    return Job(argv, check_zm_graph,
               lambda: oracles.zm_power_graph(m, d, hamming),
               {"ring": f"Zm:{m}", "f": f"pow:{d}"})


def trace_list(ring: str, sub: str) -> Job:
    return Job(("trace", "list", "--ring", ring, "--subring", sub),
               check_trace_list(ring, sub), lambda: oracles.unit_count(ring),
               {"ring": ring, "subring": sub})


def verify_paper() -> Job:
    return Job(("verify", "paper"), check_verify_paper)


# Each workload's rings, at full size and at the quick size the benchmark's
# own tests use.  Sizes were chosen so that one round of a workload takes
# a few seconds on one core.
SIZES = {
    "analyze-zp": {"full": (37, 47, 58, 62), "quick": (7, 10)},
    # (Gold r, quadratic ring, FXY ring, Frobenius ring, Frank p)
    "analyze-highrank": {"full": (7, "GR:3,1,3", "FXY:3", "GR:2,3,2", 3),
                         "quick": (3, "GR:3,1,2", "FXY:2", "GR:2,2,2", 2)},
    "graph-zp": {"full": ((29, True), (23, True), (34, False), (26, False)),
                 "quick": ((5, True), (14, False))},
    "paper-census": {
        "full": (("GR:3,2,2", "Zm:9"), ("GR:2,1,6", "Zm:2"),
                 ("GR:2,2,3", "Zm:4"), ("FXY:3", "Zm:3"), ("Z4X", "Zm:4")),
        "quick": (("Z4X", "Zm:4"), ("FXY:2", "Zm:2"), ("GR:2,1,3", "Zm:2")),
    },
}


def build(workload: str, seed: int, quick: bool = False) -> list:
    """The workload's jobs for this seed, in the order a round runs them."""
    rng = random.Random(seed)
    size = SIZES[workload]["quick" if quick else "full"]
    if workload == "analyze-zp":
        jobs = [analyze_zm(m, rng.choice(like_three(_prime_part(m)))) for m in size]
    elif workload == "analyze-highrank":
        r, quadratic, fxy, frob, p = size
        d = rng.choice(oracles.almost_bent_exponents(r))
        gold = {Fraction(w): c for w, c in oracles.gold_enumerator(r).items()}
        jobs = [
            analyze_sub(f"GR:2,1,{r}", "Zm:2", f"pow:{d}", lambda: gold),
            analyze_sub(quadratic, "Zm:3", "pow:2"),
            analyze_self(fxy, "sigmaquad:swapxy"),
            analyze_self(frob, "sigmaquad:frobenius"),
            analyze_sub(f"GR:{p},2,2", f"Zm:{p * p}",
                        f"frank:rand:{rng.randrange(1, 10**6)}",
                        lambda: oracles.frank_enumerator(p, 2)),
        ]
    elif workload == "graph-zp":
        jobs = [graph_zm(m, rng.choice(like_three(_prime_part(m))), hamming)
                for m, hamming in size]
    elif workload == "paper-census":
        jobs = [verify_paper()] + [trace_list(ring, sub) for ring, sub in size]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs
