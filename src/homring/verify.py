"""Built-in verification suite.

Fifteen numbered records, each comparing a computed result against its
recorded expected value with exact rational arithmetic: integers over
denominators, as everywhere in the package, with a fractional expected
weight written as a (num, den) pair.  Records 9-11 carry corrected
sigma-quadratic values and name the transcribed values they replace, with
the reason each is wrong.  Record 15 documents a known discrepancy in the
source tables for Z_6 and is informational: it never fails the suite.
The suite reports expected vs computed for every record, so a failing
record carries its own evidence.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .codes import (
    code_from_specs,
    code_spectrum,
    frank_subring_enumerator,
    frank_subring_spectrum,
    frank_self_enumerator,
    frank_self_spectrum,
    random_teich_permutation,
    sigma_quadratic_enumerator,
    weight_enumerator,
    z2p_power_enumerator,
    z2p_power_spectrum,
    zp_power_enumerator,
    WeightEnumerator,
)
from .cyclotomic import rational_str
from .errors import ParseError, ValidationFailed
from .graphs import (
    SRGParams,
    connected_components,
    is_modular,
    srg_check,
    two_weight_graph,
)
from .rings import ring_from_spec
from .traces import enumerate_trace_maps, z4x_trace
from .weights import hamming_table, hom_weight, validate_weight

RANDOM_PERM_SEEDS = (1, 2, 3, 4, 5)

PROPERTY_RINGS = (
    "Zm:4", "Zm:5", "Zm:6", "Zm:7", "Zm:8", "Zm:9", "Zm:10", "Zm:14",
    "GR:2,1,2", "GR:2,1,3", "GR:2,2,2", "GR:3,2,2", "GR:2,3,2",
    "FXY:2", "FXY:3", "Z4X",
)


_code = lru_cache(maxsize=None)(code_from_specs)


@lru_cache(maxsize=None)
def _homogeneous(code) -> tuple:
    """The gamma = 1 homogeneous enumerator of a ``_code`` and its spectrum,
    weighed once per code, so records that share a code weigh it once."""
    enum = weight_enumerator(code, hom_weight(code.sub, 1))
    return enum, code_spectrum(code, enum)


def _braced(den, values) -> str:
    """A spectrum (den, values), or values over den, in its order, as
    {a/b, ...}."""
    return "{" + ", ".join(rational_str(v, den) for v in values) + "}"


def _code_report(code, enum, spectrum=None) -> str:
    parts = [f"|C|={code.size}", f"enumerator {enum.poly_str()}"]
    if spectrum is not None:
        parts.insert(0, f"spectrum {_braced(*spectrum)}")
    return "; ".join(parts)


def _record(rid, title, expected, computed, passed, **extra):
    rec = {"id": rid, "title": title, "expected": expected,
           "computed": computed, "pass": bool(passed)}
    rec.update(extra)
    return rec


def _frank_spec(ring_spec: str, seed) -> str:
    """The frank function spec of the pi that ``frank:rand:<seed>`` draws on
    the ring, named by the permutation itself (``frank:id`` for the
    identity), so seeds that draw one pi share one ``_code``."""
    if seed is None:
        return "frank:id"
    perm = random_teich_permutation(ring_from_spec(ring_spec), seed)
    if perm == tuple(range(len(perm))):
        return "frank:id"
    return "frank:" + ",".join(map(str, perm))


@lru_cache(maxsize=None)
def _frank_triplet(seed=None) -> tuple:
    """The three frank-code checks, optionally with a seeded random pi.  Kept
    per seed, so records 1-3 share one computation; each run still builds
    its own record dicts from it."""
    results = []
    for ring_spec, sub_spec, trace_spec, closed_enum, closed_spec in (
        ("GR:2,2,2", "Zm:4", "galois",
         frank_subring_enumerator(2, 2), frank_subring_spectrum(2, 2)),
        ("GR:3,2,2", "Zm:9", "galois",
         frank_subring_enumerator(3, 2), frank_subring_spectrum(3, 2)),
        ("GR:2,2,2", "GR:2,2,2", "identity",
         frank_self_enumerator(2, 2), frank_self_spectrum(2, 2)),
    ):
        code = _code(ring_spec, sub_spec, trace_spec, _frank_spec(ring_spec, seed))
        enum, spec = _homogeneous(code)
        ok = code.size == closed_enum.total and enum == closed_enum
        results.append((ring_spec, sub_spec, code, enum, spec, closed_enum,
                        closed_spec, ok))
    return tuple(results)


def _criterion_frank(rid, title):
    _, _, code, enum, spec, closed_enum, closed_spec, ok = _frank_triplet()[rid - 1]
    expected = (f"spectrum {_braced(*closed_spec)}; |C|={closed_enum.total}; "
                f"enumerator {closed_enum.poly_str()}")
    return _record(rid, title, expected, _code_report(code, enum, spec), ok)


def _criterion_4():
    failures = []
    for seed in RANDOM_PERM_SEEDS:
        for res in _frank_triplet(seed):
            ring_spec, sub_spec, code, enum, spec, ce, cs, ok = res
            if not ok:
                failures.append(f"seed {seed} {ring_spec}/{sub_spec}: "
                                f"{_code_report(code, enum, spec)}")
    expected = ("frank-code results of records 1-3 unchanged for identity pi "
                f"and seeds {list(RANDOM_PERM_SEEDS)}")
    computed = "all permutations matched" if not failures else "; ".join(failures)
    return _record(4, "frank permutation independence", expected, computed,
                   not failures, seeds=list(RANDOM_PERM_SEEDS))


def _criterion_5():
    expected, computed, ok = [], [], True
    for m, d in ((5, 3), (7, 4)):
        code = _code(f"Zm:{m}", f"Zm:{m}", "identity", f"pow:{d}")
        enum = weight_enumerator(code, hamming_table(code.sub))
        closed = zp_power_enumerator(m, d)
        ok = ok and enum == closed
        expected.append(f"Zm:{m} pow:{d} -> {closed.poly_str()}")
        computed.append(f"Zm:{m} pow:{d} -> {enum.poly_str()}")
    return _record(5, "power-map codes on Zm:p under Hamming weight",
                   "; ".join(expected), "; ".join(computed), ok)


def _criterion_6():
    expected, computed, ok = [], [], True
    for p, d in ((5, 3), (7, 4)):
        m = 2 * p
        code = _code(f"Zm:{m}", f"Zm:{m}", "identity", f"pow:{d}")
        enum, spec = _homogeneous(code)
        closed = z2p_power_enumerator(p, d)
        ok = ok and enum == closed
        expected.append(f"Zm:{m} pow:{d} -> spectrum "
                        f"{_braced(*z2p_power_spectrum(p, d))}, {closed.poly_str()}")
        computed.append(f"Zm:{m} pow:{d} -> spectrum {_braced(*spec)}, {enum.poly_str()}")
    return _record(6, "power-map codes on Zm:2p under homogeneous weight",
                   "; ".join(expected), "; ".join(computed), ok)


def _criterion_7():
    code = _code("FXY:2", "Zm:2", "fxy-sum", "sigmaquad:swapxy")
    enum = weight_enumerator(code, hom_weight(code.sub, (1, 2)))
    spec = _homogeneous(code)[1]
    want_enum = WeightEnumerator({0: 1, 4: 3, 8: 27, 12: 1}, gamma=(1, 2))
    want_spec = (1, (16, 8, 0, -8))
    expected = f"spectrum {_braced(*want_spec)}; enumerator {want_enum.poly_str()}"
    computed = f"spectrum {_braced(*spec)}; enumerator {enum.poly_str()}"
    return _record(7, "sigma-quadratic code on FXY:2 traced to Zm:2 at gamma=1/2",
                   expected, computed, enum == want_enum and spec == want_spec)


def _criterion_8():
    code = _code("FXY:2", "FXY:2", "identity", "sigmaquad:swapxy")
    enum = _homogeneous(code)[0]
    want = WeightEnumerator({0: 1, 8: 14, 16: 113})
    ok = (code.size == 128 and enum == want
          and enum == sigma_quadratic_enumerator(code.ring))
    return _record(8, "sigma-quadratic code on FXY:2 with S=R",
                   f"|C|=128; enumerator {want.poly_str()}",
                   _code_report(code, enum), ok)


def _first_moment_note(transcribed, size, n) -> str:
    """Why a transcribed table is wrong: at gamma = 1 the weights of a code
    with S = R must sum to |C| * (|R| - 1), one gamma per nonzero coordinate."""
    total = sum(t * c for t, c in transcribed)
    return (f"replaces transcribed {transcribed.poly_str()}, whose weights sum to "
            f"{rational_str(total, transcribed.den)} instead of |C|*(|R|-1) = "
            f"{rational_str(size * (n - 1))}")


def _criterion_9():
    code = _code("FXY:3", "FXY:3", "identity", "sigmaquad:swapxy")
    enum = _homogeneous(code)[0]
    want = WeightEnumerator({0: 1, (81, 2): 4, 54: 234, 81: 6322})
    transcribed = WeightEnumerator({0: 1, (81, 2): 4, 54: 236, 81: 6320})
    ok = code.size == 6561 and enum == want
    return _record(9, "sigma-quadratic code on FXY:3 with S=R",
                   f"|C|=6561; enumerator {want.poly_str()} "
                   f"({_first_moment_note(transcribed, 6561, 81)})",
                   _code_report(code, enum), ok)


def _criterion_10():
    code = _code("GR:2,3,2", "GR:2,3,2", "identity", "sigmaquad:frobenius")
    enum = _homogeneous(code)[0]
    want = WeightEnumerator({0: 1, 48: 240, (128, 3): 9, 64: 3846})
    transcribed = WeightEnumerator({0: 1, 48: 243, (128, 3): 9, 64: 3843})
    closed = sigma_quadratic_enumerator(code.ring)
    table_ok = enum == closed
    ok = code.size == 4096 and enum == want and table_ok
    expected = (f"|C|=4096; enumerator {want.poly_str()} "
                f"({_first_moment_note(transcribed, 4096, 64)}); "
                f"closed-form table {closed.poly_str()} reproduced by brute force")
    computed = (f"{_code_report(code, enum)}; brute force "
                f"{'matches' if table_ok else 'differs from'} closed-form table")
    return _record(10, "sigma-quadratic code on GR(2,3,2) with S=R",
                   expected, computed, ok)


def _criterion_11():
    code = _code("GR:2,3,2", "Zm:8", "galois", "sigmaquad:frobenius")
    enum = _homogeneous(code)[0]
    weights = tuple(t for t, _ in enum)
    want = (0, 32, 48, 64, 96)
    computed = _braced(enum.den, weights)
    expected = (_braced(1, want) + " "
                "(replaces transcribed {0, 32, 48, 64, 80, 88, 96}: summing the "
                "character over M makes every W = 64 - weight a multiple of 16, "
                "so weight 88 (W = -24) cannot occur; no pair reaches weight 80)")
    return _record(11, "distinct weights of sigma-quadratic code GR(2,3,2) to Zm:8",
                   expected, computed, weights == tuple(w * enum.den for w in want))


def _criterion_12():
    ring = ring_from_spec("Z4X")
    sub = ring_from_spec("Zm:4")
    found = enumerate_trace_maps(ring, sub)
    lam_maps = {}
    for l0 in range(4):
        for l1 in range(4):
            try:
                t = z4x_trace(ring, sub, l0, l1)
            except ValidationFailed:
                continue
            lam_maps[(l0, l1)] = t.values
    unit_lams = sorted(lam for lam in lam_maps if lam[1] in (1, 3))
    expected_sets = {lam_maps[lam] for lam in unit_lams}
    found_sets = {t.values for t in found}
    ok = len(found) == 8 and found_sets == expected_sets and len(unit_lams) == 8
    expected = "8 trace maps, exactly those with unit lambda_1 (lambda_1 in {1,3})"
    computed = (f"{len(found)} maps found; "
                f"{'equal to' if found_sets == expected_sets else 'different from'} "
                "the unit-lambda_1 family")
    return _record(12, "trace-map census on Z4X over Zm:4", expected, computed, ok)


def _criterion_13():
    code5 = _code("Zm:5", "Zm:5", "identity", "pow:3")
    graph5 = two_weight_graph(code5, hamming_table(code5.sub))
    srg = srg_check(graph5)   # raises unless k(k-l-1) = (v-k-1)mu
    srg_ok = isinstance(srg, SRGParams) and srg == (25, 8, 3, 2)
    mod5, r5 = is_modular(code5.ring, enumerate(code5.func.table))

    code10 = _code("Zm:10", "Zm:10", "identity", "pow:3")
    graph10 = two_weight_graph(code10, hom_weight(code10.sub, 1))
    comps = connected_components(graph10)
    mod10, _ = is_modular(code10.ring, enumerate(code10.func.table))

    ok = (srg_ok and mod5 and r5 == (1, 2)
          and len(comps) > 1 and not mod10)
    expected = ("Zm:5 x^3 Hamming graph: SRG(25,8,3,2), k(k-l-1)=(v-k-1)mu, "
                "modular r=1/2; Zm:10 x^3 graph: disconnected, not modular")
    computed = (f"Zm:5: {srg!r}, modular={mod5} r={rational_str(*r5) if r5 is not None else 'none'}; "
                f"Zm:10: components {comps}, modular={mod10}")
    return _record(13, "two-weight code graphs for x^3 on Zm:5 and Zm:10",
                   expected, computed, ok)


def _criterion_14():
    """hom_weight raises unless the character and axiomatic routes agree;
    the axiomatic solve meets the axioms as it is built, and WeightTable
    holds integers over one denominator.  With S = R, T = identity and
    f = x, the codeword of (alpha, beta) is x -> (alpha + beta)*x: |C| = |R|
    and the enumerator {0: 1, |R|: |R| - 1} say that
    W(alpha, 0) = |R| - w(alpha*x) is 0 for every alpha != 0, and
    W(0, 0) = |R|."""
    failures = []
    for spec in PROPERTY_RINGS:
        code = _code(spec, spec, "identity", "pow:1")
        n = code.ring.order
        enum = _homogeneous(code)[0]
        if code.size != n or enum.den != 1 or enum.counts != {0: 1, n: code.size - 1}:
            failures.append(f"{spec}: linear code |C|={code.size}, "
                            f"enumerator {enum.poly_str()}")
    expected = (f"for all of {len(PROPERTY_RINGS)} rings: axiomatic == character "
                "weights, axioms valid, rational sums, W(alpha,0)=0 for alpha!=0, "
                "W(0,0)=|R|, linear f gives one-weight code at |R|")
    computed = "all properties hold" if not failures else "; ".join(failures)
    return _record(14, "weight/transform property suite over all implemented rings",
                   expected, computed, not failures)


def _criterion_15():
    z6 = ring_from_spec("Zm:6")
    wt = hom_weight(z6, 1)
    report = validate_weight(wt)
    on_24 = {rational_str(wt.values[x], wt.den) for x in (2, 4)}
    on_3 = rational_str(wt.values[3], wt.den)
    units_w = {rational_str(wt.values[x], wt.den) for x in (1, 5)}
    computed = (f"w on {{2,4}} = {sorted(on_24)}, w(3) = {on_3}, "
                f"w on units = {sorted(units_w)}; axioms valid={report['valid']}")
    expected = ("recorded discrepancy: computed w is 3/2 on {2,4} and 2 on {3}, "
                "while the source table states 2 on {2,4} and 3/2 on {3}; "
                "computed values must satisfy the axioms")
    ok = (report["valid"] and on_24 == {"3/2"} and on_3 == "2/1"
          and units_w == {"1/2"})
    return _record(15, "Zm:6 homogeneous-weight discrepancy record",
                   expected, computed, ok, informational=True)


_CRITERIA = {
    1: partial(_criterion_frank, 1, "frank code on GR(2,2,2) traced to Zm:4"),
    2: partial(_criterion_frank, 2, "frank code on GR(3,2,2) traced to Zm:9"),
    3: partial(_criterion_frank, 3, "frank code on GR(2,2,2) with S=R"),
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
    9: _criterion_9,
    10: _criterion_10,
    11: _criterion_11,
    12: _criterion_12,
    13: _criterion_13,
    14: _criterion_14,
    15: _criterion_15,
}


def run(only=None) -> dict:
    """Run the suite (optionally a subset of record ids) and build the report."""
    ids = sorted(set(only)) if only else list(_CRITERIA)
    bad = next((rid for rid in ids if rid not in _CRITERIA), None)
    if bad is not None:
        raise ParseError(f"unknown record id {bad}")
    records = [_CRITERIA[rid]() for rid in ids]
    hard = [r for r in records if not r.get("informational")]
    failed = [r["id"] for r in hard if not r["pass"]]
    return {
        "suite": "verification",
        "total": len(records),
        "passed": not failed,
        "failed_records": failed,
        "records": records,
    }
