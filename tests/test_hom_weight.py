"""Homogeneous weights: character route, axiomatic route, validation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homring import codes, verify, weights
from homring.errors import InternalInvariantViolation, NotLocal, ParseError
from homring.rings import IntegerModRing, ring_from_spec, subring_embedding
from homring.traces import TraceMap, TraceReport
from homring.weights import (WeightTable, hamming_table, hom_weight,
                             hom_weight_axiomatic, parse_gamma,
                             validate_weight)

RINGS = ["Zm:4", "Zm:5", "Zm:6", "Zm:7", "Zm:8", "Zm:9", "Zm:10", "Zm:14",
         "GR:2,1,2", "GR:2,1,3", "GR:2,2,2", "GR:3,2,2", "GR:2,3,2",
         "FXY:2", "FXY:3", "Z4X"]

F = Fraction

KNOWN_TABLES = {
    "Zm:4": (0, 1, 2, 1),
    "Zm:6": (0, F(1, 2), F(3, 2), 2, F(3, 2), F(1, 2)),
    "Zm:8": (0, 1, 1, 1, 2, 1, 1, 1),
    "Zm:9": (0, 1, 1, F(3, 2), 1, 1, F(3, 2), 1, 1),
    "Zm:10": (0, F(3, 4), F(5, 4), F(3, 4), F(5, 4), 2,
              F(5, 4), F(3, 4), F(5, 4), F(3, 4)),
}


@pytest.mark.parametrize("spec,expected", sorted(KNOWN_TABLES.items()))
def test_known_weight_tables(spec, expected):
    wt = hom_weight(ring_from_spec(spec), 1)
    assert wt.values == expected


@pytest.mark.parametrize("spec", RINGS)
def test_both_routes_agree(spec):
    R = ring_from_spec(spec)
    assert hom_weight(R, 1).values == hom_weight_axiomatic(R, 1).values
    g = F(2, 3)
    assert hom_weight(R, g).values == hom_weight_axiomatic(R, g).values


@pytest.mark.parametrize("spec", RINGS)
def test_weight_scales_linearly_in_gamma(spec):
    R = ring_from_spec(spec)
    base = hom_weight(R, 1).values
    half = hom_weight(R, F(1, 2)).values
    assert half == tuple(v / 2 for v in base)


@pytest.mark.parametrize("spec", RINGS)
def test_axioms_hold(spec):
    wt = hom_weight(ring_from_spec(spec), 1)
    report = validate_weight(wt)
    assert report["valid"], report["violations"]


@given(st.sampled_from(RINGS), st.data())
@settings(max_examples=60)
def test_orbit_sum_axiom_pointwise(spec, data):
    R = ring_from_spec(spec)
    wt = hom_weight(R, 1)
    x = data.draw(st.integers(min_value=1, max_value=R.order - 1))
    orbit = sorted(set(R.mul_table()[x]))
    total = sum((wt.values[y] for y in orbit), F(0))
    assert total == len(orbit)


def test_validate_weight_reports_a_tampered_value():
    R = ring_from_spec("Zm:4")
    wt = WeightTable(R, 1, (0, 1, 3, 1))
    report = validate_weight(wt)
    assert not report["valid"]
    axioms = {v["axiom"] for v in report["violations"]}
    assert "orbit-sum" in axioms
    wt2 = WeightTable(R, 1, (0, 2, 2, 1))
    rep2 = validate_weight(wt2)
    assert {v["axiom"] for v in rep2["violations"]} == {"orbit-constant",
                                                        "orbit-sum"}
    wt3 = WeightTable(R, 1, (1, 1, 2, 1))
    assert any(v["axiom"] == "zero" for v in validate_weight(wt3)["violations"])


def _validate_weight_class_by_class(wt):
    """``validate_weight`` with the sum over Rx made afresh for every x:
    the oracle for its one sum per cyclic submodule."""
    R = wt.ring
    mul = R.mul_table()
    violations = []
    if wt.values[0] != 0:
        violations.append({"axiom": "zero", "x": 0, "value": str(wt.values[0])})
    classes = {}
    for x in range(R.order):
        classes.setdefault(frozenset(mul[r][x] for r in range(R.order)), []).append(x)
    for n, gens in sorted(classes.items(), key=lambda kv: sorted(kv[0])):
        for y in gens[1:]:
            if wt.values[y] != wt.values[gens[0]]:
                violations.append({
                    "axiom": "orbit-constant", "x": gens[0], "y": y,
                    "wx": str(wt.values[gens[0]]), "wy": str(wt.values[y])})
    for x in range(1, R.order):
        n = set(mul[x])
        total = sum((wt.values[y] for y in n), F(0))
        if total != wt.gamma * len(n):
            violations.append({"axiom": "orbit-sum", "x": x, "sum": str(total),
                               "expected": str(wt.gamma * len(n))})
    return {"valid": not violations, "violations": violations}


@given(st.sampled_from(RINGS), st.sampled_from([F(1), F(1, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_validate_weight_equals_the_per_element_sums(spec, gamma, data):
    R = ring_from_spec(spec)
    values = list(hom_weight(R, gamma).values)
    for _ in range(data.draw(st.integers(0, 3))):
        x = data.draw(st.integers(0, R.order - 1))
        values[x] += data.draw(st.fractions(-2, 2, max_denominator=4))
    wt = WeightTable(R, gamma, values)
    assert validate_weight(wt) == _validate_weight_class_by_class(wt)


def test_hom_weight_refuses_a_table_the_axiomatic_route_contradicts(monkeypatch):
    R = IntegerModRing(12)  # a fresh ring: no weight table is cached yet
    assert not any(isinstance(k, tuple) and k[0] == "hom_weight" for k in R._cache)
    honest = weights.hom_weight_axiomatic

    def tampered(ring, gamma=1):
        values = list(honest(ring, gamma).values)
        values[5] += 1
        return WeightTable(ring, gamma, values)

    monkeypatch.setattr(weights, "hom_weight_axiomatic", tampered)
    with pytest.raises(InternalInvariantViolation, match="axiomatic route"):
        hom_weight(R, 1)
    # every other gamma scales the gamma = 1 table, so it meets the same check
    with pytest.raises(InternalInvariantViolation):
        hom_weight(R, F(1, 2))
    assert ("hom_weight", 1) not in R._cache


@pytest.mark.parametrize("mutate", ["weight", "trace"])
def test_record_14_fails_when_a_multiple_of_x_does_not_weigh_r(mutate, monkeypatch):
    # record 14 checks pow:1 with S = R once: |C| = |R| and every nonzero
    # codeword x -> gamma*x at weight |R|, so W(alpha, 0) = 0 for alpha != 0;
    # a weight changed on the unit orbit {3, 6} of Zm:9 (a table must stay
    # constant on unit orbits to be weighed), must fail it.  A trace value
    # changed at 3 leaves T not additive, which the first moment check of the
    # orbit weighing refuses before the record compares the enumerator
    ring = ring_from_spec("Zm:9")
    if mutate == "weight":
        honest = verify.hom_weight

        def tampered(r, gamma=1):
            table = honest(r, gamma)
            if r is not ring:
                return table
            values = list(table.values)
            values[3] += 1
            values[6] += 1
            return WeightTable(r, gamma, values)

        monkeypatch.setattr(verify, "hom_weight", tampered)
    else:
        values = list(range(ring.order))
        values[3] = 0
        bad = TraceMap(ring, ring, subring_embedding(ring, ring), values,
                       tag="identity", report=TraceReport(True, []))
        honest = codes.trace_from_spec
        monkeypatch.setattr(codes, "trace_from_spec", lambda r, *rest: (
            bad if r is ring else honest(r, *rest)))
    verify._code.cache_clear()
    try:
        if mutate == "trace":
            with pytest.raises(InternalInvariantViolation,
                               match="pow:1 on Zm:9 over Zm:9 sum to"):
                verify.run(only=[14])
            return
        (rec,) = verify.run(only=[14])["records"]
    finally:
        verify._code.cache_clear()
    assert not rec["pass"]
    assert "Zm:9: linear code |C|=" in rec["computed"]


def test_record_12_lets_an_internal_fault_through(monkeypatch):
    # only a refused trace (ValidationFailed) counts as a map that is not
    # one; any other error is a fault and must stop the run
    honest = verify.z4x_trace

    def faulty(ring, sub, l0, l1):
        if (l0, l1) == (0, 1):
            raise InternalInvariantViolation("planted fault")
        return honest(ring, sub, l0, l1)

    monkeypatch.setattr(verify, "z4x_trace", faulty)
    with pytest.raises(InternalInvariantViolation, match="planted fault"):
        verify.run(only=[12])


def test_units_share_one_weight_on_local_rings():
    for spec in ("Zm:4", "Zm:8", "Zm:9", "GR:2,2,2", "FXY:3", "Z4X"):
        R = ring_from_spec(spec)
        wt = hom_weight(R, 1)
        assert len({wt.values[u] for u in R.units()}) == 1


def test_hamming_table():
    R = ring_from_spec("Zm:5")
    wt = hamming_table(R)
    assert wt.kind == "hamming"
    assert wt.values == (0, 1, 1, 1, 1)
    # over a prime field the Hamming weight is homogeneous of gamma (q-1)/q
    scaled = hom_weight(R, F(4, 5))
    assert scaled.values == wt.values


def test_parse_gamma():
    R4 = ring_from_spec("Zm:4")
    assert parse_gamma("1", R4) == 1
    assert parse_gamma("3/2", R4) == F(3, 2)
    assert parse_gamma("hamming-normalized", R4) == F(1, 2)
    assert parse_gamma("hamming-normalized", ring_from_spec("Zm:5")) == F(4, 5)
    with pytest.raises(NotLocal):
        parse_gamma("hamming-normalized", ring_from_spec("Zm:6"))
    with pytest.raises(ParseError):
        parse_gamma("one", R4)
    with pytest.raises(ParseError):
        parse_gamma("1/0", R4)
    # a negative gamma would give negative weights; gamma = 0 weighs all 0
    assert parse_gamma("0", R4) == 0
    for spec in ("-1", "-1/2"):
        with pytest.raises(ParseError):
            parse_gamma(spec, R4)


def test_scaled_representation_round_trips():
    R = ring_from_spec("Zm:10")
    wt = hom_weight(R, 1)
    den, ints = wt.scaled()
    assert all(F(i, den) == v for i, v in zip(ints, wt.values))
