"""Homogeneous weights: character route, axiomatic route, validation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homring import codes, verify, weights
from homring.errors import (InternalInvariantViolation, InvalidParameter,
                            NotLocal, ParseError)
from homring.rings import IntegerModRing, ring_from_spec, subring_embedding
from homring.traces import TraceMap, TraceReport, canonical_character
from homring.weights import (WeightTable, hamming_table, hom_weight,
                             hom_weight_axiomatic, parse_gamma,
                             validate_weight)

from cyclotomic_oracle import CyclotomicVector

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


def _fractions(wt):
    """A table's weights as Fractions: its numerators over its denominator."""
    return tuple(F(v, wt.den) for v in wt.values)


@pytest.mark.parametrize("spec,expected", sorted(KNOWN_TABLES.items()))
def test_known_weight_tables(spec, expected):
    R = ring_from_spec(spec)
    wt = hom_weight(R, 1)
    # at gamma = 1 each weight is the integer |R^x| - S_x over |R^x|
    assert wt.den == len(R.units())
    assert all(type(v) is int for v in wt.values)
    assert _fractions(wt) == expected


@pytest.mark.parametrize("spec", RINGS)
def test_both_routes_agree(spec):
    R = ring_from_spec(spec)
    solved = hom_weight_axiomatic(R)
    assert hom_weight(R, 1).values == solved.values
    # the solve is at gamma = 1; gamma = 2/3 scales it
    wt = hom_weight(R, F(2, 3))
    assert (wt.den, wt.values) == (3 * solved.den, tuple(2 * v for v in solved.values))


@pytest.mark.parametrize("spec", RINGS)
def test_weight_scales_linearly_in_gamma(spec):
    R = ring_from_spec(spec)
    base = hom_weight(R, 1)
    half = hom_weight(R, F(1, 2))
    assert _fractions(half) == tuple(v / 2 for v in _fractions(base))
    # gamma = a/b scales the numerators by a and the denominator by b
    third = hom_weight(R, (2, 3))
    assert (third.den, third.values) == (3 * base.den, tuple(2 * v for v in base.values))


def _fraction_table(ring, gamma):
    """The oracle for ``hom_weight``: gamma * (1 - S_x/|R^x|) in Fractions,
    S_x the sum of the canonical character over the unit multiples of x,
    reduced in the cyclotomic field, not by Ramanujan sums."""
    chi = canonical_character(ring)
    units, mul = ring.units(), ring.mul_table()
    table = []
    for x in range(ring.order):
        counts = [0] * chi.conductor
        for u in units:
            counts[chi.exps[mul[u][x]]] += 1
        unit_sum = CyclotomicVector.from_exponent_counts(chi.conductor,
                                                         counts).to_rational()
        table.append(gamma * (1 - unit_sum / len(units)))
    return tuple(table)


@given(st.sampled_from(verify.PROPERTY_RINGS),
       st.sampled_from([F(1), F(1, 2), F(2, 3), F(3)]))
@settings(max_examples=40, deadline=None)
def test_the_integer_table_equals_the_fraction_reference(spec, gamma):
    R = ring_from_spec(spec)
    wt = hom_weight(R, gamma)
    assert wt.gamma == (gamma.numerator, gamma.denominator)
    assert wt.den == gamma.denominator * len(R.units())
    assert all(type(v) is int for v in wt.values)
    assert _fractions(wt) == _fraction_table(R, gamma)
    assert tuple(gamma * v for v in _fractions(hom_weight_axiomatic(R))) == _fractions(wt)


def test_an_axiomatic_solve_that_is_not_exact_is_refused(monkeypatch):
    # the weights' denominators divide |R^x|, so every solve divides
    # exactly; on Zm:6 the orbit {2, 4} weighs 3/2 over |R^x| = 2, and a
    # solve over a denominator of 1 would need 3/2 of an integer: it must
    # raise, not round down.  The solve divides by the orbit sizes, so the
    # orbits are built before the denominator |R^x| is patched
    R = IntegerModRing(6)
    R.unit_orbits()
    monkeypatch.setattr(R, "units", lambda: [1])
    with pytest.raises(InternalInvariantViolation, match="does not divide 1"):
        hom_weight_axiomatic(R)


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
    total = F(sum(wt.values[y] for y in orbit), wt.den)
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
    values, gamma = _fractions(wt), F(*wt.gamma)

    def show(v):
        return f"{v.numerator}/{v.denominator}"

    violations = []
    if values[0] != 0:
        violations.append({"axiom": "zero", "x": 0, "value": show(values[0])})
    classes = {}
    for x in range(R.order):
        classes.setdefault(frozenset(mul[r][x] for r in range(R.order)), []).append(x)
    for n, gens in sorted(classes.items(), key=lambda kv: sorted(kv[0])):
        for y in gens[1:]:
            if values[y] != values[gens[0]]:
                violations.append({
                    "axiom": "orbit-constant", "x": gens[0], "y": y,
                    "wx": show(values[gens[0]]), "wy": show(values[y])})
    for x in range(1, R.order):
        n = set(mul[x])
        total = sum((values[y] for y in n), F(0))
        if total != gamma * len(n):
            violations.append({"axiom": "orbit-sum", "x": x, "sum": show(total),
                               "expected": show(gamma * len(n))})
    return {"valid": not violations, "violations": violations}


@given(st.sampled_from(RINGS), st.sampled_from([F(1), F(1, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_validate_weight_equals_the_per_element_sums(spec, gamma, data):
    R = ring_from_spec(spec)
    honest = hom_weight(R, gamma)
    # over 12 times the table's denominator, every drawn change is an integer
    den = 12 * honest.den
    values = [12 * v for v in honest.values]
    for _ in range(data.draw(st.integers(0, 3))):
        x = data.draw(st.integers(0, R.order - 1))
        change = data.draw(st.fractions(-2, 2, max_denominator=4)) * den
        values[x] += int(change)
    wt = WeightTable(R, gamma, values, den=den)
    assert validate_weight(wt) == _validate_weight_class_by_class(wt)


def test_hom_weight_refuses_a_table_the_axiomatic_route_contradicts(monkeypatch):
    R = IntegerModRing(12)  # a fresh ring: no weight table is cached yet
    assert not any(isinstance(k, tuple) and k[0] == "hom_weight" for k in R._cache)
    honest = weights.hom_weight_axiomatic

    def tampered(ring):
        table = honest(ring)
        values = list(table.values)
        values[5] += 1
        return WeightTable(ring, 1, values, den=table.den)

    monkeypatch.setattr(weights, "hom_weight_axiomatic", tampered)
    with pytest.raises(InternalInvariantViolation, match="axiomatic route"):
        hom_weight(R, 1)
    # every other gamma scales the gamma = 1 table, so it meets the same check
    with pytest.raises(InternalInvariantViolation):
        hom_weight(R, F(1, 2))
    assert not any(isinstance(k, tuple) and k[0] == "hom_weight" for k in R._cache)


@pytest.mark.parametrize("mutate", ["weight", "trace"])
def test_record_14_fails_when_a_multiple_of_x_does_not_weigh_r(mutate, monkeypatch):
    # record 14 checks pow:1 with S = R once: |C| = |R| and every nonzero
    # codeword x -> gamma*x at weight |R|, so W(alpha, 0) = 0 for alpha != 0;
    # a weight changed on the unit orbit {3, 6} of Zm:9 (a table must stay
    # constant on unit orbits to be weighed), must fail it.  A trace value
    # changed at 3 leaves T not additive, so its kernel (8 pairs, one alpha a
    # key) is no subgroup, which the count check of the pair orbits refuses
    # before the record compares the enumerator
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
            return WeightTable(r, gamma, values, den=table.den)

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
                               match="2 x 9 least pairs for 10 codewords"):
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
    assert (wt.den, wt.values) == (1, (0, 1, 1, 1, 1))
    # over a prime field the Hamming weight is homogeneous of gamma (q-1)/q:
    # 5/4 over the four units at gamma = 1, so (4/5)(5/4) = 1
    scaled = hom_weight(R, F(4, 5))
    assert _fractions(scaled) == _fractions(wt)
    assert scaled == wt and hash(scaled) == hash(wt)
    assert scaled != hom_weight(R, 1)


def test_parse_gamma():
    R4 = ring_from_spec("Zm:4")
    assert parse_gamma("1", R4) == (1, 1)
    assert parse_gamma("3/2", R4) == (3, 2)
    assert parse_gamma("6/4", R4) == (3, 2)
    assert parse_gamma("hamming-normalized", R4) == (1, 2)
    assert parse_gamma("hamming-normalized", ring_from_spec("Zm:5")) == (4, 5)
    with pytest.raises(NotLocal):
        parse_gamma("hamming-normalized", ring_from_spec("Zm:6"))
    with pytest.raises(ParseError):
        parse_gamma("one", R4)
    with pytest.raises(ParseError):
        parse_gamma("1/0", R4)
    # a negative gamma would give negative weights; gamma = 0 weighs all 0
    assert parse_gamma("0", R4) == (0, 1)
    for spec in ("-1", "-1/2"):
        with pytest.raises(ParseError):
            parse_gamma(spec, R4)


@pytest.mark.parametrize("gamma", [0.5, "1/2", (1, 0), -1], ids=repr)
def test_hom_weight_refuses_a_gamma_outside_its_domain(gamma):
    # the library path (the weight and the table that holds a gamma)
    # refuses what parse_gamma refuses on the CLI path, with
    # InvalidParameter naming the value, and keeps nothing
    R = ring_from_spec("Zm:6")
    before = dict(R._cache)
    for route in (hom_weight,
                  lambda ring, gamma: WeightTable(ring, gamma, [0] * ring.order)):
        with pytest.raises(InvalidParameter) as err:
            route(R, gamma)
        assert str(err.value) == ("gamma must be an int, a Fraction or a (num, den) "
                                  f"pair with den != 0, and >= 0; got {gamma!r}")
    assert R._cache.keys() == before.keys()
    # ints, Fractions and pairs with den != 0 are one gamma each
    for same in ((1, 2), F(1, 2), (2, 4), (-1, -2)):
        assert hom_weight(R, same) is hom_weight(R, (1, 2))
    assert hom_weight(R, 0).values == (0,) * R.order
    assert hom_weight(R, 3).gamma == (3, 1)


# spellings parse_gamma reads with int, and others only Fraction reads,
# good and bad: each must keep Fraction(spec)'s value or its refusal
GAMMA_SPELLINGS = (
    "1", "0", "00", "007", "3/2", "6/4", "0/5", "10/10", "1/0", "0/0", "0.5",
    "1e0", "1_0", "1_000/3", " 2 ", "\t3/4\n", "+1", "-0", "-1", "-1/2",
    "1/-2", "1 / 2", "1/", "/2", "", " ", "one", "1/2/3", "0x10", "1__0",
    "_1", "1_", ".5", "5.", "1.5e-1", "inf", "nan", "\u00bd", "\u00b2",
    "\u0663", "\u0663/\u0664", "2/\u0664", "1" + "0" * 4400, "1/" + "3" * 4400,
)


@pytest.mark.parametrize("spec", GAMMA_SPELLINGS,
                         ids=lambda s: ascii(s) if len(s) < 20 else f"{len(s)}-chars")
def test_parse_gamma_reads_every_spelling_as_fraction_does(spec):
    R4 = ring_from_spec("Zm:4")
    stripped = spec.strip()
    try:
        want = F(stripped)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError) as err:
            parse_gamma(spec, R4)
        assert str(err.value) == f"bad gamma spec {stripped!r}"
        return
    if want < 0:
        with pytest.raises(ParseError) as err:
            parse_gamma(spec, R4)
        assert str(err.value) == f"gamma must be >= 0, got {stripped!r}"
        return
    got = parse_gamma(spec, R4)
    assert got == (want.numerator, want.denominator)
    assert all(type(v) is int for v in got)


def test_scaled_representation_round_trips():
    R = ring_from_spec("Zm:10")
    # 3/4 at x = 1 over |R^x| = 4, scaled by gamma = 4/6 = 2/3
    wt = hom_weight(R, (4, 6))
    assert wt.gamma == (2, 3)
    assert (wt.den, wt.values[:3]) == (12, (0, 6, 10))
    # the reduced form keeps every weight and leaves no common factor
    den, ints = wt.reduced
    assert (den, ints[:3]) == (6, (0, 3, 5))
    assert all(F(i, den) == v for i, v in zip(ints, _fractions(wt)))
