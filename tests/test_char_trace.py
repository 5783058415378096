"""Characters, subring embeddings, trace validation and enumeration."""

import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homring import cyclotomic, traces
from homring.cyclotomic import Cyclotomic
from homring.errors import (BudgetExceeded, InternalInvariantViolation,
                            InvalidParameter, ParseError, UnknownPreset,
                            ValidationFailed)
from homring.rings import (_BUILDERS, GaloisRing, SubringEmbedding, frobenius,
                           fxy_ring, make_galois_ring, make_integer_ring,
                           parse_ring_spec_parts, ring_from_spec,
                           subring_embedding, swap_xy)
from homring.traces import (TraceMap, TraceReport, canonical_character,
                            char_fixed_by, enumerate_trace_maps, fxy_sum_trace,
                            galois_trace, generating_character, identity_trace,
                            table_trace, trace_from_spec, validate_trace,
                            z4x_trace)
from homring.weights import hom_weight

from cyclotomic_oracle import CyclotomicVector, cyclotomic_polynomial
from ring_oracle import (EMBEDDING_GRID, SETUP_GRID, character_scan,
                         element_from_int, embedding_refusal_by_scan,
                         refusal_names_a_failing_pair, traces_by_search,
                         unit_histograms_by_elements)

# ---------------------------------------------------------------------------
# unit sums by Ramanujan sums, against the field reduction of the oracle

UNIT_SUM_RINGS = ("Zm:12", "Zm:36", "Zm:60", "Zm:97", "Zm:2000", "GR:2,2,2",
                  "GR:3,2,2", "GR:2,3,2", "GR:2,1,7", "GR:5,2,1", "GR:3,1,3",
                  "GR:2,2,3", "FXY:3", "Z4X")


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in want), m


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 12])
def test_full_exponent_sum_vanishes(m):
    total = Cyclotomic.from_exponent_counts(m, [1] * m)
    assert total.value == 0


def _numerators_by_field_reduction(chi) -> list:
    """|R^x| - S_x for each x, S_x the sum of chi over the unit multiples of
    x, from per-element histograms reduced in the cyclotomic field: the
    gamma = 1 numerators of ``hom_weight``, never through Ramanujan sums."""
    hists, nunits = unit_histograms_by_elements(chi), len(chi.ring.units())
    sums = {h: CyclotomicVector.from_exponent_counts(chi.conductor, h).to_rational()
            for h in set(hists)}
    return [nunits - sums[h] for h in hists]


@pytest.mark.parametrize("spec", UNIT_SUM_RINGS)
def test_unit_sums_equal_the_field_reduction(spec):
    R = ring_from_spec(spec)
    wt = hom_weight(R, 1)
    assert wt.den == len(R.units())
    assert all(type(v) is int for v in wt.values)
    assert list(wt.values) == _numerators_by_field_reduction(canonical_character(R))


@pytest.mark.parametrize("m, counts", [(3, [0, 1, 0]), (7, [0, 1, 0, 0, 0, 0, 0]),
                                       (6, [1, 1, 0, 0, 0, 0]), (5, [0, 2, 0, 0, 0])])
def test_a_histogram_that_is_not_galois_invariant_is_refused(m, counts):
    # w_3 alone averages to -1/2 over Gal(Q(w_3)/Q): no rational sum of
    # roots of unity is fractional, so the histogram was not invariant
    with pytest.raises(InternalInvariantViolation, match="not Galois-invariant"):
        Cyclotomic.from_exponent_counts(m, counts)


def _fresh_ring(spec):
    """A ring built anew, not the memoized one, so nothing it caches under
    a mutation leaks into other tests."""
    family, params = parse_ring_spec_parts(spec)
    return _BUILDERS[family].__wrapped__(*params)


@pytest.mark.parametrize("spec", ["Zm:12", "Zm:97", "GR:2,2,2", "GR:3,1,3", "Z4X"])
def test_a_flipped_moebius_sign_fails_the_weight_routes(spec, monkeypatch):
    """Negating mu(m/g) on one class {e : gcd(e, m) = g} makes the character
    route disagree with the axiomatic one, for every class with mu != 0."""
    m = ring_from_spec(spec).characteristic()
    den, weights = cyclotomic._galois_weights(m)
    for g in (g for g in range(1, m + 1) if m % g == 0 and weights[g % m]):
        flipped = tuple(-w if gcd(e, m) == g else w for e, w in enumerate(weights))
        monkeypatch.setattr(cyclotomic, "_galois_weights",
                            lambda n, flipped=flipped: (den, flipped))
        with pytest.raises(InternalInvariantViolation):
            hom_weight(_fresh_ring(spec))
    monkeypatch.undo()
    assert hom_weight(_fresh_ring(spec)).values == \
        hom_weight(ring_from_spec(spec)).values


# ---------------------------------------------------------------------------
# embeddings


def test_identity_embedding():
    R = ring_from_spec("GR:2,2,2")
    emb = subring_embedding(R, R)
    assert emb.table == tuple(range(R.order))


def test_characteristic_embedding_is_a_ring_hom():
    R = ring_from_spec("GR:3,2,2")
    S = ring_from_spec("Zm:9")
    emb = subring_embedding(S, R)
    t = emb.table
    assert t[0] == 0 and t[1] == R.one
    for a in range(9):
        for b in range(9):
            assert t[(a + b) % 9] == R.add(t[a], t[b])
            assert t[(a * b) % 9] == R.mul(t[a], t[b])


def test_embedding_refuses_a_table_that_is_not_additive():
    R = ring_from_spec("Zm:5")
    table = (0, 1, 3, 2, 4)
    assert embedding_refusal_by_scan(R, R, table) == "embedding not additive at (1,1)"
    with pytest.raises(InvalidParameter) as err:
        SubringEmbedding(R, R, table)
    assert str(err.value) == "embedding not additive at (1,1)"


@pytest.mark.parametrize("bad", [7, 5, -1])
def test_embedding_refuses_a_value_outside_the_ring(bad):
    # -1 would read index -1 of a row and name a false witness
    R = ring_from_spec("Zm:5")
    with pytest.raises(InvalidParameter) as err:
        SubringEmbedding(R, R, (0, 1, 2, 3, bad))
    assert str(err.value) == f"embedding value {bad} out of range for Zm:5"


@settings(max_examples=30, deadline=None)
@given(data=st.data(), spec=st.sampled_from(["Zm:7", "GR:2,1,3", "GR:2,2,2"]),
       additive=st.booleans())
def test_embedding_refusals_match_the_ring_operations(data, spec, additive):
    # GF(8) has additive bijections fixing 1 that are not multiplicative;
    # elsewhere a random table is refused as not additive
    R = ring_from_spec(spec)
    if additive and spec == "GR:2,1,3":
        images = data.draw(st.permutations([2, 3, 4, 5, 6, 7]))
        b2 = images[0]
        b4 = next(v for v in images[1:] if v not in (b2, b2 ^ 1))
        table = tuple((x & 1) ^ (b2 if x & 2 else 0) ^ (b4 if x & 4 else 0)
                      for x in range(8))
    else:
        rest = data.draw(st.permutations([x for x in range(R.order)
                                          if x not in (0, R.one)]))
        it = iter(rest)
        table = tuple(x if x in (0, R.one) else next(it) for x in range(R.order))
    if embedding_refusal_by_scan(R, R, table) is None:
        assert SubringEmbedding(R, R, table).table == table
    else:
        with pytest.raises(InvalidParameter) as err:
            SubringEmbedding(R, R, table)
        assert refusal_names_a_failing_pair(R, R, table, str(err.value))


def test_galois_subring_embedding():
    R = ring_from_spec("GR:2,1,2")   # GF(4) inside nothing bigger here
    S = ring_from_spec("Zm:2")
    emb = subring_embedding(S, R)
    assert len(set(emb.table)) == 2


def test_each_embedding_is_built_once_per_pair(monkeypatch):
    # R keeps the embedding of S under S itself: enumerating the traces and
    # building the named trace share one, and another copy of S gets its own;
    # the galois trace also builds R's Frobenius, once, as a map R -> R
    built = []
    init = SubringEmbedding.__init__

    def counted(self, sub, ring, table, tag="table"):
        built.append((sub, ring, tag))
        init(self, sub, ring, table, tag)

    monkeypatch.setattr(SubringEmbedding, "__init__", counted)
    R, S = make_galois_ring.__wrapped__(2, 1, 4), make_integer_ring.__wrapped__(2)
    maps = enumerate_trace_maps(R, S)
    emb = maps[0].embedding
    assert all(t.embedding is emb for t in maps)
    assert trace_from_spec(R, S, "galois").embedding is emb
    first = [(S, R, "characteristic"), (R, R, "frobenius-1")]
    assert built == first
    other = make_integer_ring.__wrapped__(2)
    assert subring_embedding(other, R) is not emb
    assert built == first + [(other, R, "characteristic")]


# counts every Z_m and every ring map, keyed (S, R, tag), that a fresh
# verify paper builds: 25 embeddings and 7 automorphisms, Frobenius of
# GR:2,2,2, GR:3,2,2, GR:2,3,2, GR:2,1,2 and GR:2,1,3 and swap-xy of FXY:2
# and FXY:3; a fresh interpreter, since the tests before this one fill the
# rings' caches
_VERIFY_BUILDS = """
from collections import Counter
from homring import rings, verify
moduli, maps = Counter(), []
make_zm, embed = rings.IntegerModRing.__init__, rings.SubringEmbedding.__init__

def counted_zm(self, m):
    moduli[m] += 1
    make_zm(self, m)

def counted_map(self, sub, ring, table, tag="table"):
    maps.append((sub.name, ring.name, tag))
    embed(self, sub, ring, table, tag)

rings.IntegerModRing.__init__ = counted_zm
rings.SubringEmbedding.__init__ = counted_map
assert verify.run()["passed"]
autos = sorted(m[1] for m in maps if m[2] in ("frobenius-1", "swap-xy"))
print(set(moduli.values()), len(maps), len(set(maps)), autos)
"""


def test_verify_paper_builds_one_z_m_per_modulus_and_one_embedding_per_pair():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _VERIFY_BUILDS],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("{1} 32 32 ['FXY:2', 'FXY:3', 'GR:2,1,2', 'GR:2,1,3', "
                           "'GR:2,2,2', 'GR:2,3,2', 'GR:3,2,2']\n")


# counts the galois traces that a fresh verify paper keeps and the tables
# it validates: one trace per (R, S) pair, kept in R's cache under
# ("galois", S), so 5 for its 5 pairs, and 26 validations (39 when each
# code built and validated its own trace)
_VERIFY_GALOIS = """
import gc
from homring import rings, traces, verify
checked = []
check = traces.validate_trace

def counted_check(*args):
    checked.append(args[0].name)
    return check(*args)

traces.validate_trace = counted_check
assert verify.run()["passed"]
kept = [(R.name, key[1].name) for R in gc.get_objects() if isinstance(R, rings.Ring)
        for key in R._cache if isinstance(key, tuple) and key[0] == "galois"]
print(len(kept), len(set(kept)), len(checked))
"""


def test_verify_paper_builds_each_galois_trace_once():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", _VERIFY_GALOIS],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5 5 26\n"


def test_a_galois_trace_is_kept_per_pair_and_a_refused_pair_is_not():
    R = make_galois_ring.__wrapped__(2, 2, 2)
    S = ring_from_spec("Zm:4")
    trace = galois_trace(R, S)
    assert trace_from_spec(R, S, "galois") is trace
    assert galois_trace(R) is galois_trace(R, R) is not trace
    other = make_integer_ring.__wrapped__(4)
    assert galois_trace(R, other) is not trace
    assert galois_trace(R, other).values == trace.values
    bad = ring_from_spec("Zm:2")
    for _ in range(2):
        with pytest.raises(InvalidParameter, match="does not embed"):
            galois_trace(R, bad)
    assert ("galois", bad) not in R._cache


def test_a_pair_with_no_embedding_is_refused_before_the_enumeration_budget():
    R, S = ring_from_spec("GR:2,2,2"), ring_from_spec("Zm:2")
    for _ in range(2):   # a refusal is not kept
        with pytest.raises(InvalidParameter, match="does not embed"):
            enumerate_trace_maps(R, S, budget=1)
    assert ("embedding", S) not in R._cache


# ---------------------------------------------------------------------------
# trace validation


def test_galois_trace_is_valid_and_surjective():
    R = ring_from_spec("GR:2,2,2")
    S = ring_from_spec("Zm:4")
    tr = galois_trace(R, S)
    assert set(tr.values) == set(range(4))
    # additive
    for a in range(R.order):
        for b in range(R.order):
            assert tr(R.add(a, b)) == (tr(a) + tr(b)) % 4


def test_validate_trace_reports_failures_in_order():
    R = ring_from_spec("Zm:4")
    emb = subring_embedding(R, R)
    # constant-zero table: additive, but kills the whole ring and misses 1
    rep = validate_trace(R, R, emb, [0, 0, 0, 0])
    assert not rep.ok
    codes = [f["code"] for f in rep.failures]
    assert codes == ["KernelContainsIdeal", "NotSurjective"]
    # non-additive table
    rep2 = validate_trace(R, R, emb, [0, 1, 1, 1])
    assert [f["code"] for f in rep2.failures][0] == "NotLinear"
    assert "a" in rep2.failures[0]["witness"]


def _validate_trace_by_scan(ring, sub, embedding, values):
    """The three trace conditions checked on every pair a <= b and every
    (s, a), reported like ``validate_trace``: the oracle for its checks on
    additive generators."""
    n = ring.order
    aot, mot = ring.add_table(), ring.mul_table()
    aos, mos = sub.add_table(), sub.mul_table()
    failures = []
    witness = None
    for a in range(n):
        for b in range(a, n):
            if witness is None and values[aot[a][b]] != aos[values[a]][values[b]]:
                witness = {"kind": "additive", "a": a, "b": b}
    for s in range(sub.order):
        for a in range(n):
            if witness is None and values[mot[embedding.table[s]][a]] != mos[s][values[a]]:
                witness = {"kind": "scalar", "s": s, "a": a}
    if witness is not None:
        failures.append({"code": "NotLinear", "witness": witness})
    bad = next((x for x in range(1, n)
                if all(values[rx] == 0 for rx in mot[x])), None)
    if bad is not None:
        failures.append({"code": "KernelContainsIdeal",
                         "witness": {"ideal_generator": bad}})
    missing = next((s for s in range(sub.order) if s not in values), None)
    if missing is not None:
        failures.append({"code": "NotSurjective", "witness": {"missing": missing}})
    return {"valid": not failures, "failures": failures}


def _frobenius_of(ring):
    return frobenius(ring).table


# (R, S, table): traces, and additive maps that are not S-linear
TRACE_BASES = [
    ("GR:2,2,2", "Zm:4", lambda R, S: galois_trace(R, S).values),
    ("GR:2,1,3", "Zm:2", lambda R, S: galois_trace(R, S).values),
    ("GR:3,2,2", "Zm:9", lambda R, S: galois_trace(R, S).values),
    ("GR:2,1,4", "GR:2,1,2", lambda R, S: galois_trace(R, S).values),
    ("FXY:2", "Zm:2", lambda R, S: fxy_sum_trace(R, S).values),
    ("Z4X", "Zm:4", lambda R, S: z4x_trace(R, S, 0, 1).values),
    ("Zm:12", "Zm:12", lambda R, S: tuple(range(12))),
    ("GR:2,1,3", "GR:2,1,3", lambda R, S: _frobenius_of(R)),
    ("GR:2,2,2", "GR:2,2,2", lambda R, S: _frobenius_of(R)),
    ("FXY:2", "FXY:2", lambda R, S: swap_xy(R).table),
    ("GR:2,1,4", "GR:2,1,2",
     lambda R, S: tuple(_frobenius_of(S)[v] for v in galois_trace(R, S).values)),
]


@st.composite
def _perturbed_traces(draw):
    ring_spec, sub_spec, base = draw(st.sampled_from(TRACE_BASES))
    R = ring_from_spec(ring_spec)
    S = R if sub_spec == ring_spec else ring_from_spec(sub_spec)
    values = list(base(R, S))
    kind = draw(st.sampled_from(["points", "cosets", "scale"]))
    if kind == "points":
        for _ in range(draw(st.integers(0, 3))):
            values[draw(st.integers(0, R.order - 1))] = draw(st.integers(0, S.order - 1))
    elif kind == "cosets":
        # add c on some cosets of <g> other than <g> itself: T(x + g) =
        # T(x) + T(g) still holds for the first generator g, not for all
        aot = R.add_table()
        g = R._additive_span()[0][0]
        c = draw(st.integers(1, S.order - 1))
        shifted = set()
        for x in range(R.order):
            if x in shifted or not draw(st.booleans()):
                continue
            y = x
            while y not in shifted:
                shifted.add(y)
                y = aot[y][g]
        line, y = set(), 0
        while y not in line:
            line.add(y)
            y = aot[y][g]
        for x in shifted - line:
            values[x] = S.add(values[x], c)
    else:
        s = draw(st.integers(0, S.order - 1))
        values = [S.mul(s, v) for v in values]
    return R, S, tuple(values)


@settings(max_examples=150, deadline=None)
@given(case=_perturbed_traces())
def test_generator_checks_refuse_exactly_when_the_full_scan_does(case):
    R, S, values = case
    emb = subring_embedding(S, R)
    assert validate_trace(R, S, emb, values).to_dict() == \
        _validate_trace_by_scan(R, S, emb, values)


def test_invalid_trace_raises_with_primary():
    R = ring_from_spec("Zm:4")
    with pytest.raises(ValidationFailed) as err:
        table_trace(R, R, [0, 0, 0, 0])
    assert err.value.primary == "KernelContainsIdeal"
    assert err.value.exit_code == 5


def test_a_trace_table_without_a_report_is_checked_for_length_and_range():
    # a report vouches for its values; without one, a table with a value
    # outside S or a missing entry is refused before it is validated
    R, S = ring_from_spec("GR:2,2,2"), ring_from_spec("Zm:4")
    emb = subring_embedding(S, R)
    good = galois_trace(R, S).values
    with pytest.raises(InvalidParameter, match="trace value 4 out of range for Zm:4"):
        TraceMap(R, S, emb, good[:-1] + (4,))
    with pytest.raises(InvalidParameter, match="15 entries, expected 16"):
        TraceMap(R, S, emb, good[:-1])
    assert TraceMap(R, S, emb, good).report.ok


def test_identity_trace_needs_matching_rings():
    R = ring_from_spec("GR:2,2,2")
    S = ring_from_spec("Zm:4")
    with pytest.raises(InvalidParameter):
        trace_from_spec(R, S, "identity")
    assert trace_from_spec(R, R, "identity").values == tuple(range(R.order))


def test_z4x_traces():
    R = ring_from_spec("Z4X")
    S = ring_from_spec("Zm:4")
    for l1 in (1, 3):
        tr = z4x_trace(R, S, 0, l1)
        assert set(tr.values) == set(range(4))
    for l1 in (0, 2):
        with pytest.raises(ValidationFailed):
            z4x_trace(R, S, 0, l1)
    with pytest.raises(InvalidParameter):
        z4x_trace(R, R, 0, 1)
    with pytest.raises(UnknownPreset):
        z4x_trace(ring_from_spec("FXY:2"), S, 0, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_fxy_sum_trace_is_valid(p):
    R = ring_from_spec(f"FXY:{p}")
    S = ring_from_spec(f"Zm:{p}")
    tr = fxy_sum_trace(R, S)
    assert tr.report.ok
    assert tr(R.one) == 1


def test_trace_spec_grammar(tmp_path):
    R = ring_from_spec("GR:2,2,2")
    S = ring_from_spec("Zm:4")
    assert trace_from_spec(R, S, "galois").tag == "galois"
    path = tmp_path / "trace.txt"
    tr = galois_trace(R, S)
    path.write_text("".join(f"{a} {v}\n" for a, v in enumerate(tr.values)))
    assert trace_from_spec(R, S, f"table:{path}").values == tr.values
    with pytest.raises(UnknownPreset):
        trace_from_spec(R, S, "mystery")
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 0\n")
    with pytest.raises(ParseError):
        trace_from_spec(R, S, f"table:{bad}")


# ---------------------------------------------------------------------------
# enumeration


def test_enumerated_traces_are_closed_under_unit_postcomposition():
    R = ring_from_spec("GR:2,2,2")
    S = ring_from_spec("Zm:4")
    maps = enumerate_trace_maps(R, S)
    tables = {t.values for t in maps}
    assert tables
    for t in maps:
        for u in S.units():
            assert tuple(S.mul(u, v) for v in t.values) in tables


def test_z4x_trace_census_matches_the_closed_description():
    R = ring_from_spec("Z4X")
    S = ring_from_spec("Zm:4")
    maps = enumerate_trace_maps(R, S)
    assert len(maps) == 8
    expected = {z4x_trace(R, S, l0, l1).values
                for l0 in range(4) for l1 in (1, 3)}
    assert {t.values for t in maps} == expected


@pytest.mark.parametrize("ring_spec,sub_spec", [
    ("GR:2,2,2", "Zm:4"), ("GR:3,2,2", "Zm:9"), ("GR:2,1,4", "Zm:2"),
    ("GR:2,2,3", "Zm:4")])
def test_galois_census_is_the_unit_twists_without_a_witness_scan(
        monkeypatch, ring_spec, sub_spec):
    # the traces of a Galois ring onto its base ring are x -> T(lam*x) over
    # the units lam, listed without a witness scan
    def no_scan(*args):
        raise AssertionError("the witness scan ran")

    monkeypatch.setattr(traces, "_linearity_witness", no_scan)
    R, S = ring_from_spec(ring_spec), ring_from_spec(sub_spec)
    base = galois_trace(R, S).values
    twists = {tuple(base[R.mul(lam, x)] for x in range(R.order)) for lam in R.units()}
    maps = enumerate_trace_maps(R, S)
    assert [t.values for t in maps] == sorted(twists)
    assert all(t.report.ok for t in maps)


def _orbit_pairs() -> list:
    """A census of small pairs, with the five pairs of the paper-census
    benchmark among them, every Galois subring pair of EMBEDDING_GRID, and
    each SETUP_GRID ring over itself and over Z_char."""
    pairs = [
        ("Zm:4", "Zm:4"), ("Zm:6", "Zm:6"), ("Zm:9", "Zm:9"),
        ("GR:2,1,2", "Zm:2"), ("GR:2,1,3", "Zm:2"), ("GR:2,2,2", "Zm:4"),
        ("GR:2,2,2", "GR:2,2,2"), ("GR:3,2,2", "Zm:9"), ("FXY:2", "Zm:2"),
        ("FXY:3", "Zm:3"), ("Z4X", "Zm:4"), ("GR:2,1,6", "Zm:2"),
        ("GR:2,2,3", "Zm:4")]
    pairs += [(f"GR:{p},{n},{r}", f"GR:{p},{n},{s}") for p, n, r in EMBEDDING_GRID
              for s in range(1, r) if r % s == 0]
    for spec in SETUP_GRID:
        pairs += [(spec, spec),
                  (spec, f"Zm:{ring_from_spec(spec).characteristic()}")]
    return list(dict.fromkeys(pairs))


@pytest.mark.parametrize("ring_spec,sub_spec", _orbit_pairs())
def test_the_unit_orbit_is_every_trace_of_the_search(ring_spec, sub_spec):
    R, S = ring_from_spec(ring_spec), ring_from_spec(sub_spec)
    maps = enumerate_trace_maps(R, S)
    assert [t.values for t in maps] == traces_by_search(R, S)
    assert len(maps) == len(R.units())


def test_an_orbit_over_all_of_r_is_not_the_search(monkeypatch):
    # a non-unit a makes x -> T0(a*x) no trace, yet every a in R gives its
    # own table, so the count check passes and only the search tells
    R, S = ring_from_spec("GR:2,2,2"), ring_from_spec("Zm:4")
    monkeypatch.setattr(R, "units", lambda: tuple(range(R.order)))
    maps = enumerate_trace_maps(R, S)
    assert len(maps) == R.order
    assert [t.values for t in maps] != traces_by_search(R, S)


def test_the_search_names_a_generator_that_its_span_misses():
    # with 1*x = 0 in the cached mul table, x never enters the S-module
    # span: the search names x instead of picking it again for ever
    R, S = fxy_ring.__wrapped__(2), ring_from_spec("Zm:2")   # R outside the cache
    R._cache["mul_table"] = [list(row) for row in R.mul_table()]
    R._cache["mul_table"][1][2] = 0
    with pytest.raises(InternalInvariantViolation,
                       match="span of FXY:2 misses its generator 2"):
        traces_by_search(R, S)


def test_a_named_trace_with_an_ideal_in_its_kernel_trips_the_count_check(
        monkeypatch):
    # 2*T kills the ideal 2R, so units equal mod 2R give one table: the 12
    # units of GR:2,2,2 give the 3 of F_4
    R, S = ring_from_spec("GR:2,2,2"), ring_from_spec("Zm:4")
    good = galois_trace(R, S)
    doubled = TraceMap(R, S, good.embedding, [S.add(v, v) for v in good.values],
                       report=TraceReport(True, []))
    monkeypatch.setattr(traces, "_named_trace", lambda ring, sub: doubled)
    with pytest.raises(InternalInvariantViolation,
                       match=r"has 3 tables, not one per unit \(12\)"):
        enumerate_trace_maps(R, S)


def test_enumeration_budget(monkeypatch):
    # 16 lookups for each value of the 12 tables of 16 values on GR:2,2,2
    R = ring_from_spec("GR:2,2,2")
    with pytest.raises(BudgetExceeded, match="trace enumeration needs about 3072 "):
        enumerate_trace_maps(R, R, budget=3071)
    assert len(enumerate_trace_maps(R, R, budget=3072)) == len(R.units())
    monkeypatch.setenv("HOMRING_BUDGET", "3071")
    with pytest.raises(BudgetExceeded):
        enumerate_trace_maps(R, R)
    monkeypatch.setenv("HOMRING_BUDGET", "zero")
    with pytest.raises(InvalidParameter):
        enumerate_trace_maps(R, R)


# ---------------------------------------------------------------------------
# characters


@pytest.mark.parametrize("spec", ["Zm:4", "Zm:6", "GR:2,2,2", "FXY:2", "Z4X"])
def test_canonical_character_is_generating(spec):
    R = ring_from_spec(spec)
    chi = canonical_character(R)
    # chi sums to zero over R ...
    counts = [0] * chi.conductor
    for a in range(R.order):
        counts[chi.exps[a]] += 1
    assert CyclotomicVector.from_exponent_counts(chi.conductor, counts).to_rational() == 0
    # ... and is nontrivial on every nonzero principal ideal
    mot = R.mul_table()
    for y in range(1, R.order):
        ideal = set(mot[y])
        assert any(chi.exps[a] != 0 for a in ideal)


def _named_traces(R):
    """The identity trace, and the galois, fxy-sum or z4x traces onto Z_c,
    c the characteristic."""
    S = make_integer_ring(R.characteristic())
    if isinstance(R, GaloisRing):
        return [identity_trace(R), galois_trace(R, S)]
    if getattr(R, "preset", None) == "fxy":
        return [identity_trace(R), fxy_sum_trace(R, S)]
    if getattr(R, "preset", None) == "z4x":
        return [identity_trace(R)] + [z4x_trace(R, S, l0, l1)
                                      for l0 in range(4) for l1 in (1, 3)]
    return [identity_trace(R)]


@pytest.mark.parametrize("spec", SETUP_GRID)
def test_characters_are_additive_and_generating_by_the_full_scan(spec):
    # Character checks nothing: each is Phi o T for a validated trace T
    R = ring_from_spec(spec)
    chi = canonical_character(R)
    assert character_scan(R, chi.conductor, chi.exps) is None
    for tr in _named_traces(R):
        chi = generating_character(tr)
        assert character_scan(R, chi.conductor, chi.exps) is None, tr.tag


@pytest.mark.parametrize("ring_spec,sub_spec", [
    ("Zm:12", "Zm:12"), ("GR:2,1,3", "Zm:2"), ("GR:2,2,2", "Zm:4"),
    ("GR:2,2,2", "GR:2,2,2"), ("FXY:2", "Zm:2"), ("Z4X", "Zm:4"),
])
def test_enumerated_characters_are_additive_and_generating_by_the_full_scan(
        ring_spec, sub_spec):
    R, S = ring_from_spec(ring_spec), ring_from_spec(sub_spec)
    traces = enumerate_trace_maps(R, S)
    assert traces
    for tr in traces:
        chi = generating_character(tr)
        assert character_scan(R, chi.conductor, chi.exps) is None, tr.tag


def test_the_character_scan_refuses_what_is_not_a_character():
    R = ring_from_spec("GR:2,2,2")
    chi = canonical_character(R)
    two = element_from_int(R, 2)
    # x -> chi(2x) is additive and vanishes on the ideal 2R
    exps = [chi.exps[R.mul(two, x)] for x in range(R.order)]
    assert character_scan(R, 4, exps) == "generating"
    exps[1] = (exps[1] + 1) % 4
    assert character_scan(R, 4, exps) == "additive"


def test_generating_character_factors_through_the_trace():
    R = ring_from_spec("GR:2,2,2")
    S = ring_from_spec("Zm:4")
    tr = galois_trace(R, S)
    chi = generating_character(tr)
    phi = canonical_character(S)
    assert chi.conductor == phi.conductor == 4
    assert all(chi.exps[a] == phi.exps[tr(a)] for a in range(R.order))


@pytest.mark.parametrize("spec", SETUP_GRID)
def test_unit_histograms_and_sums_are_found_per_orbit(spec):
    # hom_weight reads one histogram per unit orbit of the canonical
    # character; every generating character has the same unit sums, so each
    # one's per-element sums must give its numerators
    R = ring_from_spec(spec)
    values = list(hom_weight(R, 1).values)
    for chi in [canonical_character(R)] + [generating_character(tr)
                                           for tr in _named_traces(R)]:
        assert _numerators_by_field_reduction(chi) == values, chi.tag


def test_char_fixed_by(z4x_conjugation):
    R = ring_from_spec("GR:2,2,2")
    frob = frobenius(R)
    S = ring_from_spec("Zm:4")
    chi = generating_character(galois_trace(R, S))
    assert char_fixed_by(chi, frob)
    # the canonical chain on a Galois ring goes through the Galois trace,
    # which Frobenius permutes termwise
    assert char_fixed_by(canonical_character(R), frob)
    Z = ring_from_spec("Z4X")
    assert not char_fixed_by(canonical_character(Z), z4x_conjugation)
