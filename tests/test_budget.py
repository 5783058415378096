"""The work budget: each stage's estimate against the table reads it
predicts, the refusals it makes, and the Galois subring embeddings.

Reads are counted by wrapping a ring's add, mul and sub tables in lists
that count every index and every element iterated, so ``aot[a][b]`` counts
two.  Each budget check is recorded with the reads made so far; the reads
from one check to the next belong to the stage the first one admitted."""

import json
import random
import time

import pytest

from homring import codes, graphs, rings, traces
from homring.budget import DEFAULT_BUDGET, check_budget
from homring.cli import main
from homring.codes import build_code, function_from_spec, table_map, weight_enumerator
from homring.errors import BudgetExceeded, InvalidParameter
from homring.graphs import (connected_components, is_modular, srg_check,
                            two_weight_graph)
from homring.rings import (fxy_ring, make_galois_ring, make_integer_ring,
                           parse_ring_spec_parts, ring_from_spec,
                           subring_embedding, z4x_ring)
from homring.traces import enumerate_trace_maps, galois_trace, trace_from_spec
from homring.weights import cyclic_submodules, hamming_table, hom_weight

from ring_oracle import EMBEDDING_GRID

# every stage reads at most this many table cells per lookup it estimates
FACTOR = 8

READS = [0]


class _Counted(list):
    """A table, or a row of one, that counts its reads."""

    def __getitem__(self, i):
        READS[0] += 1
        return list.__getitem__(self, i)

    def __iter__(self):
        READS[0] += len(self)
        return list.__iter__(self)


def _count_reads(monkeypatch, *rings_):
    """Swap each ring's tables for counting copies, until the test ends."""
    for ring in rings_:
        for key in ("add_table", "mul_table", "sub_table"):
            table = getattr(ring, key)()
            monkeypatch.setitem(ring._cache, key, _Counted(map(_Counted, table)))


def _record_checks(monkeypatch) -> list:
    """Record (stage, estimate, reads so far) at every budget check."""
    checks = []

    def record(stage, estimate, budget=None):
        checks.append((stage, estimate, READS[0]))
        check_budget(stage, estimate, budget)

    for module in (rings, traces, codes, graphs):
        monkeypatch.setattr(module, "check_budget", record)
    return checks


def _stages(checks) -> list:
    """(stage, estimate, reads from its check to the next check or now)."""
    ends = [reads for _, _, reads in checks[1:]] + [READS[0]]
    return [(stage, estimate, end - start)
            for (stage, estimate, start), end in zip(checks, ends)]


def _assert_bounded(stages, names):
    assert [stage for stage, _, _ in stages] == names
    for stage, estimate, reads in stages:
        assert reads <= FACTOR * estimate, (stage, estimate, reads)


# ---------------------------------------------------------------------------
# each estimate bounds its stage's reads


def _fresh_ring(spec):
    """A ring built anew, outside the constructors' caches."""
    family, params = parse_ring_spec_parts(spec)
    build = {"zm": make_integer_ring, "galois": make_galois_ring,
             "fxy": fxy_ring, "z4x": z4x_ring}[family]
    return build.__wrapped__(*params)


@pytest.mark.parametrize("spec", ["Zm:2", "Zm:12", "Zm:64", "Zm:101",
                                  "GR:2,1,6", "GR:2,2,3", "GR:3,2,2", "FXY:2",
                                  "FXY:3", "Z4X"])
def test_ring_set_up_is_bounded_by_its_estimate(spec, monkeypatch):
    # what a weight table or ring info job builds and reads on its ring:
    # the stored cells of the tables and cyclic submodules, and the reads
    # of the structure and the weight table made from them
    checks = _record_checks(monkeypatch)
    ring_from_spec(spec)
    stage, estimate, _ = checks[-1]
    assert stage == "ring set-up"
    R = _fresh_ring(spec)
    cells = sum(len(row) for key in ("add_table", "mul_table", "sub_table")
                for row in getattr(R, key)())
    _count_reads(monkeypatch, R)
    start = READS[0]
    R.characteristic()
    R.radical()
    R.socle()
    if R.is_local():
        R.teichmuller()
    hom_weight(R, 1)
    cells += sum(map(len, cyclic_submodules(R)[1]))
    assert cells + READS[0] - start <= FACTOR * estimate


@pytest.mark.parametrize("ring_spec,sub_spec", [
    ("Zm:12", "Zm:12"), ("GR:2,1,6", "Zm:2"), ("GR:2,2,3", "Zm:4"),
    ("GR:3,2,2", "Zm:9"), ("GR:2,2,2", "GR:2,2,2"), ("GR:2,1,6", "GR:2,1,3"),
    ("FXY:2", "Zm:2"), ("FXY:3", "Zm:3"), ("Z4X", "Zm:4"),
])
def test_trace_enumeration_is_bounded_by_its_estimate(ring_spec, sub_spec,
                                                       monkeypatch):
    R, S = ring_from_spec(ring_spec), ring_from_spec(sub_spec)
    _count_reads(monkeypatch, R, S)
    checks = _record_checks(monkeypatch)
    maps = enumerate_trace_maps(R, S)
    stages = _stages(checks)
    _assert_bounded(stages, ["trace enumeration"])
    # TABLE_CELL lookups for each value of the tables a trace list reports
    assert stages[0][1] == traces.TABLE_CELL * sum(len(t.values) for t in maps)


@pytest.mark.parametrize("spec,lookups", [
    ("Zm:2039", 16 * 2038 * 2039), ("GR:2,1,11", 16 * 2047 * 2048),
])
def test_a_large_trace_list_is_refused_before_the_enumeration(spec, lookups, capsys,
                                                              monkeypatch):
    # unrefused, either list peaked near 490 MB (Zm:2039: 2038 tables of 2039
    # values, a 56 MB report)
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the named trace was built")
    monkeypatch.setattr(traces, "_named_trace", no_enumeration)
    code, out, err = _run(capsys, ["trace", "list", "--ring", spec])
    assert (code, out) == (8, "")
    assert err == (f"error: trace enumeration needs about {lookups} table lookups, "
                   f"over the budget of {DEFAULT_BUDGET}; raise it with "
                   "--budget or HOMRING_BUDGET\n")


def _random_table(spec, seed):
    R = ring_from_spec(spec)
    rng = random.Random(seed)
    return table_map(R, [rng.randrange(R.order) for _ in range(R.order)])


CODES = [
    ("Zm:13", "Zm:13", "identity", "pow:3", "hamming"),
    ("Zm:12", "Zm:12", "identity", "pow:2", "homogeneous"),
    ("Zm:10", "Zm:10", "identity", "pow:3", "homogeneous"),
    ("GR:2,1,6", "Zm:2", "galois", "pow:3", "homogeneous"),
    ("GR:2,1,5", "Zm:2", "galois", None, "homogeneous"),
    ("GR:2,2,2", "Zm:4", "galois", "frank:id", "homogeneous"),
    ("GR:3,2,2", "Zm:9", "galois", "frank:rand:7", "homogeneous"),
    ("GR:2,1,6", "GR:2,1,3", "galois", "pow:3", "homogeneous"),
    ("FXY:2", "FXY:2", "identity", "sigmaquad:swapxy", "hamming"),
    ("Z4X", "Zm:4", "z4x:0,1", "pow:2", "homogeneous"),
]


def _code_parts(ring_spec, sub_spec, trace_spec, f_spec, weight):
    R, S = ring_from_spec(ring_spec), ring_from_spec(sub_spec)
    f = (_random_table(ring_spec, 5) if f_spec is None
         else function_from_spec(R, f_spec))
    table = hamming_table(S) if weight == "hamming" else hom_weight(S, 1)
    return R, S, trace_from_spec(R, S, trace_spec), f, table


@pytest.mark.parametrize("spec", CODES)
def test_kernel_labelling_and_weighing_are_bounded_by_their_estimates(
        spec, monkeypatch):
    R, S, trace, f, table = _code_parts(*spec)
    _count_reads(monkeypatch, R, S)
    checks = _record_checks(monkeypatch)
    weight_enumerator(build_code(R, S, trace, f), table)
    _assert_bounded(_stages(checks),
                    ["kernel and orbit labelling", "orbit weighing"])
    # the weighing reads every cell it charges
    (_, estimate, reads), = _stages(checks)[1:]
    assert reads >= estimate


@pytest.mark.parametrize("spec", [
    ("Zm:5", "Zm:5", "identity", "pow:3", "hamming"),
    ("Zm:23", "Zm:23", "identity", "pow:3", "hamming"),
    ("Zm:10", "Zm:10", "identity", "pow:3", "homogeneous"),
    ("Zm:26", "Zm:26", "identity", "pow:5", "homogeneous"),
])
def test_graph_is_bounded_by_its_estimate(spec, monkeypatch):
    R, S, trace, f, table = _code_parts(*spec)
    _count_reads(monkeypatch, R, S)
    checks = _record_checks(monkeypatch)
    graph = two_weight_graph(build_code(R, S, trace, f), table)
    srg_check(graph)
    connected_components(graph)
    is_modular(R, enumerate(f.table))
    _assert_bounded(_stages(checks),
                    ["kernel and orbit labelling", "orbit weighing", "graph"])


# ---------------------------------------------------------------------------
# refusals


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_info_on_a_large_ring_is_refused_before_its_tables(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["ring", "info", "--ring", "Zm:100000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (8, "")
    assert err == ("error: ring set-up needs about 80000000000 table lookups, "
                   f"over the budget of {DEFAULT_BUDGET}; raise it with "
                   "--budget or HOMRING_BUDGET\n")
    assert "add_table" not in ring_from_spec("Zm:100000", 10**11)._cache


def test_a_huge_spec_is_refused_before_its_estimate_is_built(capsys):
    # 8 * 3^(2 * 10^7), about 3.2 * 10^7 bits, took 8 s to build; its floor
    # 2^(2 * 10^7 + 3) is over the budget already
    start = time.perf_counter()
    code, out, err = _run(capsys, ["ring", "info", "--ring", "GR:3,1,10000000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (8, "")
    assert err == ("error: ring set-up needs at least 2^20000003 table lookups, "
                   f"over the budget of {DEFAULT_BUDGET}; raise it with "
                   "--budget or HOMRING_BUDGET\n")


@pytest.mark.parametrize("spec,budget_bits,about", [
    # 8 * m^(2k) >= 2^(2k * (bit_length(m) - 1) + 3), equal for m = 2^e
    ("GR:2,1,10000000000", None, "about 2^20000000003"),
    ("GR:3,1,7000", None, "at least 2^14003"),
    # under 14000 bits of floor, or a budget over it, the estimate is built
    ("GR:3,1,6998", None, f"about 2^{(8 * 3**13996).bit_length() - 1}"),
    ("GR:3,1,7000", 14100, f"about 2^{(8 * 3**14000).bit_length() - 1}"),
])
def test_a_set_up_estimate_past_14000_bits_is_named_by_a_power_of_two(
        spec, budget_bits, about):
    budget = None if budget_bits is None else 2**budget_bits
    with pytest.raises(BudgetExceeded) as err:
        ring_from_spec(spec, budget)
    assert str(err.value).startswith(f"ring set-up needs {about} table lookups")


def test_an_over_budget_galois_ring_is_refused_before_its_modulus_search(
        capsys, monkeypatch):
    # the charge is read off the spec: GR:2,1,100 searched for its modulus
    # for about 37 s when it was charged on the built ring
    def no_search(p, r):
        raise AssertionError("the modulus search ran")

    monkeypatch.setattr(rings, "_smallest_generator_poly", no_search)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["ring", "info", "--ring", "GR:2,1,100"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (8, "")
    assert err == (f"error: ring set-up needs about {8 * 2**200} table lookups, "
                   f"over the budget of {DEFAULT_BUDGET}; raise it with "
                   "--budget or HOMRING_BUDGET\n")


@pytest.mark.parametrize("spec,code,message", [
    # over the budget: refused before the builder checks the parameters
    ("GR:4,1,100", 8, "ring set-up needs about"),
    ("FXY:8", 8, "ring set-up needs about 134217728 "),
    ("GR:2,1,8000", 8, "ring set-up needs about 2^16003 "),
    # within it, or not positive: the builder refuses
    ("GR:4,1,2", 2, "GR needs a prime p, got 4"),
    ("FXY:4", 2, "FXY needs a prime p, got 4"),
    ("GR:2,0,3", 2, "GR needs n >= 1 and r >= 1"),
    ("GR:2,-1,3", 2, "GR needs n >= 1 and r >= 1"),
    ("Zm:0", 2, "Zm needs modulus >= 2"),
])
def test_the_set_up_charge_comes_before_the_builder(spec, code, message, capsys):
    got, out, err = _run(capsys, ["ring", "info", "--ring", spec])
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {message}"), err


@pytest.mark.parametrize("command", ["analyze", "graph"])
def test_a_code_job_over_budget_is_refused_before_any_table(
        command, capsys, monkeypatch):
    # 16 |R|^2 needs only |R|: no trace, function or table is built first
    def no_table(self):
        raise AssertionError("a table was built")
    monkeypatch.setattr(rings.Ring, "mul_table", no_table)
    code, out, err = _run(capsys, ["code", command, "--ring", "Zm:2048",
                                   "--f", "pow:3"])
    assert (code, out) == (8, "")
    assert err == ("error: kernel and orbit labelling needs about 67108864 table "
                   f"lookups, over the budget of {DEFAULT_BUDGET}; raise it with "
                   "--budget or HOMRING_BUDGET\n")


def test_a_map_without_symmetry_on_gr_2_9_is_refused_before_weighing(
        capsys, tmp_path):
    # 2^18 codewords, each its own orbit, would be weighed at 512 lookups:
    # about 33 s; labelling them finds that first
    rng = random.Random(9)
    table = tmp_path / "f.txt"
    table.write_text("".join(f"{x} {rng.randrange(512)}\n" for x in range(512)))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["code", "analyze", "--ring", "GR:2,1,9",
                                   "--subring", "Zm:2", "--trace", "galois",
                                   "--f", f"table:{table}"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (8, "")
    assert err == ("error: orbit weighing needs about 134217728 table lookups, "
                   f"over the budget of {DEFAULT_BUDGET}; raise it with "
                   "--budget or HOMRING_BUDGET\n")


def test_the_environment_budget_must_be_a_positive_integer(monkeypatch):
    for value in ("ten", "0", "-5"):
        monkeypatch.setenv("HOMRING_BUDGET", value)
        with pytest.raises(InvalidParameter, match="HOMRING_BUDGET"):
            check_budget("a stage", 1)
    monkeypatch.setenv("HOMRING_BUDGET", "7")
    check_budget("a stage", 7)
    with pytest.raises(BudgetExceeded, match="a stage needs about 8 "):
        check_budget("a stage", 8)
    # an explicit budget wins over the environment
    check_budget("a stage", 8, budget=8)


# ---------------------------------------------------------------------------
# Galois subrings

@pytest.mark.parametrize("p,n,r", EMBEDDING_GRID)
def test_every_galois_subring_embeds_and_has_a_galois_trace(p, n, r):
    R = make_galois_ring(p, n, r)
    for s in [s for s in range(1, r) if r % s == 0]:
        S = make_galois_ring(p, n, s)
        emb = subring_embedding(S, R)   # checked to be a ring homomorphism
        trace = galois_trace(R, S)      # checked to be a trace map
        # S is fixed by the Frobenius power that defines T, so T(e(a)) = (r/s)*a
        k = S.add_table()
        for a in range(S.order):
            want = 0
            for _ in range(r // s):
                want = k[want][a]
            assert trace.values[emb.table[a]] == want, (S.name, a)


def test_gr_2_3_embeds_in_gr_2_6_through_another_root(capsys):
    # eta = xi^9 is not a root of x^3 + x + 1, the modulus of GR(2, 3)
    code, out, _ = _run(capsys, ["code", "analyze", "--ring", "GR:2,1,6",
                                 "--subring", "GR:2,1,3", "--trace", "galois",
                                 "--f", "pow:3"])
    assert code == 0
    report = json.loads(out)
    assert report["size"] == sum(r["count"] for r in report["enumerator"])
