"""Two-weight graphs, strong regularity, components, modularity."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homring import codes
from homring.cli import main
from homring.codes import build_code, function_from_spec
from homring.errors import InvalidParameter, NotTwoWeight
from homring.graphs import (SRGFailure, SRGParams, connected_components,
                            is_modular, srg_check, two_weight_graph)
from homring.rings import ring_from_spec
from homring.traces import identity_trace, trace_from_spec
from homring.weights import WeightTable, hamming_table, hom_weight

from codeword_oracle import sorted_codewords

F = Fraction


def _code(ring_spec, f_spec):
    R = ring_from_spec(ring_spec)
    tr = identity_trace(R)
    f = function_from_spec(R, f_spec)
    return build_code(R, R, tr, f)


def _pair(value):
    """A rational as the reduced (num, den) pair the library returns."""
    value = F(value)
    return value.numerator, value.denominator


def _all_pairs_graph(code, table):
    """w1 and the adjacency bitmasks of the two-weight graph, found by
    comparing every pair of swept codewords coordinate by coordinate, in
    sorted order, at O(|C|^2 |R|): the reference for the Cayley graph."""
    den, scaled = table.den, table.values
    sub = code.sub.sub_table()
    cws = [cw for cw, _ in sorted_codewords(code)]
    w1 = min(sum(scaled[s] for s in cw) for cw in cws if any(cw))
    n = len(cws)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if sum(scaled[sub[a][b]] for a, b in zip(cws[i], cws[j])) == w1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return _pair(F(w1, den)), masks


def _cayley_masks(graph):
    """The Cayley graph's adjacency spelled out: c' is in the row of c iff
    the pair of c' minus the pair of c is a member of D, with the swept
    codewords' least pairs in sorted order."""
    sub = graph.code.ring.sub_table()
    pairs = [pair for _, pair in sorted_codewords(graph.code)]
    return [sum(1 << j for j, (a2, b2) in enumerate(pairs)
                if graph.member[sub[a2][a]][sub[b2][b]])
            for a, b in pairs]


def _all_pairs_srg(masks):
    """srg_check by scanning every pair of rows: the reference for the scan
    from vertex 0, and the check that hand-built graphs go through."""
    n = len(masks)
    degs = [m.bit_count() for m in masks]
    k = degs[0] if n else 0
    for i, d in enumerate(degs):
        if d != k:
            return SRGFailure("NotRegular", {"vertex": i, "degree": d, "expected": k})
    lam = mu = None
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            common = (mi & masks[j]).bit_count()
            if (mi >> j) & 1:
                if lam is None:
                    lam = common
                elif common != lam:
                    return SRGFailure("LambdaVaries",
                                      {"pair": (i, j), "common": common, "expected": lam})
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    return SRGFailure("MuVaries",
                                      {"pair": (i, j), "common": common, "expected": mu})
    complete = lam is not None and mu is None
    edgeless = lam is None and k == 0
    lam = lam or 0
    mu = mu or 0
    return SRGParams(n, k, lam, mu, complete or edgeless or mu == 0)


def _all_pairs_components(masks):
    """Component sizes in discovery order, by breadth-first search over the
    bitmasks."""
    seen = 0
    sizes = []
    for s in range(len(masks)):
        if (seen >> s) & 1:
            continue
        frontier = 1 << s
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= masks[v]
            frontier = nxt & ~comp
        seen |= comp
        sizes.append(comp.bit_count())
    return sizes


def _outcome(result):
    if isinstance(result, SRGParams):
        return ("SRG", result.as_tuple(), result.degenerate)
    return (result.reason, result.witness)


def _table(ring, hamming):
    return hamming_table(ring) if hamming else hom_weight(ring, 1)


def _assert_equals_all_pairs_graph(graph, code, table):
    w1, masks = _all_pairs_graph(code, table)
    assert graph.code is code
    assert graph.w1 == w1
    assert _cayley_masks(graph) == masks
    assert {m.bit_count() for m in masks} == {graph.degree}
    assert _outcome(srg_check(graph)) == _outcome(_all_pairs_srg(masks))
    assert connected_components(graph) == _all_pairs_components(masks)


# Z_10, Z_14 and Z_22 have |K| = 2: two pairs per codeword, so D must be
# lifted by K for the membership table to hold every pair of c - d
@pytest.mark.parametrize("ring_spec,hamming", [
    ("Zm:5", True), ("Zm:7", True), ("Zm:13", True),
    ("Zm:10", False), ("Zm:14", False), ("Zm:22", False),
])
def test_cayley_rows_equal_all_pairs_adjacency(ring_spec, hamming):
    code = _code(ring_spec, "pow:3")
    table = _table(code.sub, hamming)
    _assert_equals_all_pairs_graph(two_weight_graph(code, table), code, table)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 15), d=st.integers(1, 15), hamming=st.booleans())
def test_cayley_rows_equal_all_pairs_adjacency_property(m, d, hamming):
    code = _code(f"Zm:{m}", f"pow:{d}")
    table = _table(code.sub, hamming)
    try:
        graph = two_weight_graph(code, table)
    except NotTwoWeight:
        assume(False)
    _assert_equals_all_pairs_graph(graph, code, table)


@pytest.mark.parametrize("ring_spec,hamming,reason", [
    ("Zm:10", False, "MuVaries"), ("Zm:14", False, "MuVaries"),
    ("Zm:26", False, "MuVaries"),
    ("Zm:5", True, "SRG"), ("Zm:13", True, "SRG"), ("Zm:29", True, "SRG"),
])
def test_srg_from_row_zero_equals_all_pairs_scan(ring_spec, hamming, reason):
    code = _code(ring_spec, "pow:3")
    table = _table(code.sub, hamming)
    outcome = _outcome(srg_check(two_weight_graph(code, table)))
    assert outcome[0] == reason
    assert outcome == _outcome(_all_pairs_srg(_all_pairs_graph(code, table)[1]))


@pytest.mark.parametrize("argv,srg", [
    (["--ring", "Zm:5", "--f", "pow:3"], True),
    (["--ring", "Zm:9", "--f", "pow:3", "--weight", "hamming"], False),
    (["--ring", "Zm:10", "--f", "pow:3"], False),
])
def test_a_graph_job_labels_each_nonzero_codeword_once(capsys, monkeypatch,
                                                         argv, srg):
    calls, transversals = [], []
    label, transversal = codes.PairOrbits.label, codes._transversal

    def counted(orbits, a, b):
        calls.append((a, b))
        return label(orbits, a, b)

    def counted_transversal(*args):
        transversals.append(args)
        return transversal(*args)

    monkeypatch.setattr(codes.PairOrbits, "label", counted)
    monkeypatch.setattr(codes, "_transversal", counted_transversal)
    assert main(["code", "graph"] + argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["srg"] is not None) == srg
    assert len(calls) == len(set(calls)) == report["vertices"] - 1
    # Code.points reads the coset transversal its PairOrbits built
    assert len(transversals) == 1


def test_z5_cube_graph_is_srg_25_8_3_2():
    code = _code("Zm:5", "pow:3")
    graph = two_weight_graph(code, hamming_table(code.sub))
    assert graph.order == 25
    assert graph.w1 == (2, 1)
    params = srg_check(graph)
    assert isinstance(params, SRGParams)
    assert params == (25, 8, 3, 2)
    assert params == SRGParams(25, 8, 3, 2)
    assert not params.degenerate
    assert connected_components(graph) == [25]
    columns = enumerate(code.func.table)
    assert is_modular(code.ring, columns) == (True, (1, 2))


def test_z10_cube_graph_splits_and_is_not_modular():
    code = _code("Zm:10", "pow:3")
    graph = two_weight_graph(code, hom_weight(code.sub, 1))
    assert graph.order == 50
    assert graph.w1 == (5, 1)
    assert graph.degree == 8
    failure = srg_check(graph)
    assert isinstance(failure, SRGFailure)
    assert failure.reason == "MuVaries"
    assert set(failure.witness) == {"pair", "common", "expected"}
    assert connected_components(graph) == [25, 25]
    assert is_modular(code.ring, enumerate(code.func.table)) \
        == (False, None)


def test_three_weight_code_is_rejected():
    R = ring_from_spec("GR:2,2,2")
    S = ring_from_spec("Zm:4")
    code = build_code(R, S, trace_from_spec(R, S, "galois"),
                      function_from_spec(R, "frank:id"))
    with pytest.raises(NotTwoWeight) as err:
        two_weight_graph(code, hom_weight(S, 1))
    assert err.value.count == 3
    assert err.value.weights == ((12, 1), (16, 1), (20, 1))
    assert err.value.exit_code == 12


def test_a_code_weighed_at_gamma_0_has_no_nonzero_weights():
    # every codeword weighs 0; a table that weighs some nonzero codewords 0
    # and others not still counts 0 as a weight, as in
    # test_nonzero_codewords_of_weight_zero_join_without_loops
    code = _code("Zm:5", "pow:3")
    with pytest.raises(NotTwoWeight) as err:
        two_weight_graph(code, hom_weight(code.sub, 0))
    assert (err.value.count, err.value.weights) == (0, ())
    assert str(err.value) == "code has 0 distinct nonzero weights, need exactly 2"


def test_asymmetric_weight_table_is_refused():
    # on Z_4, w = (0, 1, 1, 3) has w(-1) = 3 != w(1), so w(c - c') is not a
    # distance; -1 is a unit, so the table is not constant on unit orbits
    # and is refused before the graph is built
    code = _code("Zm:4", "pow:1")
    with pytest.raises(InvalidParameter, match="not constant on the unit orbit of 3"):
        two_weight_graph(code, WeightTable(code.sub, 1, (0, 1, 1, 3)))


def test_nonzero_codewords_of_weight_zero_join_without_loops():
    # on Z_4, w = (0, 1, 0, 1) gives the codeword 2x weight 0 = w1
    code = _code("Zm:4", "pow:1")
    table = WeightTable(code.sub, 1, (0, 1, 0, 1))
    graph = two_weight_graph(code, table)
    assert graph.w1 == (0, 1)
    assert _cayley_masks(graph) == _all_pairs_graph(code, table)[1]
    assert connected_components(graph) == [2, 2]


def test_degenerate_matching_graph():
    # the linear code {c*x} over Z_4 in the Hamming metric has weights {2, 3};
    # the w1 = 2 graph is a perfect matching, hence degenerate with mu = 0
    code = _code("Zm:4", "pow:1")
    graph = two_weight_graph(code, hamming_table(code.sub))
    assert graph.order == 4 and graph.w1 == (2, 1)
    params = srg_check(graph)
    assert isinstance(params, SRGParams)
    assert params.degenerate
    assert params == (4, 1, 0, 0)
    assert connected_components(graph) == [2, 2]


def _masks(n, edges):
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


# graphs built by hand, which only the all-pairs reference accepts


def test_srg_rejects_irregular_graphs():
    # a path on three vertices
    masks = _masks(3, [(0, 1), (1, 2)])
    failure = _all_pairs_srg(masks)
    assert isinstance(failure, SRGFailure)
    assert failure.reason == "NotRegular"
    assert failure.witness["degree"] != failure.witness["expected"]
    assert _all_pairs_components(masks) == [3]


def test_srg_rejects_varying_lambda():
    # triangular prism: 3-regular, adjacent pairs have 1 or 0 common neighbors
    masks = _masks(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (0, 3), (1, 4), (2, 5)])
    failure = _all_pairs_srg(masks)
    assert isinstance(failure, SRGFailure)
    assert failure.reason == "LambdaVaries"
    assert _all_pairs_components(masks) == [6]


def test_srg_rejects_lambda_varying_away_from_vertex_0():
    # K4 beside a triangular prism: 3-regular, not vertex-transitive.  Row 0
    # alone reads lambda = 2, mu = 0; the prism's adjacent pairs have 1 or 0
    masks = _masks(10, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9),
                        (4, 7), (5, 8), (6, 9)])
    failure = _all_pairs_srg(masks)
    assert isinstance(failure, SRGFailure)
    assert failure.reason == "LambdaVaries"
    assert failure.witness == {"pair": (4, 5), "common": 1, "expected": 2}


def test_five_cycle_is_strongly_regular():
    params = _all_pairs_srg(_masks(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert params == (5, 2, 0, 1)
    assert not params.degenerate


def test_component_discovery_order():
    # two components laid out as {0, 2} and {1, 3, 4}
    masks = [0b00100, 0b01000, 0b00001, 0b10010, 0b01000]
    assert _all_pairs_components(masks) == [2, 3]


def test_is_modular_drops_zero_columns():
    R = ring_from_spec("Zm:4")
    cols = [(1, 0), (3, 0), (2, 0)]
    assert is_modular(R, cols) == (True, (1, 1))
    assert is_modular(R, cols + [(0, 0)]) == (True, (1, 1))
    assert is_modular(R, [(1, 0), (2, 0)]) == (False, None)
    assert is_modular(R, [(0, 0)]) == (True, None)


def _pairwise_is_modular(ring, columns):
    """Oracle for ``is_modular``: each column's module compared with every
    other column's."""
    cols = [tuple(c) for c in columns if any(c)]
    if not cols:
        return (True, None)
    mul = ring.mul_table()
    modules = [frozenset(tuple(mul[s][c] for c in y) for s in range(ring.order))
               for y in cols]
    r = None
    for j, y in enumerate(cols):
        count = sum(1 for m in modules if m == modules[j])
        rj = F(count, len({tuple(mul[u][c] for c in y) for u in ring.units()}))
        if r is None:
            r = rj
        elif rj != r:
            return (False, None)
    return (True, _pair(r))


GRAPH_FUNCTIONS = (
    [(f"Zm:{m}", f"pow:{d}") for m in range(2, 41) for d in range(1, 9)]
    + [(ring, f) for ring in ("GR:2,2,2", "GR:3,2,2")
       for f in ("frank:id", "frank:rand:3")]
    + [(f"GR:2,1,{r}", "pow:3") for r in (3, 4, 5)]
    + [(f"GR:3,1,{r}", "pow:2") for r in (2, 3)]
    + [("FXY:2", "sigmaquad:swapxy"), ("FXY:3", "sigmaquad:swapxy"), ("Z4X", "pow:2")]
    + [(ring, "sigmaquad:frobenius") for ring in ("GR:2,1,2", "GR:2,1,3", "GR:2,2,2",
                                                 "GR:3,1,2", "GR:2,3,2", "GR:3,2,2")]
)


def test_is_modular_equals_the_pairwise_count():
    for ring_spec, f_spec in GRAPH_FUNCTIONS:
        R = ring_from_spec(ring_spec)
        columns = list(enumerate(function_from_spec(R, f_spec).table))
        assert is_modular(R, columns) == _pairwise_is_modular(R, columns), \
            (ring_spec, f_spec)
