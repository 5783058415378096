"""Trace codes: construction, transform values, closed-form families."""

from fractions import Fraction
from collections import Counter
from functools import lru_cache
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homring import cli, codes, verify
from homring.codes import (PairOrbits, WeightEnumerator, _is_monomial,
                           _unit_generators, build_code, closed_form_enumerator,
                           closed_form_spectrum, code_from_specs, code_spectrum,
                           frank_map,
                           function_from_spec,
                           monomial_symmetries, orbit_weights, power_map,
                           random_teich_permutation, sigma_quadratic_map,
                           table_map, weight_enumerator,
                           zp_power_enumerator)
from homring.errors import (InternalInvariantViolation, InvalidParameter,
                            OutOfRange, ParseError, UnknownPreset,
                            ValidationFailed, WrongRingFamily)
from homring.rings import frobenius, ring_from_spec, subring_embedding, swap_xy
from homring.traces import (canonical_character, fxy_sum_trace,
                            identity_trace, table_trace, trace_from_spec)
from homring.weights import WeightTable, hamming_table, hom_weight

from codeword_oracle import least_pairs, pair_codewords, sorted_codewords
from cyclotomic_oracle import CyclotomicVector
from ring_oracle import (element_from_int, padic_digits,
                         unit_histograms_by_elements)

F = Fraction


def _code(ring_spec, sub_spec, trace_spec, f_spec, seed=None):
    return code_from_specs(ring_spec, sub_spec, trace_spec, f_spec, seed=seed)


def _codeword_sum_enumerator(code, table):
    """The enumerator by brute force: the weight of every codeword of the
    swept code, summed coordinate by coordinate.  The oracle for the orbit
    route of ``weight_enumerator``, built from Fraction weights."""
    den, scaled = table.den, table.values
    totals = Counter(sum(scaled[s] for s in cw) for cw in least_pairs(code))
    return WeightEnumerator({F(t, den): c for t, c in totals.items()},
                            gamma=F(*table.gamma), kind=table.kind)


def _weights(enum):
    """An enumerator's (weight, count) pairs, each weight a Fraction."""
    return [(F(t, enum.den), c) for t, c in enum]


def _spectrum(code):
    """``code_spectrum`` as a tuple of Fractions."""
    den, values = code_spectrum(code)
    return tuple(F(v, den) for v in values)


def _brute_force(code, table):
    """The oracle's enumerator, after checking that the orbit route gives
    the same one."""
    brute = _codeword_sum_enumerator(code, table)
    assert weight_enumerator(code, table) == brute
    return brute


SMALL_CODES = [
    ("Zm:5", "Zm:5", "identity", "pow:3"),
    ("Zm:7", "Zm:7", "identity", "pow:4"),
    ("Zm:10", "Zm:10", "identity", "pow:3"),
    ("GR:2,2,2", "Zm:4", "galois", "frank:id"),
    ("GR:2,2,2", "GR:2,2,2", "identity", "frank:id"),
    ("FXY:2", "Zm:2", "fxy-sum", "sigmaquad:swapxy"),
    ("Z4X", "Zm:4", "z4x:0,1", "pow:2"),
]


# ---------------------------------------------------------------------------
# the pair map (alpha, beta) -> codeword


@lru_cache(maxsize=None)
def _codewords_of_pairs(case):
    """The code and every pair's codeword x -> T(alpha*x + beta*f(x)),
    through the ring's own add and mul rather than the cached tables."""
    ring_spec, sub_spec, trace_spec, f_spec = case
    R = ring_from_spec(ring_spec)
    S = ring_from_spec(sub_spec)
    tr = trace_from_spec(R, S, trace_spec)
    f = function_from_spec(R, f_spec)
    n = R.order
    by_ops = {(a, b): tuple(tr(R.add(R.mul(a, x), R.mul(b, f(x))))
                            for x in range(n))
              for a in range(n) for b in range(n)}
    swept = {(a, b): cw for a, b, cw in pair_codewords(R, tr, f)}
    return R, S, build_code(R, S, tr, f), by_ops, swept


PAIR_CASES = st.one_of(
    st.builds(lambda m, d: (f"Zm:{m}", f"Zm:{m}", "identity", f"pow:{d}"),
              st.integers(2, 12), st.integers(1, 6)),
    st.sampled_from([("GR:2,2,2", "Zm:4", "galois", "frank:id"),
                     ("FXY:2", "FXY:2", "identity", "sigmaquad:swapxy"),
                     ("FXY:2", "Zm:2", "fxy-sum", "sigmaquad:swapxy")]))


@settings(max_examples=40, deadline=None)
@given(case=PAIR_CASES, data=st.data())
def test_codewords_are_additive_in_the_pair(case, data):
    R, S, code, by_ops, swept = _codewords_of_pairs(case)
    n = R.order
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    p, q = data.draw(pair), data.draw(pair)
    assert swept[p] == by_ops[p]
    pq = (R.add(p[0], q[0]), R.add(p[1], q[1]))
    assert tuple(S.add(a, b) for a, b in zip(by_ops[p], by_ops[q])) == by_ops[pq]
    # K: the pairs whose codeword is the zero tuple (not those of weight 0)
    kernel = [pair for pair, cw in by_ops.items() if not any(cw)]
    assert code.size * len(kernel) == n * n
    assert sorted(code.kernel) == sorted(kernel)


# ---------------------------------------------------------------------------
# function specs


def test_power_map():
    R = ring_from_spec("Zm:7")
    f = power_map(R, 3)
    assert f.table == tuple(pow(x, 3, 7) for x in range(7))
    assert power_map(R, 1).table == tuple(range(7))
    with pytest.raises(OutOfRange):
        power_map(R, 0)


def test_frank_map_constraints():
    with pytest.raises(WrongRingFamily):
        frank_map(ring_from_spec("Zm:4"))
    with pytest.raises(WrongRingFamily):
        frank_map(ring_from_spec("GR:2,1,2"))
    with pytest.raises(WrongRingFamily):
        frank_map(ring_from_spec("GR:2,3,2"))
    f = frank_map(ring_from_spec("GR:2,2,2"))
    assert f.tag == "frank:id"
    assert f.table[0] == 0


def test_frank_map_lands_in_p_times_teichmuller_products():
    R = ring_from_spec("GR:3,2,2")
    f = frank_map(R)
    p = element_from_int(R, 3)
    t = R.teichmuller()
    for x in range(R.order):
        x0, x1 = padic_digits(R, x)
        assert f.table[x] == R.mul(p, R.mul(x0, x1))


def test_random_teich_permutation_is_seeded():
    R = ring_from_spec("GR:2,2,2")
    p1 = random_teich_permutation(R, 9)
    assert p1 == random_teich_permutation(R, 9)
    assert p1[0] == 0
    assert sorted(p1) == [0, 1, 2, 3]
    # the spec frank:rand:<seed> is the Frank map of this permutation
    f = function_from_spec(R, "frank:rand:9")
    assert (f.table, f.tag) == (frank_map(R, p1).table, "frank:rand:9")


def test_record_4_builds_each_drawn_permutation_once(monkeypatch):
    # the spec verify names each draw by is the map frank:rand:<seed> builds
    for spec in ("GR:2,2,2", "GR:3,2,2"):
        R = ring_from_spec(spec)
        for seed in verify.RANDOM_PERM_SEEDS:
            named = verify._frank_spec(spec, seed)
            assert (function_from_spec(R, named).table
                    == function_from_spec(R, f"frank:rand:{seed}").table), named
    # on GR:2,2,2 seeds 1-3 draw one pi and seed 5 the identity of records
    # 1-3, so record 4 builds 2 codes there for each subring and 5 on GR:3,2,2,
    # and weighs each of those 9 codes once
    honest = codes.orbit_weights
    weighed = []

    def counted(code, table):
        weighed.append(code)
        return honest(code, table)

    monkeypatch.setattr(codes, "orbit_weights", counted)
    caches = (verify._code, verify._frank_triplet, verify._homogeneous)
    for cache in caches:
        cache.cache_clear()
    try:
        verify.run(only=[1, 2, 3])
        built = verify._code.cache_info().misses
        assert len(weighed) == built == 3
        (rec,) = verify.run(only=[4])["records"]
        assert rec["pass"]
        assert verify._code.cache_info().misses - built == 9
        assert len(weighed) - built == len(set(map(id, weighed))) - built == 9
    finally:
        for cache in caches:
            cache.cache_clear()


def test_function_spec_grammar(tmp_path):
    R = ring_from_spec("GR:2,2,2")
    assert function_from_spec(R, "pow:2").tag == "pow:2"
    fr = function_from_spec(R, "frank:rand", seed=3)
    assert fr.tag == "frank:rand:3" and fr.seed == 3
    assert function_from_spec(R, "frank:rand").seed == 0
    assert function_from_spec(R, "frank:rand:5").seed == 5
    explicit = function_from_spec(R, "frank:0,2,1,3")
    assert explicit.tag == "frank:0,2,1,3"
    assert explicit.table == frank_map(R, (0, 2, 1, 3)).table != frank_map(R).table
    path = tmp_path / "f.txt"
    path.write_text("".join(f"{x} {x}\n" for x in range(R.order)))
    assert function_from_spec(R, f"table:{path}").table == tuple(range(R.order))
    with pytest.raises(ParseError):
        function_from_spec(R, "pow:two")
    with pytest.raises(UnknownPreset):
        function_from_spec(R, "sigmaquad:swapxy")
    with pytest.raises(UnknownPreset):
        function_from_spec(R, "shuffle:1")


def test_only_a_graph_job_builds_the_sub_table(monkeypatch, capsys):
    # the Frank and sigma-quadratic maps read a - nu(a) off the Teichmueller
    # walk; the SRG check of ``code graph`` is the one reader of the |R|^2
    # sub table
    for ring_spec, f_spec in [("GR:3,2,2", "frank:id"), ("GR:3,2,2", "frank:rand:7"),
                              ("GR:2,3,2", "sigmaquad:frobenius"),
                              ("FXY:3", "sigmaquad:swapxy")]:
        R = ring_from_spec(ring_spec)
        monkeypatch.delitem(R._cache, "sub_table", raising=False)
        function_from_spec(R, f_spec)
        assert "sub_table" not in R._cache, (ring_spec, f_spec)
    R = ring_from_spec("Zm:5")
    monkeypatch.delitem(R._cache, "sub_table", raising=False)
    assert cli.main(["code", "graph", "--ring", "Zm:5", "--f", "pow:3",
                     "--weight", "hamming"]) == 0
    assert '"srg": {' in capsys.readouterr().out
    assert "sub_table" in R._cache


# ---------------------------------------------------------------------------
# code construction invariants


@pytest.mark.parametrize("ring_spec,sub_spec,trace_spec,f_spec", SMALL_CODES)
def test_code_invariants(ring_spec, sub_spec, trace_spec, f_spec):
    code = _code(ring_spec, sub_spec, trace_spec, f_spec)
    S = code.sub
    # the swept code has |R|^2/|K| codewords of length |R|; the least is zero
    swept = [cw for cw, _ in sorted_codewords(code)]
    assert len(swept) == code.size == len(code.points)
    assert all(len(cw) == code.ring.order for cw in swept)
    assert swept[0] == (0,) * code.ring.order
    assert code.points[0] == (0, 0)
    # S-linearity: closed under scalar action and addition
    cws = set(swept)
    sample = swept[:: max(1, code.size // 8)]
    for cw in sample:
        for s in range(S.order):
            assert tuple(S.mul(s, v) for v in cw) in cws
    for cw1 in sample[:3]:
        for cw2 in sample[:3]:
            assert tuple(S.add(a, b) for a, b in zip(cw1, cw2)) in cws


@pytest.mark.parametrize("ring_spec,sub_spec,trace_spec,f_spec", SMALL_CODES)
def test_transform_and_weights_are_two_views_of_one_thing(
        ring_spec, sub_spec, trace_spec, f_spec):
    code = _code(ring_spec, sub_spec, trace_spec, f_spec)
    n = code.ring.order
    wt = hom_weight(code.sub, 1)
    lam = _spectrum(code)
    enum = weight_enumerator(code, wt)
    # weights and spectrum determine each other via w = |R| - W
    assert {n - v for v in lam} == {w for w, _ in _weights(enum)}
    assert enum.total == code.size
    assert enum[0] == 1


def test_the_spectrum_is_the_character_sum_over_each_codeword():
    # oracle: W of each codeword as the unit-averaged character sum over it,
    # reduced in the cyclotomic field (tests/cyclotomic_oracle.py), never
    # through weight tables or Ramanujan sums
    for ring_spec, sub_spec, trace_spec, f_spec in (
            ("GR:2,2,2", "Zm:4", "galois", "frank:id"),
            ("FXY:2", "FXY:2", "identity", "sigmaquad:swapxy"),
            ("Zm:10", "Zm:10", "identity", "pow:3"),
            ("Zm:6", "Zm:6", "identity", "pow:5")):
        code = _code(ring_spec, sub_spec, trace_spec, f_spec)
        S = code.sub
        chi = canonical_character(S)
        histos = unit_histograms_by_elements(chi)
        nunits = len(S.units())
        transform = Counter()
        for cw in least_pairs(code):
            counts = [0] * chi.conductor
            for s in cw:
                for e, c in enumerate(histos[s]):
                    counts[e] += c
            char_sum = CyclotomicVector.from_exponent_counts(chi.conductor, counts)
            transform[char_sum.to_rational() / nunits] += 1
        enum = weight_enumerator(code, hom_weight(S, 1))
        assert transform == Counter({code.ring.order - w: c
                                     for w, c in _weights(enum)}), ring_spec
        assert set(_spectrum(code)) == set(transform), ring_spec


def test_frank_pair_dedup_classes():
    # c(a,b) == c(a',b') exactly when a == a' and b - b' lies in pR, so the
    # kernel is K = {0} x pR; the codewords come from the ring's own add and
    # mul, each product alpha*x and beta*f(x) and each sum a + b made once
    for ring_spec, sub_spec, trace_spec in (
            ("GR:2,2,2", "Zm:4", "galois"), ("GR:3,2,2", "Zm:9", "galois")):
        R = ring_from_spec(ring_spec)
        S = ring_from_spec(sub_spec)
        tr = trace_from_spec(R, S, trace_spec)
        f = frank_map(R)
        p = element_from_int(R, R.p)
        pR = {R.mul(p, a) for a in range(R.order)}
        elems = range(R.order)
        ax = [[R.mul(alpha, x) for x in elems] for alpha in elems]
        bf = [[R.mul(beta, f.table[x]) for x in elems] for beta in elems]
        # T(a + b) for every pair, through the ring's own add
        tr_sum = [[tr.values[R.add(a, b)] for b in elems] for a in elems]
        by_cw = {}
        for alpha in elems:
            for beta in elems:
                cw = tuple([tr_sum[a][b] for a, b in zip(ax[alpha], bf[beta])])
                by_cw.setdefault(cw, []).append((alpha, beta))
        code = build_code(R, S, tr, f)
        assert sorted(code.kernel) == sorted((0, b) for b in pR)
        assert code.size == len(by_cw) == R.order * (R.order // len(pR))
        for pairs in by_cw.values():
            alphas = {a for a, _ in pairs}
            betas = [b for _, b in pairs]
            assert len(alphas) == 1
            for b in betas:
                assert R.sub(b, betas[0]) in pR
            assert len(betas) == len(pR)


def test_min_lex_provenance():
    # each point, rebuilt through the ring's own add and mul, is the codeword
    # the sweep gives it, and the least pair of that codeword
    code = _code("GR:2,2,2", "Zm:4", "galois", "frank:id")
    R = code.ring
    tr = code.trace
    f = code.func
    best = least_pairs(code)
    for alpha, beta in code.points:
        rebuilt = tuple(tr.values[R.add(R.mul(alpha, x), R.mul(beta, f.table[x]))]
                        for x in range(R.order))
        assert best[rebuilt] == (alpha, beta)
    assert len(code.points) == len(best)


@st.composite
def _point_codes(draw):
    kind = draw(st.sampled_from(["pow", "z2p", "frank", "table"]))
    if kind == "pow":
        m, d = draw(st.integers(2, 30)), draw(st.integers(1, 8))
        return _orbit_case((f"Zm:{m}", f"Zm:{m}", "identity", f"pow:{d}"))
    if kind == "z2p":       # |K| = 2 for most d
        p, d = draw(st.sampled_from([3, 5, 7, 11, 13])), draw(st.integers(2, 6))
        return _orbit_case((f"Zm:{2 * p}", f"Zm:{2 * p}", "identity", f"pow:{d}"))
    if kind == "frank":     # K = {0} x 3R, |K| = 9
        seed = draw(st.integers(0, 2))
        return _orbit_case(("GR:3,2,2", "Zm:9", "galois", f"frank:rand:{seed}"))
    ring_spec = draw(st.sampled_from(["Zm:5", "Zm:6", "Zm:8", "Zm:9", "Zm:12",
                                      "GR:2,1,3", "GR:2,2,2"]))
    n = ring_from_spec(ring_spec).order
    values = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return _table_code(ring_spec, tuple(values))


@settings(max_examples=40, deadline=None)
@given(code=_point_codes())
def test_points_are_the_least_pairs_in_sorted_codeword_order(code):
    assert code.points == tuple(pair for _, pair in sorted_codewords(code))


def test_sigma_check_rejects_unfixed_characters(z4x_conjugation):
    Z = ring_from_spec("Z4X")
    with pytest.raises(ValidationFailed) as err:
        build_code(Z, Z, identity_trace(Z),
                   sigma_quadratic_map(Z, z4x_conjugation))
    assert err.value.primary == "CharacterNotSigmaInvariant"

    # a unit-twisted trace on FXY:2 breaks the swap-xy symmetry
    R = ring_from_spec("FXY:2")
    S = ring_from_spec("Zm:2")
    base = fxy_sum_trace(R, S)
    twisted = table_trace(R, S, [base.values[R.mul(3, a)] for a in range(16)],
                          tag="twisted")
    sq = sigma_quadratic_map(R, swap_xy(R))
    with pytest.raises(ValidationFailed):
        build_code(R, S, twisted, sq)
    # while the symmetric coefficient-sum trace is accepted
    assert build_code(R, S, base, sq).size == 32


def test_sigma_quadratic_map_needs_an_automorphism_of_its_ring():
    # a ring map is an automorphism of R only when it maps R onto R: the
    # embedding of Z_2 into GR:2,1,2 also lands in R, but is no sigma on R
    R = ring_from_spec("GR:2,1,2")
    for sigma in (subring_embedding(ring_from_spec("Zm:2"), R),
                  frobenius(ring_from_spec("GR:2,1,3"))):
        with pytest.raises(InvalidParameter, match="acts on a different ring"):
            sigma_quadratic_map(R, sigma)


# ---------------------------------------------------------------------------
# weight enumerators from orbits of pair space


@lru_cache(maxsize=None)
def _orbit_case(case):
    ring_spec, sub_spec, trace_spec, f_spec = case
    return _code(ring_spec, sub_spec, trace_spec, f_spec)


@lru_cache(maxsize=None)
def _table_code(ring_spec, values):
    R = ring_from_spec(ring_spec)
    return build_code(R, R, identity_trace(R), table_map(R, values))


# codes with |K| > 1: K_a = {alpha : (alpha, beta) in K} and
# K_0 = {beta : (0, beta) in K} nontrivial apart and together
KERNEL_CASES = [
    ("Zm:10", "Zm:10", "identity", "pow:3"),          # K_a = {0, 5}
    ("Zm:14", "Zm:14", "identity", "pow:5"),
    ("Zm:12", "Zm:12", "identity", "pow:1"),          # K_a = R
    ("GR:2,2,2", "GR:2,2,2", "identity", "pow:1"),
    ("GR:2,2,2", "Zm:4", "galois", "frank:id"),       # K_0 = 2R
    ("GR:2,2,2", "Zm:4", "galois", "frank:rand:3"),
    ("FXY:2", "Zm:2", "fxy-sum", "sigmaquad:swapxy"),  # both
    ("Z4X", "Zm:4", "z4x:0,1", "pow:2"),
]


@st.composite
def _orbit_codes(draw):
    kind = draw(st.sampled_from(["pow", "named", "kernel", "table"]))
    if kind == "kernel":
        return _orbit_case(draw(st.sampled_from(KERNEL_CASES)))
    if kind == "pow":
        m, d = draw(st.integers(2, 30)), draw(st.integers(1, 8))
        return _orbit_case((f"Zm:{m}", f"Zm:{m}", "identity", f"pow:{d}"))
    if kind == "named":
        return _orbit_case(draw(st.sampled_from([
            ("GR:2,2,2", "Zm:4", "galois", "frank:id"),
            ("GR:2,2,2", "Zm:4", "galois", "frank:rand:3"),
            ("FXY:2", "FXY:2", "identity", "sigmaquad:swapxy"),
            ("FXY:2", "Zm:2", "fxy-sum", "sigmaquad:swapxy")])))
    ring_spec = draw(st.sampled_from(["Zm:5", "Zm:6", "Zm:7", "Zm:8", "Zm:9",
                                      "Zm:12", "GR:2,1,3"]))
    n = ring_from_spec(ring_spec).order
    values = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return _table_code(ring_spec, tuple(values))


@settings(max_examples=60, deadline=None)
@given(code=_orbit_codes(), hamming=st.booleans(),
       gamma=st.sampled_from([F(1), F(1, 2)]))
def test_orbit_enumerator_equals_codeword_sum(code, hamming, gamma):
    table = hamming_table(code.sub) if hamming else hom_weight(code.sub, gamma)
    assert weight_enumerator(code, table) == _codeword_sum_enumerator(code, table)
    # and pair by pair: every pair's codeword has the weight of its orbit
    orbits, den, weights = orbit_weights(code, table)
    assert den == table.den
    for alpha, beta, cw in pair_codewords(code.ring, code.trace, code.func):
        assert sum(table.values[s] for s in cw) == weights[orbits.label(alpha, beta)]


def _depth_first_orbits(code):
    """Oracle for ``PairOrbits``: a depth-first walk that labels every one
    of the |C| codewords under the code's one generator list, each
    generator given as permutation rows of R.  Returns the reps, the sizes
    and a label function on pairs."""
    mot, add = code.ring.mul_table(), code.ring.add_table()
    rows = [([row[a] for row in mot], [row[b] for row in mot])
            for a, b in code._pair_generators]
    n = len(add)
    neg_kb = {}
    for ka, kb in code.kernel:
        if ka not in neg_kb:
            neg_kb[ka] = add[kb].index(0)

    def cosets(members):
        cls, offset, least = [-1] * n, [0] * n, []
        for x in range(n):
            if cls[x] < 0:
                for m in members:
                    cls[add[x][m]] = len(least)
                    offset[add[x][m]] = m
                least.append(x)
        return cls, least, offset

    acls, arep, offset = cosets(list(neg_kb))
    bcls, brep, _ = cosets([kb for ka, kb in code.kernel if ka == 0])
    nb = len(brep)
    delta = [neg_kb[k] for k in offset]

    def point(alpha, beta):
        return acls[alpha] * nb + bcls[add[beta][delta[alpha]]]

    labels = [-1] * (len(arep) * nb)
    reps, sizes = [], []
    for start in range(len(labels)):
        if labels[start] >= 0:
            continue
        labels[start] = len(reps)
        stack, size = [start], 0
        while stack:
            i, j = divmod(stack.pop(), nb)
            size += 1
            for ga, gb in rows:
                q = point(ga[arep[i]], gb[brep[j]])
                if labels[q] < 0:
                    labels[q] = len(reps)
                    stack.append(q)
        i, j = divmod(start, nb)
        reps.append((arep[i], brep[j]))
        sizes.append(size)
    return reps, sizes, lambda alpha, beta: labels[point(alpha, beta)]


def _filter_kernel(code):
    """Oracle for ``code_kernel``: for each beta, the alphas filtered one
    coordinate at a time, beta-major."""
    R, tr, ft = code.ring, code.trace.values, code.func.table
    mot, aot = R.mul_table(), R.add_table()
    kernel = []
    for beta in range(R.order):
        alphas = range(R.order)
        for x in range(R.order):
            bfx = mot[beta][ft[x]]
            alphas = [a for a in alphas if not tr[aot[mot[a][x]][bfx]]]
        kernel.extend((alpha, beta) for alpha in alphas)
    return tuple(kernel)


@settings(max_examples=60, deadline=None)
@given(code=_orbit_codes())
def test_orbits_and_kernel_equal_the_depth_first_and_filter_oracles(code):
    assert code.kernel == _filter_kernel(code)
    orbits = code.orbits
    reps, sizes, label = _depth_first_orbits(code)
    assert orbits.reps == reps
    assert orbits.sizes == sizes
    n = code.ring.order
    assert all(orbits.label(a, b) == label(a, b) for a in range(n) for b in range(n))


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_orbits_label_each_codeword_by_the_least_pair_of_its_coset(case):
    code = _orbit_case(case)
    assert len(code.kernel) > 1
    pairs_of = {}
    for alpha, beta, cw in pair_codewords(code.ring, code.trace, code.func):
        pairs_of.setdefault(cw, []).append((alpha, beta))
    orbits = code.orbits
    points = set(code.points)
    assert sum(orbits.sizes) == code.size
    # label is constant on every K-coset, the pairs of one codeword
    label_of = {}
    for cw, pairs in pairs_of.items():
        labels = {orbits.label(*pair) for pair in pairs}
        assert len(labels) == 1, (cw, labels)
        label_of[cw] = labels.pop()
    # the labels are 0..len(sizes) - 1, each on as many codewords as its size
    assert Counter(label_of.values()) == Counter(dict(enumerate(orbits.sizes)))
    # each rep is the least pair of its coset and of its orbit
    for label, rep in enumerate(orbits.reps):
        cw = next(cw for cw, pairs in pairs_of.items() if rep in pairs)
        assert rep == min(pairs_of[cw])
        assert rep in points
        assert rep == min(min(pairs) for c, pairs in pairs_of.items()
                          if label_of[c] == label)


def test_pair_orbits_refuse_a_symmetry_or_kernel_that_does_not_fit():
    # PairOrbits trusts its generators to keep K, and the code hands it only
    # pairs that do (the next test); a kernel that is not a subgroup is
    # refused by the count of least pairs
    code = _orbit_case(("Zm:10", "Zm:10", "identity", "pow:3"))
    assert sum(PairOrbits(code.ring, code.kernel, [(1, 1)]).sizes) == 50
    with pytest.raises(InternalInvariantViolation, match="least pairs"):
        PairOrbits(code.ring, code.kernel + ((1, 1),), [])     # not a subgroup


@settings(max_examples=60, deadline=None)
@given(code=_orbit_codes())
def test_every_pair_generator_keeps_the_kernel(code):
    # (s, s) keeps K because T is S-linear, (u, lam) because f(u*x) =
    # lam*f(x) on all of R; on Zm:12 with pow:1, K = {(alpha, -alpha)} and
    # the pair (1, 5) would map (1, 11) to (1, 7), outside K
    mul = code.ring.mul_table()
    kernel = set(code.kernel)
    for a, b in code._pair_generators:
        assert {(mul[ka][a], mul[kb][b]) for ka, kb in kernel} == kernel, (a, b)


def _table_functions():
    """Maps whose monomial symmetries are partial: x^3 on Z_7 with one value
    changed, so a candidate lam read off f(1) fails elsewhere on f."""
    R = ring_from_spec("Zm:7")
    cube = [pow(x, 3, 7) for x in range(7)]
    yield table_map(R, cube)
    yield table_map(R, cube[:6] + [5])
    yield table_map(R, [0, 1, 1, 6, 1, 6, 0])
    for ring_spec, f_spec in (("GR:2,2,2", "frank:id"), ("GR:3,2,2", "frank:id"),
                              ("GR:2,2,2", "frank:rand:3"), ("Zm:12", "pow:2"),
                              ("FXY:2", "sigmaquad:swapxy"), ("Zm:30", "pow:5"),
                              ("GR:2,1,4", "pow:3")):
        yield function_from_spec(ring_from_spec(ring_spec), f_spec)


def test_discovered_monomial_symmetries_hold_on_every_element():
    # checked through the ring's own mul, not the tables discovery reads
    for f in _table_functions():
        R = f.ring
        units = set(R.units())
        for u, lam in monomial_symmetries(f):
            assert u in units and lam in units and u != R.one
            assert all(f(R.mul(u, x)) == R.mul(lam, f(x)) for x in range(R.order))


def _bucket_monomial_symmetries(f):
    """Oracle for ``monomial_symmetries``: the units lam bucketed by
    lam*f(x0) for the first nonzero value f(x0), and each u tried against
    every lam of its bucket until one holds on all of f."""
    R = f.ring
    mot, ft, units = R.mul_table(), f.table, R.units()
    x0 = next((x for x, v in enumerate(ft) if v), 0)
    lams_of = {}
    for lam in units:
        lams_of.setdefault(mot[lam][ft[x0]], []).append(lam)

    def accept(u):
        for lam in lams_of.get(ft[mot[u][x0]], ()):
            if _is_monomial(f, u, lam):
                return (u, lam)
        return None

    return _unit_generators(units, R.one, mot, accept)


@settings(max_examples=60, deadline=None)
@given(code=_orbit_codes())
def test_monomial_symmetries_equal_the_bucket_oracle(code):
    assert monomial_symmetries(code.func) == _bucket_monomial_symmetries(code.func)


def test_each_unit_is_checked_against_one_lambda_at_most(monkeypatch):
    calls = {"accept": 0, "monomial": 0}
    unit_generators, is_monomial = codes._unit_generators, codes._is_monomial

    def counted_unit_generators(units, one, mul, accept):
        def counted_accept(u):
            calls["accept"] += 1
            return accept(u)
        return unit_generators(units, one, mul, counted_accept)

    def counted_is_monomial(f, u, lam):
        calls["monomial"] += 1
        return is_monomial(f, u, lam)

    monkeypatch.setattr(codes, "_unit_generators", counted_unit_generators)
    monkeypatch.setattr(codes, "_is_monomial", counted_is_monomial)
    # no symmetry: on GR:3,2,2 the 9 units lam = lam0 mod 3 act alike on pR
    f = function_from_spec(ring_from_spec("GR:3,2,2"), "frank:rand:7")
    assert monomial_symmetries(f) == _bucket_monomial_symmetries(f) == []
    assert calls["monomial"] <= calls["accept"] > 0
    calls.update(accept=0, monomial=0)
    for f in _table_functions():
        monomial_symmetries(f)
    assert 0 < calls["monomial"] <= calls["accept"]


def test_a_wrong_lambda_is_refused():
    R = ring_from_spec("Zm:7")
    f = power_map(R, 3)
    assert _is_monomial(f, 3, 6)          # (3x)^3 = 27 x^3 = 6 x^3
    assert not any(_is_monomial(f, 3, lam) for lam in (1, 2, 3, 4, 5))
    # with f(6) changed, lam = f(2)/f(1) = 1 holds at x = 1 but not at x = 3
    broken = table_map(R, [0, 1, 1, 6, 1, 6, 5])
    assert not _is_monomial(broken, 2, 1)
    assert all(u != 2 for u, _ in monomial_symmetries(broken))


def test_monomial_generators_are_few_and_generate_the_units():
    # x^3 on Z_251: every unit u has lam = u^3, and the greedy set is small
    f = power_map(ring_from_spec("Zm:251"), 3)
    gens = monomial_symmetries(f)
    assert 1 <= len(gens) <= 8
    span = {1}
    while True:
        grown = span | {x * u % 251 for x in span for u, _ in gens}
        if grown == span:
            break
        span = grown
    assert len(span) == 250


def test_a_table_that_changes_under_scalars_is_refused():
    # on Z_4, w = (0, 1, 1, 3) has w(3y) != w(y): the codewords of (0, 1)
    # and (0, 3), x^2 and 3x^2, weigh 2 and 6 but share an orbit, so the
    # table is refused before any orbit is weighed
    code = _code("Zm:4", "Zm:4", "identity", "pow:2")
    assert code.orbits.label(0, 1) == code.orbits.label(0, 3)
    with pytest.raises(InvalidParameter, match="weight table on Zm:4 is not "
                       "constant on the unit orbit of 3"):
        weight_enumerator(code, WeightTable(code.sub, 1, (0, 1, 1, 3)))
    # the homogeneous weight keeps the scalars
    hom = hom_weight(code.sub, 1)
    assert weight_enumerator(code, hom) == _codeword_sum_enumerator(code, hom)


def _unit_invariant(S, values) -> bool:
    """Whether w(s*y) = w(y) for every unit s and every y, through S's own
    ``mul``."""
    return all(values[S.mul(s, y)] == values[y]
               for s in S.units() for y in range(S.order))


@settings(max_examples=60, deadline=None)
@given(code=_orbit_codes(), data=st.data())
def test_orbit_weights_refuse_exactly_the_tables_that_are_not_unit_invariant(
        code, data):
    # a table drawn per element, and one drawn per orbit of the oracle's
    # unit action, which every code weighs as its codewords sum
    S = code.sub
    values = data.draw(st.lists(st.integers(0, 3), min_size=S.order,
                                max_size=S.order))
    orbit_value = {}
    for y in range(S.order):
        key = min(S.mul(s, y) for s in S.units())
        orbit_value.setdefault(key, data.draw(st.integers(0, 3)))
    invariant = [orbit_value[min(S.mul(s, y) for s in S.units())]
                 for y in range(S.order)]
    for table in (values, invariant):
        table = WeightTable(S, 1, table)
        if _unit_invariant(S, table.values):
            assert (weight_enumerator(code, table)
                    == _codeword_sum_enumerator(code, table))
        else:
            with pytest.raises(InvalidParameter, match="not constant on the unit orbit"):
                orbit_weights(code, table)
    assert _unit_invariant(S, invariant)


def test_orbits_are_found_once_per_code():
    code = _code("Zm:13", "Zm:13", "identity", "pow:3")
    for table in (hom_weight(code.sub, 1), hamming_table(code.sub),
                  hom_weight(code.sub, F(1, 2))):
        assert orbit_weights(code, table)[0] is code.orbits


MOMENT_CODES = [
    ("Zm:10", "Zm:10", "identity", "pow:3"),
    ("Zm:58", "Zm:58", "identity", "pow:27"),
    ("Zm:12", "Zm:12", "identity", "pow:5"),
    ("GR:3,2,2", "Zm:9", "galois", "frank:rand:7"),
    ("GR:2,2,2", "GR:2,2,2", "identity", "frank:id"),
    ("FXY:3", "FXY:3", "identity", "sigmaquad:swapxy"),
    ("FXY:2", "Zm:2", "fxy-sum", "sigmaquad:swapxy"),
    ("GR:2,3,2", "Zm:8", "galois", "sigmaquad:frobenius"),
    ("GR:2,1,6", "GR:2,1,3", "galois", "pow:3"),
    ("Z4X", "Zm:4", "z4x:0,1", "pow:2"),
]


def _first_moment(enum):
    return sum(w * c for w, c in _weights(enum))


@pytest.mark.parametrize("case", MOMENT_CODES, ids=" ".join)
@pytest.mark.parametrize("gamma", [F(1), F(1, 2)], ids=str)
def test_weight_enumerators_meet_their_first_moment(case, gamma):
    # every x != 0 is a coordinate onto a nonzero ideal of S (f(0) = 0 here)
    code = _code(*case)
    live = code.ring.order - 1
    hom = weight_enumerator(code, hom_weight(code.sub, gamma))
    assert _first_moment(hom) == gamma * code.size * live
    S = code.sub
    ham = weight_enumerator(code, hamming_table(S))
    if len(S.units()) == S.order - 1:
        assert _first_moment(ham) == (1 - F(1, S.order)) * code.size * live


@pytest.mark.parametrize("case", sorted(set(SMALL_CODES + KERNEL_CASES + MOMENT_CODES)),
                         ids=" ".join)
def test_no_two_kernel_pairs_share_a_beta(case):
    # (alpha, beta) and (alpha', beta) in K give T((alpha - alpha')*R) = 0,
    # and ker T holds no nonzero ideal: ``code_kernel`` keeps one alpha a key
    betas = [beta for _, beta in _orbit_case(case).kernel]
    assert len(betas) == len(set(betas))


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(SMALL_CODES),
       gamma=st.sampled_from([F(1), F(1, 2), F(2, 3), F(3), None]))
def test_an_enumerator_from_fraction_weights_equals_the_integer_one(case, gamma):
    # None weighs by Hamming; the reference sums each codeword's weights as
    # Fractions and hands them over as Fraction keys with a Fraction gamma
    code = _code(*case)
    table = hamming_table(code.sub) if gamma is None else hom_weight(code.sub, gamma)
    enum = weight_enumerator(code, table)
    per_element = [F(v, table.den) for v in table.values]
    counts = Counter(sum((per_element[s] for s in cw), F(0))
                     for cw in least_pairs(code))
    ref = WeightEnumerator(counts, gamma=F(*table.gamma), kind=table.kind)
    assert ref == enum and hash(ref) == hash(enum)
    assert (ref.den, ref.items, ref.counts) == (enum.den, enum.items, enum.counts)
    assert ref.poly_str() == enum.poly_str()
    assert ref.to_records() == enum.to_records()
    # one denominator, the least that makes every weight an integer
    assert enum.den == lcm(*(w.denominator for w in counts))


def test_the_first_moment_counts_x_0_when_f_0_is_not_0():
    R = ring_from_spec("Zm:5")
    f = table_map(R, [1, 3, 0, 2, 2])
    code = build_code(R, R, identity_trace(R), f)
    for table in (hom_weight(R, 1), hom_weight(R, F(1, 2)), hamming_table(R)):
        enum = weight_enumerator(code, table)
        assert enum == _codeword_sum_enumerator(code, table)
    assert _first_moment(weight_enumerator(code, hom_weight(R, 1))) == code.size * 5


def _weigh_through_r(code):
    """Weigh the orbits through R's own Hamming weight, not through S's
    w o T: a "trace" onto {0, 1} of S that is 1 exactly off 0."""
    code.orbits   # found through the true trace
    code.trace = SimpleNamespace(values=[code.sub.one if v else 0
                                         for v in range(code.ring.order)])


def _size_off_by_one(code):
    code.orbits.sizes[-1] += 1


def _orbit_dropped(code):
    del code.orbits.reps[-1], code.orbits.sizes[-1]


_FRANK = (("GR:3,2,2", "Zm:9", "galois", "frank:rand:7"), hom_weight)
_GALOIS = (("GR:2,1,6", "GR:2,1,3", "galois", "pow:3"), hom_weight)
_FXY_HAMMING = (("FXY:2", "Zm:2", "fxy-sum", "sigmaquad:swapxy"), hamming_table)
_GALOIS_HAMMING = (_GALOIS[0], hamming_table)


# R's homogeneous weight also averages gamma over every ideal, so a
# homogeneous table read through it meets the same moment: that mutant is
# seen on Hamming tables over a field S
@pytest.mark.parametrize("mutant,case,weight", [
    *((m, *c) for m in (_size_off_by_one, _orbit_dropped)
      for c in (_FRANK, _GALOIS, _FXY_HAMMING)),
    (_weigh_through_r, *_FXY_HAMMING),
    (_weigh_through_r, *_GALOIS_HAMMING),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v.__name__)
def test_the_first_moment_refuses_a_wrong_orbit_route(mutant, case, weight):
    code = _code(*case)
    mutant(code)
    with pytest.raises(InternalInvariantViolation, match="weights of .* sum to"):
        weight_enumerator(code, weight(code.sub))


@pytest.mark.parametrize("mutant", [_size_off_by_one, _orbit_dropped],
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("argv,message", [
    (["--ring", "Zm:29", "--f", "pow:11", "--weight", "hamming"],
     "hamming weights of pow:11 on Zm:29 over Zm:29 sum to"),
    (["--ring", "Zm:34", "--f", "pow:11"],
     "homogeneous weights of pow:11 on Zm:34 over Zm:34 sum to"),
], ids=["Zm:29 hamming", "Zm:34 homogeneous"])
def test_a_graph_job_refuses_a_wrong_orbit_route(capsys, monkeypatch, mutant,
                                                 argv, message):
    # the graph reads the same checked orbit weights as the enumerator
    assert cli.main(["code", "graph", *argv]) == 0
    capsys.readouterr()
    honest = cli.code_from_specs

    def corrupted(*args, **kwargs):
        code = honest(*args, **kwargs)
        mutant(code)
        return code

    monkeypatch.setattr(cli, "code_from_specs", corrupted)
    assert cli.main(["code", "graph", *argv]) == 70
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_zp_power_closed_form_on_z509():
    # by brute force this would be |R|^3 = 1.3e8 lookups and a dict of
    # 259081 codewords; the orbits weigh 5 codewords at |R| lookups each
    code = _code("Zm:509", "Zm:509", "identity", "pow:3")
    enum = weight_enumerator(code, hamming_table(code.sub))
    assert enum == zp_power_enumerator(509, 3)


# ---------------------------------------------------------------------------
# closed forms vs brute force


def test_frank_subring_closed_form_matches_brute_force():
    for q, k, ring_spec, sub_spec in ((2, 2, "GR:2,2,2", "Zm:4"),
                                      (3, 2, "GR:3,2,2", "Zm:9")):
        code = _code(ring_spec, sub_spec, "galois", "frank:id")
        brute = _brute_force(code, hom_weight(code.sub, 1))
        assert brute == closed_form_enumerator("frank-subring", (q, k))
        assert code_spectrum(code) == closed_form_spectrum("frank-subring", (q, k))


def test_frank_self_closed_form_matches_brute_force():
    for p, r in ((2, 2), (3, 2)):
        code = _code(f"GR:{p},2,{r}", f"GR:{p},2,{r}", "identity", "frank:id")
        brute = _brute_force(code, hom_weight(code.sub, 1))
        assert brute == closed_form_enumerator("frank-self", (p, r))
        assert code_spectrum(code) == closed_form_spectrum("frank-self", (p, r))


@pytest.mark.parametrize("p,d", [(5, 3), (7, 4), (11, 3), (13, 5)])
def test_zp_power_closed_form_matches_brute_force(p, d):
    code = _code(f"Zm:{p}", f"Zm:{p}", "identity", f"pow:{d}")
    brute = _brute_force(code, hamming_table(code.sub))
    assert brute == closed_form_enumerator("zp-power", (p, d))
    with pytest.raises(InvalidParameter):
        closed_form_spectrum("zp-power", (p, d))


@pytest.mark.parametrize("p,d", [(5, 3), (7, 4)])
def test_z2p_power_closed_form_matches_brute_force(p, d):
    code = _code(f"Zm:{2 * p}", f"Zm:{2 * p}", "identity", f"pow:{d}")
    brute = _brute_force(code, hom_weight(code.sub, 1))
    assert brute == closed_form_enumerator("z2p-power", (p, d))
    assert code_spectrum(code) == closed_form_spectrum("z2p-power", (p, d))


def test_sigma_quadratic_closed_form_over_residue_field_of_two():
    # Z_4 and Z_8 presented as Galois rings, so frobenius is the identity
    for spec in ("GR:2,2,1", "GR:2,3,1"):
        code = _code(spec, spec, "identity", "sigmaquad:frobenius")
        brute = _brute_force(code, hom_weight(code.sub, 1))
        assert brute == closed_form_enumerator("sigma-quadratic", (code.ring,))


def test_sigma_quadratic_closed_form_deviates_for_larger_residue_fields():
    # For residue fields with k > 2 elements the transcribed table
    # over-counts weight n - m by k - 1 and under-counts the top weight n by
    # the same amount.  The closed form corrects it and must match brute
    # force on every ring here, not only on the two rings of records 9-10.
    for spec, f_spec in (("GR:2,3,2", "sigmaquad:frobenius"),
                         ("FXY:3", "sigmaquad:swapxy"),
                         ("GR:2,1,2", "sigmaquad:frobenius"),
                         ("GR:3,1,2", "sigmaquad:frobenius"),
                         ("GR:5,1,1", "sigmaquad:frobenius"),
                         ("GR:3,2,1", "sigmaquad:frobenius"),
                         ("GR:2,2,2", "sigmaquad:frobenius"),
                         ("GR:5,2,1", "sigmaquad:frobenius")):
        code = _code(spec, spec, "identity", f_spec)
        R = code.ring
        n, m, k = R.order, len(R.nonunits()), R.residue_size()
        assert k > 2
        brute = _brute_force(code, hom_weight(R, 1))
        assert brute == closed_form_enumerator("sigma-quadratic", (R,))
        transcribed = WeightEnumerator({
            0: 1,
            n - m: k * n - k * k + k - 1,
            n - F(n * m, n - m): (k - 1) ** 2,
            n: n * n - k * n + k - 1,
        })
        low, top = F(n - m), F(n)
        assert transcribed[low] - brute[low] == k - 1
        assert brute[top] - transcribed[top] == k - 1
        rest = {w for w, _ in _weights(brute)} - {low, top}
        assert all(brute[w] == transcribed[w] for w in rest)
        assert code_spectrum(code) == closed_form_spectrum("sigma-quadratic", (R,))


def test_closed_form_counts_and_first_moments_are_identities():
    # the closed forms are not checked as they are built: their counts sum
    # to |C| and, at gamma = 1 with S = R, their weights to |C| * (|R| - 1)
    for q in (2, 3, 5, 7):
        for k in (2, 3, 4, 5):
            assert closed_form_enumerator("frank-subring", (q, k)).total == q ** (3 * k)
    for spec in ("GR:2,2,1", "GR:2,3,1", "GR:2,1,2", "GR:2,1,5", "GR:3,1,3",
                 "GR:5,1,2", "GR:7,1,1", "GR:3,2,2", "GR:2,3,2", "GR:5,2,1",
                 "FXY:2", "FXY:3", "Z4X"):
        R = ring_from_spec(spec)
        n = R.order
        enum = closed_form_enumerator("sigma-quadratic", (R,))
        size = n * n if R.residue_size() > 2 else n * n // 2
        assert enum.total == size, spec
        assert _first_moment(enum) == size * (n - 1), spec


def test_closed_form_dispatch_errors():
    with pytest.raises(UnknownPreset):
        closed_form_enumerator("mystery", (2, 2))
    with pytest.raises(OutOfRange):
        closed_form_enumerator("frank-subring", (4, 2))
    with pytest.raises(OutOfRange):
        closed_form_enumerator("frank-self", (2, 1))
    with pytest.raises(OutOfRange):
        closed_form_enumerator("zp-power", (5, 9))


# ---------------------------------------------------------------------------
# enumerators and spectra


def test_weight_enumerator_rendering():
    e = WeightEnumerator({F(0): 1, F(3, 2): 2, F(4): 1})
    assert e.poly_str() == "1+2X^{3/2}+X^4"
    assert e.to_records() == [
        {"weight": "0/1", "count": 1},
        {"weight": "3/2", "count": 2},
        {"weight": "4/1", "count": 1},
    ]
    assert e[F(3, 2)] == 2 and e[(6, 4)] == 2 and e[7] == 0 and e[F(7, 2)] == 0
    assert (e.den, e.items, e.counts) == (2, ((0, 1), (3, 2), (8, 1)),
                                          {0: 1, 3: 2, 8: 1})
    assert e.total == 4


def test_spectrum_set_semantics():
    den, lam = code_spectrum(_code("GR:2,2,2", "Zm:4", "galois", "frank:id"))
    assert (den, lam) == (1, (16, 4, 0, -4))
    assert all(type(v) is int for v in lam)


def test_enumerators_with_equal_counts_differ_by_gamma_and_kind():
    counts = {0: 1, 4: 3, 8: 27, 12: 1}
    half = WeightEnumerator(counts, gamma=F(1, 2))
    assert half != WeightEnumerator(counts)
    assert half == WeightEnumerator(counts, gamma=F(1, 2))
    assert hash(half) == hash(WeightEnumerator(counts, gamma=F(1, 2)))
    assert len({half, WeightEnumerator(counts)}) == 2
    hamming = zp_power_enumerator(5, 3)
    assert hamming != WeightEnumerator(hamming.counts, den=hamming.den)
    assert hamming == WeightEnumerator(hamming.counts, kind="hamming", den=hamming.den)
