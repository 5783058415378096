"""Ring construction and structure across all four families."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homring import rings, traces, verify, weights
from homring.codes import (frank_map, power_map, random_teich_permutation,
                           sigma_quadratic_map)
from homring.errors import (BadPermutation, HomringError,
                            InternalInvariantViolation, InvalidParameter,
                            NotLocal, ParseError, UnknownPreset,
                            WrongRingFamily)
from homring.rings import (GaloisRing, IntegerModRing, SubringEmbedding,
                           TableRing, frobenius, fxy_ring, make_galois_ring,
                           make_integer_ring, permutation_of_teichmuller,
                           ring_from_spec, swap_xy, z4x_ring)
from homring.traces import (canonical_character, char_fixed_by,
                            enumerate_trace_maps, fxy_sum_trace, galois_trace,
                            generating_character, z4x_trace)

from homring.weights import WeightTable, cyclic_submodules

from ring_oracle import (SETUP_GRID, cyclic_submodules_by_elements,
                         element_from_int, embedding_by_elements,
                         embedding_refusal_by_scan, frobenius_by_digits,
                         from_padic_digits, fxy_by_coordinates,
                         fxy_sum_by_digits, greedy_generators,
                         mul_table_by_cells, padic_digits,
                         refusal_names_a_failing_pair, swap_xy_by_digits,
                         z4x_by_coordinates, z4x_trace_by_digits)

ALL_SPECS = [
    "Zm:4", "Zm:5", "Zm:6", "Zm:7", "Zm:8", "Zm:9", "Zm:10", "Zm:14",
    "GR:2,1,2", "GR:2,1,3", "GR:2,2,2", "GR:3,2,2", "GR:2,3,2",
    "FXY:2", "FXY:3", "Z4X",
]

st_modulus = st.integers(min_value=2, max_value=40)


# ---------------------------------------------------------------------------
# integer residue rings


@given(st_modulus, st.integers(), st.integers(), st.integers())
@settings(max_examples=150)
def test_zm_is_a_commutative_ring(m, a, b, c):
    R = IntegerModRing(m)
    a, b, c = a % m, b % m, c % m
    assert R.add(a, b) == R.add(b, a)
    assert R.mul(a, b) == R.mul(b, a)
    assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
    assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
    assert R.add(a, R.neg(a)) == 0
    assert R.mul(a, R.one) == a


def test_zm_structure():
    R = ring_from_spec("Zm:12")
    assert R.order == 12 and R.characteristic() == 12
    assert R.units() == (1, 5, 7, 11)
    assert not R.is_local()
    assert set(R.radical()) == {0, 6}


@pytest.mark.parametrize("m,local", [(4, True), (5, True), (6, False),
                                     (8, True), (9, True), (10, False)])
def test_zm_locality(m, local):
    assert ring_from_spec(f"Zm:{m}").is_local() is local


def test_non_local_ring_has_no_teichmuller_set():
    with pytest.raises(NotLocal):
        ring_from_spec("Zm:6").teichmuller()
    with pytest.raises(NotLocal):
        ring_from_spec("Zm:10").residue_size()


# ---------------------------------------------------------------------------
# Galois rings


@pytest.mark.parametrize("spec,reduction", [
    ("GR:2,1,2", (1, 1)),          # x^2 = 1 + x over F_2
    ("GR:2,1,3", (1, 1, 0)),       # x^3 = 1 + x over F_2
    ("GR:2,2,2", (3, 3)),          # x^2 = 3 + 3x over Z_4
    ("GR:3,2,2", (1, 5)),          # x^2 = 1 + 5x over Z_9
    ("GR:2,3,2", (7, 7)),          # x^2 = 7 + 7x over Z_8
])
def test_galois_modulus_is_the_hensel_lift(spec, reduction):
    R = ring_from_spec(spec)
    assert R.reduction == reduction
    # the class of x must be a Teichmueller unit of full order p^r - 1
    q = R.p ** R.r
    assert R.pow(R.xbar, q - 1) == R.one
    powers = {R.pow(R.xbar, k) for k in range(q - 1)}
    assert len(powers) == q - 1


@pytest.mark.parametrize("spec", ["GR:2,2,2", "GR:3,2,2", "GR:2,3,2", "GR:2,1,3"])
def test_galois_ring_structure(spec):
    R = ring_from_spec(spec)
    assert isinstance(R, GaloisRing)
    assert R.order == (R.p ** R.n) ** R.r
    assert R.characteristic() == R.p ** R.n
    assert R.is_local()
    assert R.residue_size() == R.p ** R.r
    assert len(R.units()) == R.order - R.order // R.residue_size()
    # maximal ideal = pR = the non-units
    p_elt = element_from_int(R, R.p)
    pR = {R.mul(p_elt, a) for a in range(R.order)}
    assert pR == set(R.nonunits())


@pytest.mark.parametrize("spec", ["GR:2,2,2", "GR:3,2,2", "GR:2,1,4"])
def test_galois_mul_matches_sympy_polynomial_arithmetic(spec):
    sympy = pytest.importorskip("sympy")
    R = ring_from_spec(spec)
    x = sympy.Symbol("x")
    # x^r = sum reduction[i] x^i, so h = x^r - sum reduction[i] x^i
    h = sympy.Poly([1, *(-c for c in reversed(R.reduction))], x, domain="ZZ")
    polys = [sympy.Poly(list(reversed(R.decode(a))), x, domain="ZZ")
             for a in range(R.order)]
    for a in range(R.order):
        for b in range(R.order):
            rem = (polys[a] * polys[b]).rem(h).all_coeffs()[::-1]
            coeffs = [int(c) % R.m for c in rem] + [0] * (R.r - len(rem))
            assert R.mul(a, b) == R.encode(coeffs), (a, b)
            assert R.mul_table()[a][b] == R.encode(coeffs), (a, b)


@pytest.mark.parametrize("spec", ["GR:2,1,7", "GR:3,1,4", "GR:2,2,5"])
def test_galois_basis_products_match_sympy(spec):
    sympy = pytest.importorskip("sympy")
    R = ring_from_spec(spec)
    x = sympy.Symbol("x")
    h = sympy.Poly([1, *(-c for c in reversed(R.reduction))], x, domain="ZZ")
    for i in range(R.r):
        for j in range(R.r):
            rem = sympy.Poly(x ** (i + j), x, domain="ZZ").rem(h).all_coeffs()[::-1]
            coeffs = [int(c) % R.m for c in rem] + [0] * (R.r - len(rem))
            assert R.mul(R.m**i, R.m**j) == R.encode(coeffs), (i, j)


def test_teichmuller_set_and_digits():
    R = ring_from_spec("GR:3,2,2")
    t = R.teichmuller()
    assert t.elements[0] == 0
    assert len(t.elements) == 9
    for x in t.elements[1:]:
        assert R.pow(x, 8) == R.one
    # digits are Teichmueller and reassemble the element
    for a in range(R.order):
        digits = padic_digits(R, a)
        assert len(digits) == R.n
        assert all(d in t.elements for d in digits)
        assert from_padic_digits(R, digits) == a


@pytest.mark.parametrize("spec", ["Zm:5", "Zm:8", "Zm:9", "Zm:25", "Zm:27", "Zm:49",
                                  "FXY:2", "FXY:3", "Z4X", "GR:2,1,4", "GR:2,2,3",
                                  "GR:2,3,2", "GR:3,2,2", "GR:5,2,1"])
def test_teichmuller_generator_is_the_one_the_torsion_search_picks(spec):
    # the search the walk over the units replaced: the least element of the
    # sorted (q-1)-torsion of exact order q-1; a Galois ring pins the class
    # of x instead, which must be such an element
    R = ring_from_spec(spec)
    q = R.residue_size()
    torsion = sorted(u for u in range(R.order) if R.pow(u, q - 1) == R.one)
    assert len(torsion) == q - 1
    primes = [d for d in range(2, q)
              if (q - 1) % d == 0 and all(d % e for e in range(2, d))]
    exact = [u for u in torsion if all(R.pow(u, (q - 1) // p) != R.one for p in primes)]
    want = R.xbar if isinstance(R, GaloisRing) else exact[0]
    assert want in exact
    assert R.teichmuller().elements == (0, *(R.pow(want, i) for i in range(q - 1)))


def test_a_teichmuller_generator_of_the_wrong_order_is_refused(monkeypatch):
    # x^3 has order 5 in GF(16)^*, not 15, so its powers repeat
    R = ring_from_spec("GR:2,1,4")
    monkeypatch.delitem(R._cache, "teich", raising=False)
    monkeypatch.setattr(GaloisRing, "_teichmuller_generator",
                        lambda self, order: self.pow(self.xbar, 3))
    with pytest.raises(InternalInvariantViolation) as err:
        R.teichmuller()
    assert str(err.value) == "Teichmueller generator order wrong"


@given(st.integers(min_value=0, max_value=4095))
@settings(max_examples=80)
def test_digit_round_trip_gr_2_3_2(a):
    R = ring_from_spec("GR:2,3,2")
    a %= R.order
    assert from_padic_digits(R, padic_digits(R, a)) == a


def test_nu_picks_the_teichmuller_part():
    R = ring_from_spec("GR:2,2,2")
    t = R.teichmuller()
    p_elt = element_from_int(R, 2)
    max_ideal = {R.mul(p_elt, a) for a in range(R.order)}
    for a in range(R.order):
        assert R.sub(a, t.nu[a]) in max_ideal


def test_frobenius_fixes_exactly_the_base_ring():
    R = ring_from_spec("GR:2,2,2")
    frob = frobenius(R)
    fixed = {a for a in range(R.order) if frob(a) == a}
    base = {element_from_int(R, c) for c in range(4)}
    assert fixed == base
    # order r in the automorphism group
    assert all(frob(frob(a)) == a for a in range(R.order))


AUTO_SPECS = ["GR:2,1,3", "GR:2,1,4", "GR:2,2,2", "GR:3,1,2", "GR:2,3,2",
              "GR:3,2,2", "FXY:2", "FXY:3", "Z4X"]


def _known_automorphisms(R, z4x_conjugation):
    """The identity, and the Frobenius powers, swap-xy or t -> -t."""
    if isinstance(R, GaloisRing):
        sigma = frobenius(R).table
        perms = [tuple(range(R.order))]
        for _ in range(R.r - 1):
            perms.append(tuple(sigma[a] for a in perms[-1]))
        return perms
    if R.preset == "fxy":
        return [tuple(range(R.order)), swap_xy(R).table]
    return [tuple(range(R.order)), z4x_conjugation.table]


@st.composite
def _candidate_automorphisms(draw, z4x_conjugation):
    """Additive bijections fixing 1, from random images of the additive
    generators or a known automorphism, with two points swapped or not."""
    R = ring_from_spec(draw(st.sampled_from(AUTO_SPECS)))
    gens, _, steps = R._additive_span()
    assert gens[0] == R.one
    if draw(st.booleans()):
        images = [R.one] + [draw(st.integers(0, R.order - 1)) for _ in gens[1:]]
        aot = R.add_table()
        perm = [0] * R.order
        for y, x, j in steps:
            perm[y] = aot[perm[x]][images[j]]
        assume(len(set(perm)) == R.order)
    else:
        perm = list(draw(st.sampled_from(_known_automorphisms(R, z4x_conjugation))))
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(2, R.order - 1), min_size=2, max_size=2,
                             unique=True))
        perm[a], perm[b] = perm[b], perm[a]
    return R, tuple(perm)


def _automorphism_refusal(R, perm):
    try:
        SubringEmbedding(R, R, perm)
    except InvalidParameter as err:
        return str(err)
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generator_automorphism_check_refuses_exactly_when_the_full_scan_does(
        data, z4x_conjugation):
    # the message names the pair the generator check finds, which may come
    # later in the scan than the scan's first failing pair
    R, perm = data.draw(_candidate_automorphisms(z4x_conjugation))
    refusal = _automorphism_refusal(R, perm)
    assert (refusal is None) == (embedding_refusal_by_scan(R, R, perm) is None)
    assert refusal is None or refusal_names_a_failing_pair(R, R, perm, refusal)


def test_bad_galois_parameters():
    with pytest.raises(InvalidParameter):
        make_galois_ring(4, 2, 2)
    with pytest.raises(InvalidParameter):
        make_galois_ring(2, 0, 2)


# ---------------------------------------------------------------------------
# table rings


def test_fxy_ring_basics():
    R = fxy_ring(2)
    assert isinstance(R, TableRing)
    assert R.order == 16 and R.characteristic() == 2
    assert R.is_local() and R.residue_size() == 2
    # x = index 2, y = index 4: both square to zero, xy = index 8
    assert R.mul(2, 2) == 0 and R.mul(4, 4) == 0
    assert R.mul(2, 4) == 8
    assert set(R.socle()) == {0, 8}


def test_fxy3_counts():
    R = ring_from_spec("FXY:3")
    assert R.order == 81
    assert len(R.units()) == 54
    assert R.residue_size() == 3


def test_z4x_ring_basics():
    R = z4x_ring()
    assert R.order == 16 and R.characteristic() == 4
    assert R.is_local() and R.residue_size() == 2
    # theta = index 4: theta^2 = 2, so theta is nilpotent of index 4
    assert R.mul(4, 4) == 2
    assert R.pow(4, 4) == 0
    assert set(R.socle()) == {0, 8}


def test_z4x_conjugation_is_an_involution(z4x_conjugation):
    sigma = z4x_conjugation
    assert sigma.ring is z4x_ring()
    assert sigma(4) == 12
    assert all(sigma(sigma(a)) == a for a in range(16))


def test_swap_xy_is_an_automorphism_of_fxy_only():
    R = fxy_ring(2)
    sigma = swap_xy(R)
    assert sigma(2) == 4 and sigma(4) == 2 and sigma(8) == 8
    with pytest.raises(UnknownPreset):
        swap_xy(ring_from_spec("GR:2,2,2"))
    with pytest.raises(UnknownPreset):
        frobenius(R)


# ---------------------------------------------------------------------------
# spec grammar and shared structure


def test_ring_from_spec_is_cached():
    assert ring_from_spec("Zm:9") is ring_from_spec("Zm:9")
    assert ring_from_spec("GR:2,2,2") is ring_from_spec("GR:2,2,2")


@pytest.mark.parametrize("bad", ["Qm:4", "Zm:x", "GR:2,2", "FXY:4", "Zm:1"])
def test_bad_ring_specs(bad):
    with pytest.raises((UnknownPreset, ParseError, InvalidParameter)):
        ring_from_spec(bad)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_units_and_nonunits_partition(spec):
    R = ring_from_spec(spec)
    assert len(R.units()) + len(R.nonunits()) == R.order
    assert set(R.radical()) <= set(R.nonunits())
    for a in R.radical():
        # nilpotent
        k, acc = 1, a
        while acc != 0 and k <= R.order:
            acc = R.mul(acc, a)
            k += 1
        assert acc == 0


@pytest.mark.parametrize("spec", ["GR:2,2,2", "GR:3,2,2", "Z4X", "FXY:2"])
def test_socle_is_annihilated_by_the_radical(spec):
    R = ring_from_spec(spec)
    for s in R.socle():
        for m in R.radical():
            assert R.mul(s, m) == 0


def test_permutation_validation():
    R = ring_from_spec("GR:2,2,2")
    assert permutation_of_teichmuller(R, (0, 1, 2, 3)) == (0, 1, 2, 3)
    assert permutation_of_teichmuller(R, (0, 2, 3, 1)) == (0, 2, 3, 1)
    with pytest.raises(BadPermutation):
        permutation_of_teichmuller(R, (1, 0, 2, 3))   # must fix index 0
    with pytest.raises(BadPermutation):
        permutation_of_teichmuller(R, (0, 1, 1, 3))
    with pytest.raises(BadPermutation):
        permutation_of_teichmuller(R, (0, 1, 2))


# ---------------------------------------------------------------------------
# set-up from additive generators, against the slow operations


@pytest.mark.parametrize("spec", SETUP_GRID)
def test_tables_units_and_digits_equal_the_slow_operations(spec):
    R = ring_from_spec(spec)
    n = R.order
    elements = range(n)
    assert R.add_table() == [[R.add(a, b) for b in elements] for a in elements]
    assert R.sub_table() == [[R.sub(a, b) for b in elements] for a in elements]
    units = tuple(a for a in elements if any(R.mul(a, b) == R.one for b in elements))
    assert R.units() == units
    if R.is_local():
        t = R.teichmuller()
        maximal = set(R.nonunits())
        for a in elements:
            hits = [x for x in t.elements if R.sub(a, x) in maximal]
            assert hits == [t.nu[a]], a


@pytest.mark.parametrize("spec", SETUP_GRID)
def test_the_additive_span_is_the_basis_that_the_greedy_search_picks(spec):
    R = ring_from_spec(spec)
    gens, rows, steps = R._additive_span()
    assert gens == greedy_generators(R)
    assert rows == [[R.add(g, v) for v in range(R.order)] for g in gens]
    reached = [0]
    for y, x, j in steps:
        # x is reached before y, and y - x is the basis element of y's
        # lowest nonzero digit
        assert x < y and x in reached and y == R.add(x, gens[j]), (y, x, j)
        assert j == next(i for i, c in enumerate(R.decode(y)) if c), (y, j)
        reached.append(y)
    assert sorted(reached) == list(range(R.order))


@pytest.mark.parametrize("spec", SETUP_GRID)
def test_unit_orbits_partition_the_ring_in_order_of_least_members(spec):
    R = ring_from_spec(spec)
    orbit_of, orbits = R.unit_orbits()
    assert sorted(y for orbit in orbits for y in orbit) == list(range(R.order))
    for i, orbit in enumerate(orbits):
        assert list(orbit) == sorted({R.mul(u, orbit[0]) for u in R.units()})
        assert all(orbit_of[y] == i for y in orbit)
    assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
    assert orbits[0] == (0,) and orbits[1][0] == R.one
    # the modules built per orbit are those built per element
    classes, cls_of = cyclic_submodules(R)
    assert (classes, cls_of) == cyclic_submodules_by_elements(R)
    assert list(classes) == list(cyclic_submodules_by_elements(R)[0])


def _canonical_subrings(R):
    """Zm:c for the characteristic c and, in GR(p^n, r), each GR(p^n, s)
    with s | r (S = R among them)."""
    specs = [f"Zm:{R.characteristic()}"]
    if isinstance(R, GaloisRing):
        specs += [f"GR:{R.p},{R.n},{s}" for s in range(1, R.r + 1) if R.r % s == 0]
    return [ring_from_spec(s) for s in specs]


@pytest.mark.parametrize("spec", SETUP_GRID)
def test_maps_from_generator_images_equal_the_per_element_routes(spec, monkeypatch):
    R = ring_from_spec(spec)
    assert R.mul_table() == mul_table_by_cells(R)
    if isinstance(R, GaloisRing):
        assert list(frobenius(R).table) == frobenius_by_digits(R)
    if getattr(R, "preset", None) == "fxy":
        assert list(swap_xy(R).table) == swap_xy_by_digits(R)
    # the raw tables of embeddings and traces, before the checks that refuse
    # some of them (z4x:l0,l1 is no trace when l1 is not a unit); they are
    # built past R's cache of checked embeddings, and kept in a copy of it
    monkeypatch.setattr(rings, "SubringEmbedding",
                        lambda sub, ring, table, tag: list(table))
    monkeypatch.setattr(traces, "TraceMap",
                        lambda ring, sub, emb, values, tag: list(values))
    monkeypatch.setattr(R, "_cache", dict(R._cache))
    for S in _canonical_subrings(R):
        raw = rings.subring_embedding.__wrapped__(S, R)
        assert raw == embedding_by_elements(S, R), S.name
    if getattr(R, "preset", None) == "fxy":
        S = make_integer_ring(R.m)
        assert fxy_sum_trace(R, S) == fxy_sum_by_digits(R)
    if getattr(R, "preset", None) == "z4x":
        for l0 in range(-4, 8):
            for l1 in range(-4, 8):
                assert (z4x_trace(R, make_integer_ring(4), l0, l1)
                        == z4x_trace_by_digits(l0, l1)), (l0, l1)


@pytest.mark.parametrize("spec", [s for s in SETUP_GRID if s.startswith("GR:")])
def test_frobenius_and_galois_trace_equal_the_digit_route(spec):
    R = ring_from_spec(spec)
    sigma = frobenius_by_digits(R)
    assert list(frobenius(R).table) == sigma
    trace = []
    for a in range(R.order):
        acc, cur = 0, a
        for _ in range(R.r):
            acc, cur = R.add(acc, cur), sigma[cur]
        trace.append(acc)
    S = make_integer_ring(R.m)
    emb = galois_trace(R, S).embedding
    assert [emb(v) for v in galois_trace(R, S).values] == trace


@pytest.mark.parametrize("ring_spec,sub_spec", [
    ("GR:2,1,6", "GR:2,1,2"), ("GR:2,1,6", "GR:2,1,3"), ("GR:2,2,4", "GR:2,2,2"),
    ("GR:3,1,4", "GR:3,1,2"), ("GR:2,1,4", "GR:2,1,2")])
def test_relative_galois_traces_equal_the_conjugate_sum(ring_spec, sub_spec):
    # T(a) = sum of tau^i(a), i < r/s, with tau = sigma^s, on every element
    R, S = ring_from_spec(ring_spec), ring_from_spec(sub_spec)
    sigma = frobenius_by_digits(R)
    trace = []
    for a in range(R.order):
        acc, cur = 0, a
        for _ in range(R.r // S.r):
            acc = R.add(acc, cur)
            for _ in range(S.r):
                cur = sigma[cur]
        trace.append(acc)
    tr = galois_trace(R, S)
    assert [tr.embedding(v) for v in tr.values] == trace


@pytest.mark.parametrize("spec", AUTO_SPECS)
def test_char_fixed_by_equals_the_full_scan(spec, z4x_conjugation):
    R = ring_from_spec(spec)
    chars = [canonical_character(R)]
    if isinstance(R, GaloisRing):
        chars += [generating_character(galois_trace(R, S))
                  for S in _canonical_subrings(R)]
    # the characters of every trace onto Z_char, most of them not fixed
    chars += map(generating_character,
                 enumerate_trace_maps(R, make_integer_ring(R.characteristic())))
    seen = set()
    for perm in _known_automorphisms(R, z4x_conjugation):
        auto = SubringEmbedding(R, R, perm)
        for chi in chars:
            fixed = all(chi.exps[perm[a]] == chi.exps[a] for a in range(R.order))
            assert char_fixed_by(chi, auto) == fixed, (chi.tag, perm)
            seen.add(fixed)
    assert seen == {True, False}
    if spec == "Z4X":
        assert not char_fixed_by(canonical_character(R), z4x_conjugation)


@pytest.mark.parametrize("spec", SETUP_GRID)
def test_code_functions_equal_the_slow_operations(spec):
    R = ring_from_spec(spec)
    n = R.order
    for d in (1, 2, 3, 5, n + 1):
        assert power_map(R, d).table == tuple(R.pow(x, d) for x in range(n))
    if isinstance(R, GaloisRing) and R.n == 2:
        t = R.teichmuller()
        p = element_from_int(R, R.p)
        shuffled = random_teich_permutation(R, 5)
        for perm, f in ((range(len(t.elements)), frank_map(R)),
                        (shuffled, frank_map(R, shuffled))):
            slow = []
            for x in range(n):
                x0, x1 = padic_digits(R, x)
                x0p = t.elements[perm[t.elements.index(x0)]]
                slow.append(R.mul(p, R.mul(x0p, x1)))
            assert f.table == tuple(slow)
    if isinstance(R, GaloisRing) or getattr(R, "preset", None) == "fxy":
        sigma = frobenius(R) if isinstance(R, GaloisRing) else swap_xy(R)
        nu = R.teichmuller().nu
        slow = []
        for a in range(n):
            am = R.sub(a, nu[a])
            slow.append(R.sub(R.mul(sigma(a), a), R.mul(sigma(am), am)))
        assert sigma_quadratic_map(R, sigma).table == tuple(slow)


def _tables_and_renders(R):
    return R.add_table(), R.mul_table(), [R.render(a) for a in range(R.order)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fxy_tables_equal_the_coordinate_formulas(p):
    assert _tables_and_renders(fxy_ring(p)) == fxy_by_coordinates(p)


def test_z4x_tables_equal_the_coordinate_formulas():
    assert _tables_and_renders(z4x_ring()) == z4x_by_coordinates()


@pytest.mark.parametrize("name,m,symbols,oracle", [
    ("FXY:2", 2, ("1", "x", "y", "x*y"), lambda: fxy_by_coordinates(2)),
    ("Z4X", 4, ("1", "t"), z4x_by_coordinates),
])
def test_a_wrong_basis_product_differs_from_the_coordinate_formulas(
        name, m, symbols, oracle):
    # x*y = 0 (then xy spans a third square-zero direction) and t^2 = 0
    # both give rings, so only the oracle tells
    R = TableRing(name, m, symbols, {}, "wrong")
    assert _tables_and_renders(R) != oracle()


def test_tables_call_the_slow_operations_on_generator_rows_only():
    base = ring_from_spec("GR:2,2,3")
    R = GaloisRing(base.p, base.n, base.r, base.reduction)
    calls = {"add": 0, "mul": 0}

    def counted(op):
        def run(a, b):
            calls[op] += 1
            return fn(a, b)
        fn = getattr(R, op)
        return run

    R.add, R.mul = counted("add"), counted("mul")
    assert R.mul_table() == base.mul_table()
    # GR(4, 3) = Z_4^3 additively: the add rows of the three basis elements
    # are read off the encoding, and mul is called once per basis pair
    assert calls == {"add": 0, "mul": 3 * 3}


# ---------------------------------------------------------------------------
# table-ring arithmetic against the tables


@pytest.mark.parametrize("spec", ["Z4X", "FXY:2", "FXY:3"])
def test_table_ring_operations_equal_its_tables_on_every_cell(spec):
    R = ring_from_spec(spec)
    aot, mot, cells = R.add_table(), R.mul_table(), range(R.order)
    assert [[R.add(a, b) for b in cells] for a in cells] == aot
    assert [[R.mul(a, b) for b in cells] for a in cells] == mot
    assert [aot[a][R.neg(a)] for a in cells] == [0] * R.order


# FXY:2 is spanned additively by its basis 1, x, y, xy = indices 1, 2, 4, 8.
def test_fxy2_generators_are_the_basis():
    assert fxy_ring(2)._additive_span()[0] == [1, 2, 4, 8]


# ---------------------------------------------------------------------------
# the radical and the socle, against the slow operations


@pytest.mark.parametrize("spec", ["GR:2,1,6", "GR:2,2,3", "GR:3,2,2", "FXY:3",
                                  "Z4X", "Zm:12", "Zm:36"])
def test_radical_and_socle_equal_the_slow_operations(spec):
    R = ring_from_spec(spec)
    nil = [a for a in range(R.order) if R.pow(a, R.order) == 0]
    assert R.radical() == tuple(nil)
    soc = [a for a in range(R.order) if all(R.mul(a, m) == 0 for m in nil)]
    assert R.socle() == tuple(soc)
    # both are ideals because the ring is commutative, so the library does
    # not check it: closed under + and -, and absorbing every element
    for members in (set(nil), set(soc)):
        assert all(R.neg(a) in members for a in members)
        assert all(R.add(a, b) in members for a in members for b in members)
        assert all(R.mul(r, a) in members for a in members for r in range(R.order))


# ---------------------------------------------------------------------------
# one memo for everything derived from a ring: rings._cached


def test_only_the_memo_and_ring_init_touch_a_ring_cache():
    """An AST scan: ``_cache``, as an attribute or a string, appears only
    inside ``rings._cached`` and ``Ring.__init__``, and no class memoizes
    by hand: none sets ``self.x = None`` and tests ``self.x is None``."""
    import ast
    from pathlib import Path

    def self_attr(node):
        return (node.attr if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                else None)

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    class Touches(ast.NodeVisitor):
        """(file, outermost function, or Class.method) of each touch, and
        (file, Class.attr) of each attribute memoized by hand."""

        def __init__(self, name):
            self.name, self.scope, self.found = name, [], set()
            self.cleared, self.tested = set(), set()

        def _owner(self, attr):
            cls = next((n for n, is_cls in reversed(self.scope) if is_cls), None)
            return self.name, f"{cls}.{attr}"

        def visit_Assign(self, node):
            if is_none(node.value):
                self.cleared |= {self._owner(a) for a in map(self_attr, node.targets)
                                 if a is not None}
            self.generic_visit(node)

        def visit_Compare(self, node):
            if (self_attr(node.left) is not None and isinstance(node.ops[0], ast.Is)
                    and is_none(node.comparators[0])):
                self.tested.add(self._owner(self_attr(node.left)))
            self.generic_visit(node)

        def _enter(self, node):
            self.scope.append((node.name, isinstance(node, ast.ClassDef)))
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

        def _touch(self):
            names = [name for name, _ in self.scope[:2]]
            outer = ".".join(names if self.scope and self.scope[0][1] else names[:1])
            self.found.add((self.name, outer or None))

        def visit_Attribute(self, node):
            if node.attr == "_cache":
                self._touch()
            self.generic_visit(node)

        def visit_Constant(self, node):
            if node.value == "_cache":
                self._touch()

    found, by_hand = set(), set()
    for path in sorted(Path(rings.__file__).resolve().parent.glob("*.py")):
        visitor = Touches(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= visitor.found
        by_hand |= visitor.cleared & visitor.tested
    assert found == {("rings.py", "_cached"), ("rings.py", "Ring.__init__")}
    assert by_hand == set()


# every function rings._cached keeps; the memo test calls each on R, or on
# R and S (Z_c, c the characteristic of R) as below
_MEMOS = (
    "Ring.units", "Ring.nonunits", "Ring.unit_orbits", "Ring.radical",
    "Ring.socle", "Ring.is_local", "Ring.teichmuller", "Ring._additive_span",
    "Ring.add_table", "Ring.mul_table", "Ring.sub_table", "IntegerModRing.units",
    "frobenius", "swap_xy", "subring_embedding", "galois_trace",
    "canonical_character", "_absolute_exponents", "hom_weight",
    "cyclic_submodules",
)
_KEYED = {"subring_embedding": lambda R, S: [(R, R), (S, R)],
          "galois_trace": lambda R, S: [(R,), (R, S)],
          "hom_weight": lambda R, S: [(R, 1), (R, (1, 2))]}


def _memos() -> dict:
    """qualified name -> (defining class or None, function), for each
    function in homring that ``rings._cached`` wraps: every wrapper runs
    the code of the one closure it builds."""
    import importlib
    import pkgutil

    import homring
    code = rings._cached("")(len).__code__
    found = {}
    for info in pkgutil.iter_modules(homring.__path__):
        module = importlib.import_module(f"homring.{info.name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = [(value, v) for v in vars(value).values()] if isinstance(
                value, type) else [(None, value)]
            for owner, fn in members:
                if getattr(fn, "__code__", None) is code:
                    found[fn.__qualname__] = owner, fn
    return found


def _memo_calls(R) -> list:
    """(name, function, args) of each memo that applies to R's class."""
    S = make_integer_ring(R.characteristic())
    return [(name, fn, args) for name, (owner, fn) in _memos().items()
            if owner is None or isinstance(R, owner)
            for args in _KEYED.get(name, lambda R, S: [(R,)])(R, S)]


def _results(calls) -> list:
    """Each call's value, or the HomringError class that refused it."""
    out = []
    for _, fn, args in calls:
        try:
            out.append(fn(*args))
        except HomringError as err:
            out.append(type(err))
    return out


def _same_cache(R, before) -> bool:
    return R._cache.keys() == before.keys() and all(
        R._cache[k] is v for k, v in before.items())


@pytest.mark.parametrize("spec", verify.PROPERTY_RINGS)
def test_each_memo_keeps_its_first_value_and_no_refusal(spec, monkeypatch):
    assert sorted(_memos()) == sorted(_MEMOS)
    family, params = rings.parse_ring_spec_parts(spec)
    R = rings._BUILDERS[family].__wrapped__(*params)   # outside the builders' memo
    calls = _memo_calls(R)
    # every memo but the homogeneous weight, so the weight is refused below
    # on a ring whose cache holds everything it reads
    _results([call for call in calls if call[0] != "hom_weight"])
    before = dict(R._cache)
    honest = weights.hom_weight_axiomatic

    def tampered(ring, gamma=1):
        table = honest(ring, gamma)
        return WeightTable(ring, gamma, [v + 1 for v in table.values], den=table.den)

    bad = make_integer_ring(R.characteristic() + 1)   # embeds in no ring here
    with monkeypatch.context() as patch:
        patch.setattr(weights, "hom_weight_axiomatic", tampered)
        for _ in range(2):   # a refusal is refused again: nothing was kept
            with pytest.raises(WrongRingFamily if family != "galois"
                               else InvalidParameter):
                galois_trace(R, bad)
            with pytest.raises(InvalidParameter, match="does not embed"):
                rings.subring_embedding(bad, R)
            for gamma in (1, (1, 2)):
                with pytest.raises(InternalInvariantViolation):
                    weights.hom_weight(R, gamma)
    assert _same_cache(R, before)
    first = _results(calls)
    before = dict(R._cache)
    again = _results(calls)
    assert _same_cache(R, before)
    for (name, _, args), one, two in zip(calls, first, again):
        assert one is two, (name, args)
