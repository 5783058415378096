"""Ring construction and structure across all four families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homring.errors import (BadPermutation, InvalidParameter, InvalidRing,
                            NotLocal, ParseError, UnknownPreset)
from homring.rings import (GaloisRing, IntegerModRing, TableRing, fxy_ring,
                           make_galois_ring, named_automorphism,
                           permutation_of_teichmuller, ring_from_spec,
                           z4x_conjugation, z4x_ring)

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
    p_elt = R.element_from_int(R.p)
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
            coeffs = [int(c) % R.pn for c in rem] + [0] * (R.r - len(rem))
            assert R.mul(a, b) == R.encode(coeffs), (a, b)


def test_teichmuller_set_and_digits():
    R = ring_from_spec("GR:3,2,2")
    t = R.teichmuller()
    assert t.elements[0] == 0
    assert len(t.elements) == 9
    for x in t.elements[1:]:
        assert R.pow(x, 8) == R.one
    # digits are Teichmueller and reassemble the element
    for a in range(R.order):
        digits = R.padic_digits(a)
        assert len(digits) == R.n
        assert all(d in t.index_of for d in digits)
        assert R.from_padic_digits(digits) == a


@given(st.integers(min_value=0, max_value=4095))
@settings(max_examples=80)
def test_digit_round_trip_gr_2_3_2(a):
    R = ring_from_spec("GR:2,3,2")
    a %= R.order
    assert R.from_padic_digits(R.padic_digits(a)) == a


def test_nu_picks_the_teichmuller_part():
    R = ring_from_spec("GR:2,2,2")
    t = R.teichmuller()
    p_elt = R.element_from_int(2)
    max_ideal = {R.mul(p_elt, a) for a in range(R.order)}
    for a in range(R.order):
        assert R.sub(a, t.nu[a]) in max_ideal


def test_frobenius_fixes_exactly_the_base_ring():
    R = ring_from_spec("GR:2,2,2")
    frob = named_automorphism(R, "frobenius")
    fixed = {a for a in range(R.order) if frob(a) == a}
    base = {R.element_from_int(c) for c in range(4)}
    assert fixed == base
    # order r in the automorphism group
    assert all(frob(frob(a)) == a for a in range(R.order))


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


def test_z4x_conjugation_is_an_involution():
    R = z4x_ring()
    sigma = z4x_conjugation(R)
    assert sigma(4) == 12
    assert all(sigma(sigma(a)) == a for a in range(16))


def test_swap_xy_is_an_automorphism_of_fxy_only():
    R = fxy_ring(2)
    sigma = named_automorphism(R, "swap-xy")
    assert sigma(2) == 4 and sigma(4) == 2 and sigma(8) == 8
    with pytest.raises(UnknownPreset):
        named_automorphism(ring_from_spec("GR:2,2,2"), "swap-xy")
    with pytest.raises(UnknownPreset):
        named_automorphism(R, "frobenius")


def test_invalid_table_ring_is_rejected():
    # break associativity of multiplication in a 2-element table
    add = [[0, 1], [1, 0]]
    mul = [[0, 0], [0, 1]]
    assert TableRing(add, mul, "ok").order == 2
    bad_mul = [[0, 1], [0, 1]]
    with pytest.raises(InvalidRing):
        TableRing(add, bad_mul, "bad")


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
