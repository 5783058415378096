"""Homogeneous weights: one table per ring, checked once when it is built.

The character route evaluates w(x) = gamma * (1 - S_x / |R^x|) with S_x the
sum of chi over the unit multiples of x, an integer read off Ramanujan sums
(``hom_weight``), one per unit orbit.  So at gamma = 1 every weight
is the integer |R^x| - S_x over the denominator |R^x|, and a table is held
as integer numerators over one denominator; gamma = a/b scales them by a
and the denominator by b.  The axiomatic route solves a triangular system
at gamma = 1, one equation per unit orbit: the generators of a cyclic
module xR are the associates of x, its unit orbit, so xR is that orbit and
orbits of smaller modules, and summing w over xR must give |xR|.  So the
weight of x's orbit is determined once the smaller modules are solved, by
an exact division of integers over the same denominator.
``hom_weight`` builds the gamma = 1 table by the character route and
compares it entry by entry with the axiomatic route, raising
``InternalInvariantViolation`` on a mismatch.  Other values of gamma scale
the checked table, and every transform value is derived from it.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import index

from .cyclotomic import Cyclotomic, rational_str, reduced
from .errors import InternalInvariantViolation, InvalidParameter, NotLocal, ParseError
from .rings import Ring, _cached
from .traces import canonical_character


class WeightTable:
    """Per-element weights over a ring: integer numerators ``values`` over
    one denominator ``den``, with the gamma they satisfy as a reduced
    (num, den) pair.  Two tables are equal when they weigh every element of
    one ring alike, whatever their denominators."""

    def __init__(self, ring: Ring, gamma, values, kind: str = "homogeneous",
                 den: int = 1):
        self.ring = ring
        self.gamma = _gamma(gamma)
        self.values = tuple(map(index, values))
        self.den = den
        if len(self.values) != ring.order:
            raise InvalidParameter("weight table must cover the ring")
        self.kind = kind

    @cached_property
    def reduced(self) -> tuple:
        """(den, values) with no common factor left among them."""
        g = gcd(self.den, *self.values)
        return self.den // g, tuple(v // g for v in self.values)

    def __eq__(self, other):
        return (
            isinstance(other, WeightTable)
            and self.ring is other.ring
            and self.reduced == other.reduced
        )

    def __hash__(self):
        return hash((id(self.ring), self.reduced))

    def __repr__(self):
        return (f"WeightTable({self.ring.name}, gamma={rational_str(*self.gamma)}, "
                f"kind={self.kind})")


def _gamma(gamma) -> tuple[int, int]:
    """gamma, an int, a Fraction or a (num, den) pair of ints, as a reduced
    pair; a zero den, a negative gamma or any other value is refused."""
    num, den = gamma if isinstance(gamma, tuple) and len(gamma) == 2 else (
        getattr(gamma, "numerator", None), getattr(gamma, "denominator", 0))
    if not (isinstance(num, int) and isinstance(den, int) and den and num * den >= 0):
        raise InvalidParameter(f"gamma must be an int, a Fraction or a (num, den) "
                               f"pair with den != 0, and >= 0; got {gamma!r}")
    return reduced(num, den)


@_cached(lambda ring, gamma=1: (ring, ("hom_weight", _gamma(gamma))))
def hom_weight(ring: Ring, gamma=1) -> WeightTable:
    """The homogeneous weight, cached per (ring, gamma).

    At gamma = 1, w(x) = 1 - S_x/|R^x|: the numerator |R^x| - S_x over
    |R^x|, S_x the sum of the canonical character chi over the unit
    multiples u*x.  u -> u*x meets each member of x's unit orbit
    |R^x|/|orbit| times, so S_x is that many times the sum of chi over the
    orbit, read once per orbit as the Galois average of the histogram h of
    the exponents of chi(y), y in the orbit, which is the sum itself: each
    j prime to m is a unit, so h[j*e] = h[e].  The table must equal the
    axiomatic solve entry by entry; any other gamma = a/b scales its
    numerators by a and its denominator by b."""
    a, b = _gamma(gamma)
    if (a, b) != (1, 1):
        base = hom_weight(ring, 1)
        return WeightTable(ring, (a, b), [a * v for v in base.values],
                           den=b * base.den)
    char = canonical_character(ring)
    m, exps, nunits = char.conductor, char.exps, len(ring.units())
    orbit_of, orbits = ring.unit_orbits()
    per_orbit = []
    for orbit in orbits:
        h = [0] * m
        for y in orbit:
            h[exps[y]] += 1
        orbit_sum = Cyclotomic.from_exponent_counts(m, h).value
        per_orbit.append(nunits - nunits // len(orbit) * orbit_sum)
    table = WeightTable(ring, 1, [per_orbit[i] for i in orbit_of], den=nunits)
    solved = hom_weight_axiomatic(ring)
    for x, (wc, wa) in enumerate(zip(table.values, solved.values)):
        if wc * solved.den != wa * table.den:
            raise InternalInvariantViolation(
                f"homogeneous weight of {ring.render(x)} in {ring.name}: "
                f"character route {rational_str(wc, table.den)}, "
                f"axiomatic route {rational_str(wa, solved.den)}")
    return table


def _modules(ring: Ring) -> list:
    """Each unit orbit's cyclic module xR, x its least member, as the set
    of orbits that the row mul[x] meets, since xR holds u*y with y.  The
    generators of xR are the associates of x, its unit orbit, so every
    other orbit in xR has a smaller module."""
    mot, (orbit_of, orbits) = ring.mul_table(), ring.unit_orbits()
    return [{orbit_of[y] for y in mot[orbit[0]]} for orbit in orbits]


def hom_weight_axiomatic(ring: Ring) -> WeightTable:
    """Solve the module-sum equations at gamma = 1 bottom-up by module size,
    in numerators over |R^x|, the character route's denominator: w(0) = 0,
    and summing w over xR must give |xR|, which fixes the weight of x's
    orbit once the smaller modules in xR are solved.  The solved table
    meets the axioms as it is built.  The homogeneous weight's denominators
    divide |R^x|, so each solve is an exact division; one that is not
    contradicts that and raises InternalInvariantViolation."""
    orbit_of, orbits = ring.unit_orbits()
    den, modules = len(ring.units()), _modules(ring)
    sizes = [sum(len(orbits[j]) for j in mod) for mod in modules]
    w = [0] * len(orbits)
    for i in sorted(range(1, len(orbits)), key=sizes.__getitem__):
        # x's own orbit is in modules[i] and still weighs 0 here
        rest = den * sizes[i] - sum(w[j] * len(orbits[j]) for j in modules[i])
        w[i], left = divmod(rest, len(orbits[i]))
        if left:
            raise InternalInvariantViolation(
                f"the homogeneous weight of {ring.render(orbits[i][0])} in "
                f"{ring.name} is {rational_str(rest, len(orbits[i]) * den)}, "
                f"whose denominator does not divide {den}")
    return WeightTable(ring, 1, [w[i] for i in orbit_of], den=den)


def validate_weight(wt: WeightTable) -> dict:
    """Check w(0)=0, constancy on generator classes, and module sums;
    report every violation, its values as ``num/den``, the classes in the
    order of their modules' ascending members."""
    ring, den, values = wt.ring, wt.den, wt.values
    a, b = wt.gamma
    (orbit_of, orbits), modules = ring.unit_orbits(), _modules(ring)
    violations = []
    if values[0] != 0:
        violations.append({"axiom": "zero", "x": 0,
                           "value": rational_str(values[0], den)})
    order = sorted(range(len(orbits)),
                   key=lambda i: sorted(y for j in modules[i] for y in orbits[j]))
    for gens in (orbits[i] for i in order):
        base = values[gens[0]]
        for y in gens[1:]:
            if values[y] != base:
                violations.append({"axiom": "orbit-constant", "x": gens[0], "y": y,
                                   "wx": rational_str(base, den),
                                   "wy": rational_str(values[y], den)})
    sums = [(sum(values[y] for j in mod for y in orbits[j]),
             sum(len(orbits[j]) for j in mod)) for mod in modules]
    for x in range(1, ring.order):
        total, size = sums[orbit_of[x]]
        # total/den == a*size/b
        if total * b != a * size * den:
            violations.append({"axiom": "orbit-sum", "x": x,
                               "sum": rational_str(total, den),
                               "expected": rational_str(a * size, b)})
    return {"valid": not violations, "violations": violations}


def hamming_table(ring: Ring) -> WeightTable:
    """w(0)=0 and w(x)=1 otherwise, at gamma 1; homogeneous only over fields."""
    values = [0] + [1] * (ring.order - 1)
    return WeightTable(ring, 1, values, kind="hamming")


def parse_gamma(spec: str, ring: Ring) -> tuple[int, int]:
    """gamma grammar: `<num>/<den>` | integer | `hamming-normalized`
    (= (q-1)/q for the residue field size q of a local ring); gamma >= 0.
    The value is a reduced (num, den) pair.  Digits and `<digits>/<digits>`
    are read with int; any other spelling is read as ``Fraction(spec)``
    reads it (a sign, a decimal point, an exponent, underscores)."""
    spec = spec.strip()
    if spec == "hamming-normalized":
        if not ring.is_local():
            raise NotLocal(
                f"hamming-normalized gamma needs a local ring, got {ring.name}"
            )
        q = ring.residue_size()
        return reduced(q - 1, q)
    num, slash, den = spec.partition("/")
    try:
        # int refuses what Fraction refuses: past 4300 digits, a zero den
        if (num.isascii() and num.isdigit()
                and (not slash or den.isascii() and den.isdigit())):
            num, den = int(num), int(den) if slash else 1
            if den == 0:
                raise ZeroDivisionError
            return reduced(num, den)
        from fractions import Fraction  # only the other spellings need it

        gamma = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad gamma spec {spec!r}")
    if gamma < 0:
        raise ParseError(f"gamma must be >= 0, got {spec!r}")
    return gamma.numerator, gamma.denominator
