"""Homogeneous weights: one table per ring, checked once when it is built.

The character route evaluates w(x) = gamma * (1 - S_x / |R^x|) with S_x the
sum of chi over the unit multiples of x, an exact rational read off Ramanujan
sums (``Character.unit_sum``), one per unit orbit.  The axiomatic route
solves the triangular system over the poset of cyclic submodules, one set
xR per unit orbit: summing w over a cyclic submodule N must give gamma*|N|,
so the weight of the generator class of N is determined once all smaller
cyclic submodules are solved.
``hom_weight`` builds the gamma = 1 table by the character route and
compares it entry by entry with the axiomatic route, raising
``InternalInvariantViolation`` on a mismatch.  Other values of gamma scale
the checked table, and every transform value is derived from it.
"""

from __future__ import annotations

from math import lcm

from .errors import InternalInvariantViolation, InvalidParameter, NotLocal, ParseError
from .rings import Ring
from .traces import canonical_character


class WeightTable:
    """Per-element weight values over a ring, with the gamma they satisfy."""

    def __init__(self, ring: Ring, gamma, values, kind: str = "homogeneous"):
        from fractions import Fraction

        self.ring = ring
        self.gamma = Fraction(gamma)
        self.values = tuple(Fraction(v) for v in values)
        if len(self.values) != ring.order:
            raise InvalidParameter("weight table must cover the ring")
        self.kind = kind
        self._scaled = None

    def __call__(self, a: int) -> Fraction:
        return self.values[a]

    def __iter__(self):
        return iter(self.values)

    def scaled(self):
        """(D, table of D*w as ints): one common denominator for fast
        exact codeword sums."""
        if self._scaled is None:
            d = 1
            for v in self.values:
                d = lcm(d, v.denominator)
            self._scaled = (d, tuple(int(v * d) for v in self.values))
        return self._scaled

    def __eq__(self, other):
        return (
            isinstance(other, WeightTable)
            and self.ring is other.ring
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.ring), self.values))

    def __repr__(self):
        return (f"WeightTable({self.ring.name}, gamma={self.gamma}, "
                f"kind={self.kind})")


def hom_weight(ring: Ring, gamma=1) -> WeightTable:
    """The homogeneous weight, cached per (ring, gamma).

    At gamma = 1, w(x) = 1 - S_x/|R^x| with S_x the unit-averaged sum of the
    canonical generating character.  That table must equal the axiomatic
    solve entry by entry; any other gamma scales the checked table.  S_x is
    constant on unit orbits, so the character route is evaluated once per
    orbit."""
    from fractions import Fraction

    gamma = Fraction(gamma)
    key = ("hom_weight", gamma)
    if key not in ring._cache:
        if gamma == 1:
            char = canonical_character(ring)
            nunits = len(ring.units())
            orbit_of, orbits = ring.unit_orbits()
            per_orbit = [1 - char.unit_sum(orbit[0]) / nunits for orbit in orbits]
            table = WeightTable(ring, 1, [per_orbit[i] for i in orbit_of])
            solved = hom_weight_axiomatic(ring, 1)
            for x, (wc, wa) in enumerate(zip(table.values, solved.values)):
                if wc != wa:
                    raise InternalInvariantViolation(
                        f"homogeneous weight of {ring.render(x)} in {ring.name}: "
                        f"character route {wc}, axiomatic route {wa}")
        else:
            table = WeightTable(ring, gamma,
                                [gamma * w for w in hom_weight(ring, 1)])
        ring._cache[key] = table
    return ring._cache[key]


def cyclic_submodules(ring: Ring):
    """Map frozenset(xR) -> its generators in increasing order, plus each
    element's module; xR is the row mul[x], since the rings are
    commutative.  u*x generates xR for each unit u, so one set is built per
    unit orbit, and orbits with equal sets are joined: orbits * |R| cells."""
    if "cyclic" not in ring._cache:
        mot, (orbit_of, orbits) = ring.mul_table(), ring.unit_orbits()
        modules = [frozenset(mot[orbit[0]]) for orbit in orbits]
        classes = {}
        for n, orbit in zip(modules, orbits):
            classes[n] = sorted([*classes.get(n, ()), *orbit])
        ring._cache["cyclic"] = classes, [modules[i] for i in orbit_of]
    return ring._cache["cyclic"]


def hom_weight_axiomatic(ring: Ring, gamma=1) -> WeightTable:
    """Solve the orbit-sum equations bottom-up over cyclic submodules.  Each
    module xR has x among its generators, so every equation has a unique
    solution, and the solved table meets the axioms as it is built."""
    from fractions import Fraction

    gamma = Fraction(gamma)
    classes, cls_of = cyclic_submodules(ring)
    order = sorted(classes, key=lambda n: (len(n), sorted(n)))
    w = {}
    for n in order:
        if len(n) == 1:
            w[n] = 0
            continue
        gens = classes[n]
        rest = gamma * len(n)
        for sub in order:
            if sub != n and sub <= n:
                rest -= w[sub] * len(classes[sub])
        w[n] = rest / len(gens)
    return WeightTable(ring, gamma, [w[cls_of[x]] for x in range(ring.order)])


def validate_weight(wt: WeightTable) -> dict:
    """Check w(0)=0, constancy on generator classes, and orbit sums;
    report every violation."""
    ring = wt.ring
    classes, cls_of = cyclic_submodules(ring)
    violations = []
    if wt.values[0] != 0:
        violations.append({"axiom": "zero", "x": 0, "value": str(wt.values[0])})
    for n, gens in sorted(classes.items(), key=lambda kv: sorted(kv[0])):
        base = wt.values[gens[0]]
        for y in gens[1:]:
            if wt.values[y] != base:
                violations.append({"axiom": "orbit-constant", "x": gens[0], "y": y,
                                   "wx": str(base), "wy": str(wt.values[y])})
    totals = {n: sum(wt.values[y] for y in n) for n in classes}
    for x in range(1, ring.order):
        total, expected = totals[cls_of[x]], wt.gamma * len(cls_of[x])
        if total != expected:
            violations.append({"axiom": "orbit-sum", "x": x,
                               "sum": str(total), "expected": str(expected)})
    return {"valid": not violations, "violations": violations}


def hamming_table(ring: Ring) -> WeightTable:
    """w(0)=0 and w(x)=1 otherwise, at gamma 1; homogeneous only over fields."""
    values = [0] + [1] * (ring.order - 1)
    return WeightTable(ring, 1, values, kind="hamming")


def parse_gamma(spec: str, ring: Ring) -> Fraction:
    """gamma grammar: `<num>/<den>` | integer | `hamming-normalized`
    (= (q-1)/q for the residue field size q of a local ring); gamma >= 0."""
    from fractions import Fraction

    spec = spec.strip()
    if spec == "hamming-normalized":
        if not ring.is_local():
            raise NotLocal(
                f"hamming-normalized gamma needs a local ring, got {ring.name}"
            )
        q = ring.residue_size()
        return Fraction(q - 1, q)
    try:
        gamma = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad gamma spec {spec!r}")
    if gamma < 0:
        raise ParseError(f"gamma must be >= 0, got {spec!r}")
    return gamma
