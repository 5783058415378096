"""Trace maps R -> S and the additive characters they induce.

A trace map is an S-linear surjection whose kernel contains no nonzero ideal
of R; S sits inside R through its canonical embedding, the checked
``rings.SubringEmbedding`` that ``rings.subring_embedding`` builds.  Every
map built here from a table or a formula is validated against those three
conditions, and a failed build raises ``ValidationFailed`` carrying a report
that names the first violated property (checked in the order NotLinear,
KernelContainsIdeal, NotSurjective) together with a witness.  The identity
trace (onto R, or onto Z_m from R = Z_m) holds by construction and is not
checked.

``enumerate_trace_maps`` lists every trace map as the unit orbit
x -> T0(u*x) of the one trace T0 that the ring family names; T0 is
validated, and the orbit is a trace by duality, not by a check per map.

Characters are stored as exponent maps into Z_m (m the characteristic);
``weights.hom_weight`` sums them over unit multiples.
"""

from __future__ import annotations

from .budget import check_budget
from .errors import (
    InternalInvariantViolation,
    InvalidParameter,
    ParseError,
    UnknownPreset,
    ValidationFailed,
    WrongRingFamily,
)
from .rings import (
    GaloisRing,
    IntegerModRing,
    Ring,
    SubringEmbedding,
    TableRing,
    _cached,
    _extend,
    _homomorphism_failure,
    frobenius,
    make_integer_ring,
    subring_embedding,
)

# ---------------------------------------------------------------------------
# trace maps
# ---------------------------------------------------------------------------


class TraceReport:
    """Validation outcome; ``failures`` is ordered NotLinear,
    KernelContainsIdeal, NotSurjective."""

    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures):
        self.ok = ok
        self.failures = list(failures)

    @property
    def primary(self):
        return None if self.ok else self.failures[0]["code"]

    def to_dict(self) -> dict:
        return {"valid": self.ok, "failures": self.failures}

    def __repr__(self):
        return f"TraceReport(ok={self.ok}, failures={self.failures})"


def validate_trace(ring: Ring, sub: Ring, embedding: SubringEmbedding,
                   values) -> TraceReport:
    """Check the three trace conditions, without raising.  When linearity
    fails, a full scan names the first witness."""
    values = tuple(values)
    failures = []
    if not _is_linear(ring, sub, embedding, values):
        failures.append({"code": "NotLinear",
                         "witness": _linearity_witness(ring, sub, embedding, values)})
    bad = _ideal_in_kernel(ring, values)
    if bad is not None:
        failures.append({"code": "KernelContainsIdeal",
                         "witness": {"ideal_generator": bad}})
    missing = _missing_value(sub, values)
    if missing is not None:
        failures.append({"code": "NotSurjective", "witness": {"missing": missing}})
    return TraceReport(not failures, failures)


def _is_linear(ring: Ring, sub: Ring, embedding: SubringEmbedding, values) -> bool:
    """Whether T is S-linear.  T is additive when T(x + g) = T(x) + T(g) for
    every x and each additive generator g of R, and then S-linear when
    T(s*x) = s*T(x) for every x and each additive generator s of S: in both
    checks the elements that pass are closed under +.  That is |R|*g cells,
    not |R|^2."""
    mot = ring.mul_table()
    aos, mos = sub.add_table(), sub.mul_table()

    def image(row, table=values):  # table[row[x]] for each x
        return list(map(table.__getitem__, row))

    return (_homomorphism_failure(ring, values, aos) is None
            and all(image(mot[embedding.table[s]]) == image(values, mos[s])
                    for s in sub._additive_span()[0]))


def _ideal_in_kernel(ring: Ring, values):
    """The first x != 0 whose ideal x*R T sends to 0, or None."""
    mot = ring.mul_table()
    return next((x for x in range(1, ring.order)
                 if values[x] == 0 and not any(map(values.__getitem__, mot[x]))), None)


def _missing_value(sub: Ring, values):
    """The first element of S that T misses, or None."""
    seen = set(values)
    return next((s for s in range(sub.order) if s not in seen), None)


def _linearity_witness(ring: Ring, sub: Ring, embedding: SubringEmbedding,
                       values) -> dict:
    """The first pair a <= b with T(a + b) != T(a) + T(b), or failing that
    the first (s, a) with T(s*a) != s*T(a), by a scan of every pair."""
    n = ring.order
    aot, mot = ring.add_table(), ring.mul_table()
    aos, mos = sub.add_table(), sub.mul_table()
    for a in range(n):
        arow, vrow = aot[a], aos[values[a]]
        for b in range(a, n):
            if values[arow[b]] != vrow[values[b]]:
                return {"kind": "additive", "a": a, "b": b}
    for s in range(sub.order):
        erow, srow = mot[embedding.table[s]], mos[s]
        for a in range(n):
            if values[erow[a]] != srow[values[a]]:
                return {"kind": "scalar", "s": s, "a": a}
    raise InternalInvariantViolation(
        "trace fails linearity on a generator but at no pair")


class TraceMap:
    """A validated trace map; construction raises ValidationFailed on any
    violated condition.  A caller whose values are checked already, or hold
    by how it built them, passes its passing ``report``, and they are not
    checked again, not even their length and range."""

    def __init__(self, ring: Ring, sub: Ring, embedding: SubringEmbedding,
                 values, tag: str = "table", report: TraceReport | None = None):
        values = tuple(values)
        if report is None:
            if len(values) != ring.order:
                raise InvalidParameter(
                    f"trace table has {len(values)} entries, expected {ring.order}"
                )
            bad = next((v for v in values if not 0 <= v < sub.order), None)
            if bad is not None:
                raise InvalidParameter(f"trace value {bad} out of range for {sub.name}")
            report = validate_trace(ring, sub, embedding, values)
        if not report.ok:
            raise ValidationFailed(
                report.primary,
                report=report,
                message=f"invalid trace map {ring.name} -> {sub.name}: "
                        f"{report.primary}",
            )
        self.ring = ring
        self.sub = sub
        self.embedding = embedding
        self.values = values
        self.tag = tag
        self.report = report

    def __call__(self, a: int) -> int:
        return self.values[a]

    def __eq__(self, other):
        return (
            isinstance(other, TraceMap)
            and self.ring is other.ring
            and self.sub is other.sub
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.ring), id(self.sub), self.values))

    def __repr__(self):
        return f"TraceMap({self.ring.name} -> {self.sub.name}, {self.tag})"


def identity_trace(ring: Ring) -> TraceMap:
    return _named_trace(ring, ring)


@_cached(lambda ring, sub=None: (ring, ("galois", ring if sub is None else sub)))
def galois_trace(ring: GaloisRing, sub: Ring = None) -> TraceMap:
    """T(a) = a + tau(a) + ... + tau^(k-1)(a), tau the Frobenius power that
    fixes the subring.  Built and validated once per pair, and kept in R's
    cache under S itself, as ``subring_embedding`` keeps its embedding; a
    pair that is refused is not kept."""
    if not isinstance(ring, GaloisRing):
        raise WrongRingFamily(f"galois trace needs a Galois ring, got {ring.name}")
    sub = ring if sub is None else sub
    emb = subring_embedding(sub, ring)
    if sub is ring:
        sdeg = ring.r
    elif isinstance(sub, IntegerModRing):
        sdeg = 1
    elif isinstance(sub, GaloisRing):
        sdeg = sub.r
    else:
        raise InvalidParameter(f"galois trace does not target {sub.name}")
    # T is additive: sum the r/sdeg conjugates tau^i(g) = sigma^(i*sdeg)(g)
    # of each additive generator g only, and extend the sums in S
    sigma = frobenius(ring).table
    aot = ring.add_table()
    gens, _, steps = ring._additive_span()
    images = []
    for g in gens:
        acc, cur = 0, g
        for _ in range(ring.r // sdeg):
            acc = aot[acc][cur]
            for _ in range(sdeg):
                cur = sigma[cur]
        images.append(acc)
    section = {r: s for s, r in enumerate(emb.table)}
    try:
        images = [section[v] for v in images]
    except KeyError:
        raise InternalInvariantViolation("galois trace image escapes the subring")
    values = _extend(sub.add_table(), steps, images)
    return TraceMap(ring, sub, emb, values, tag="galois")


def fxy_sum_trace(ring: TableRing, sub: Ring) -> TraceMap:
    """Coefficient-sum trace of F_p[x,y]/(x^2,y^2) onto Z_p."""
    if getattr(ring, "preset", None) != "fxy":
        raise UnknownPreset(f"fxy-sum trace needs an FXY ring, got {ring.name}")
    p = ring.m
    if not isinstance(sub, IntegerModRing) or sub.m != p:
        raise InvalidParameter(f"fxy-sum maps onto Zm:{p}; got subring {sub.name}")
    emb = subring_embedding(sub, ring)
    # T is additive, and sends each basis element 1, x, y, xy to 1
    values = _extend(sub.add_table(), ring._additive_span()[2], [1, 1, 1, 1])
    return TraceMap(ring, sub, emb, values, tag="fxy-sum")


def z4x_trace(ring: TableRing, sub: Ring, l0: int, l1: int) -> TraceMap:
    """T(r0 + t*r1) = l0*r0 + l1*r1 into Z_4; valid exactly when l1 is a
    unit of Z_4 (validation decides, not this constructor)."""
    if getattr(ring, "preset", None) != "z4x":
        raise UnknownPreset(f"z4x trace needs the Z4X ring, got {ring.name}")
    if not isinstance(sub, IntegerModRing) or sub.m != 4:
        raise InvalidParameter(f"z4x trace maps onto Zm:4; got subring {sub.name}")
    emb = subring_embedding(sub, ring)
    # T is additive, and sends the basis elements 1 and t to l0 and l1
    values = _extend(sub.add_table(), ring._additive_span()[2], [l0 % 4, l1 % 4])
    return TraceMap(ring, sub, emb, values, tag=f"z4x:{l0 % 4},{l1 % 4}")


def table_trace(ring: Ring, sub: Ring, values, tag: str = "table") -> TraceMap:
    emb = subring_embedding(sub, ring)
    return TraceMap(ring, sub, emb, values, tag=tag)


def read_two_column_table(path: str, order: int, what: str) -> list:
    """The values of a two-column file of canonical indices; ``what`` names
    the table in the messages ("trace table", "function table")."""
    values = [None] * order
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InvalidParameter(f"cannot read {what} {path!r}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two columns in {path!r}", line=lineno, col=1)
        try:
            a, s = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer entry in {path!r}", line=lineno, col=1)
        if not 0 <= a < order:
            raise ParseError(f"source index {a} out of range", line=lineno, col=1)
        if values[a] is not None:
            raise ParseError(f"duplicate entry for index {a}", line=lineno, col=1)
        values[a] = s
    hole = next((i for i, v in enumerate(values) if v is None), None)
    if hole is not None:
        raise ParseError(f"{what} {path!r} missing index {hole}")
    return values


def trace_from_spec(ring: Ring, sub: Ring, spec: str) -> TraceMap:
    """Build a trace map from its spec string.

    Grammar: ``galois`` | ``identity`` | ``fxy-sum`` | ``z4x:<l0>,<l1>`` |
    ``table:<path>`` (two columns of canonical indices).
    """
    spec = spec.strip()
    if spec == "identity":
        if sub is not ring:
            raise InvalidParameter("identity trace requires subring = ring")
        return identity_trace(ring)
    if spec == "galois":
        return galois_trace(ring, sub)
    if spec == "fxy-sum":
        return fxy_sum_trace(ring, sub)
    if spec.startswith("z4x:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise ParseError(f"z4x trace spec needs two integers: {spec!r}")
        try:
            l0, l1 = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad integer in trace spec {spec!r}")
        return z4x_trace(ring, sub, l0, l1)
    if spec.startswith("table:"):
        values = read_two_column_table(spec[6:], ring.order, "trace table")
        return table_trace(ring, sub, values)
    raise UnknownPreset(f"unknown trace spec {spec!r}")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _named_trace(ring: Ring, sub: Ring) -> TraceMap:
    """The trace R -> S that the ring family names: the identity when S is
    R or R is Z_m, else the galois, fxy-sum or z4x:0,1 trace.  The identity
    is S-linear, with kernel {0}, onto S by construction, so it is not
    checked."""
    if sub is ring or isinstance(ring, IntegerModRing):
        return TraceMap(ring, sub, subring_embedding(sub, ring), range(ring.order),
                        tag="identity", report=TraceReport(True, []))
    if isinstance(ring, GaloisRing):
        return galois_trace(ring, sub)
    if ring.preset == "fxy":
        return fxy_sum_trace(ring, sub)
    return z4x_trace(ring, sub, 0, 1)


# lookups charged for each value of an enumerated table: a value, with its
# share of a trace list report, takes about 50 bytes in process (42-47 on
# six rings; about 90 when reports went through json.dumps), and the other
# stages charge a lookup per 4-8 bytes
TABLE_CELL = 16


def enumerate_trace_maps(ring: Ring, sub: Ring, budget: int = None) -> list:
    """All trace maps R -> S, ordered by value table: the unit orbit
    x -> T0(u*x), u in R^x, of the named trace T0.

    S is Frobenius, so a -> T0(a*.) is a bijection from R onto Hom_S(R, S)
    (character duality: Wood 1999, Honold 2001), and T0(a*.) is a trace
    exactly when a is a unit: a non-unit kills the nonzero ideal ann(a).
    The |R^x| tables of |R| values are charged TABLE_CELL lookups a value
    before T0 is built.
    Units u != v give equal tables exactly when u - v lies in the largest
    ideal J in the kernel of T0, so the one check, that there are |R^x|
    distinct tables, catches a nonzero J on every local ring, where all
    of 1 + J are units."""
    subring_embedding(sub, ring)   # a pair with no embedding is refused here
    units = ring.units()
    check_budget("trace enumeration", TABLE_CELL * len(units) * ring.order, budget)
    base = _named_trace(ring, sub)
    mot, at = ring.mul_table(), base.values.__getitem__
    tables = sorted({tuple(map(at, mot[u])) for u in units})
    if len(tables) != len(units):
        raise InternalInvariantViolation(
            f"the unit orbit of the {base.tag} trace {ring.name} -> {sub.name} "
            f"has {len(tables)} tables, not one per unit ({len(units)})")
    return [TraceMap(ring, sub, base.embedding, values, tag=f"enum[{i}]",
                     report=TraceReport(True, []))
            for i, values in enumerate(tables)]


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


class Character:
    """Additive character a -> w_m^e(a) stored as its exponent map.

    The map is not checked here: every character built in this module is
    Phi o T with T a validated trace (additive, with no nonzero ideal in its
    kernel) and Phi the canonical character of S, so it is additive and
    generating."""

    def __init__(self, ring: Ring, conductor: int, exps, tag: str = ""):
        exps = tuple(e % conductor for e in exps)
        if len(exps) != ring.order:
            raise InvalidParameter("exponent map must cover the ring")
        self.ring = ring
        self.conductor = conductor
        self.exps = exps
        self.tag = tag

    def __repr__(self):
        return f"Character({self.ring.name}, conductor={self.conductor}, {self.tag})"


def generating_character(trace: TraceMap) -> Character:
    """chi = Phi o T, with Phi the canonical generating character of S."""
    phi = canonical_character(trace.sub)
    exps = tuple(phi.exps[v] for v in trace.values)
    return Character(trace.ring, phi.conductor, exps, tag=f"chi[{trace.tag}]")


@_cached("canonical_char")
def canonical_character(ring: Ring) -> Character:
    """The generating character of the identity chain on R: the named trace
    onto Z_m, m the characteristic, read as exponents."""
    m = ring.characteristic()
    exps = _named_trace(ring, make_integer_ring(m)).values
    return Character(ring, m, exps, tag="canonical")


def char_fixed_by(char: Character, auto) -> bool:
    """True iff the exponent map satisfies e(sigma(a)) = e(a) for all a.
    Both e and sigma are additive, so the additive generators decide."""
    exps = char.exps
    return all(exps[auto(g)] == exps[g] for g in char.ring._additive_span()[0])
