"""Trace maps R -> S and the additive characters they induce.

A trace map is an S-linear surjection whose kernel contains no nonzero ideal
of R; S sits inside R through an explicit embedding.  Every map built here is
fully validated against those three conditions, and a failed build raises
``ValidationFailed`` carrying a report that names the first violated property
(checked in the order NotLinear, KernelContainsIdeal, NotSurjective) together
with a witness.

``enumerate_trace_maps`` finds every valid map by brute force over S-module
homomorphisms: pick a greedy S-generating set of R, try all value assignments
on the generators, extend each assignment by closing the graph subgroup of
R x S generated by the scaled pairs, and discard assignments whose closure is
not a function.

Characters are stored as exponent maps into Z_m (m the characteristic); their
unit sums are reduced exactly in a cyclotomic field, never through floats.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product

from .cyclotomic import Cyclotomic
from .errors import (
    BudgetExceeded,
    InternalInvariantViolation,
    InvalidParameter,
    NotGenerating,
    ParseError,
    UnknownPreset,
    ValidationFailed,
    WrongRingFamily,
)
from .rings import (
    GaloisRing,
    IntegerModRing,
    Ring,
    TableRing,
    automorphism_power,
    frobenius,
    make_integer_ring,
)

DEFAULT_ENUM_BUDGET = 256
DEFAULT_CODE_BUDGET = 512
_CANDIDATE_CAP = 10**6


def effective_budget(default: int) -> int:
    """Enumeration budget; the HOMRING_BUDGET env var (read per call)
    overrides the given default."""
    env = os.environ.get("HOMRING_BUDGET")
    if env is None:
        return default
    try:
        value = int(env)
    except ValueError:
        raise InvalidParameter(f"HOMRING_BUDGET must be an integer, got {env!r}")
    if value <= 0:
        raise InvalidParameter("HOMRING_BUDGET must be positive")
    return value


# ---------------------------------------------------------------------------
# subring embeddings
# ---------------------------------------------------------------------------


class SubringEmbedding:
    """An injective unital ring homomorphism S -> R as an index table."""

    def __init__(self, sub: Ring, ring: Ring, table, kind: str = "table"):
        table = tuple(table)
        if len(table) != sub.order:
            raise InvalidParameter("embedding table must cover all of S")
        if len(set(table)) != sub.order:
            raise InvalidParameter("embedding is not injective")
        if table[0] != 0 or table[sub.one] != ring.one:
            raise InvalidParameter("embedding must send 0 to 0 and 1 to 1")
        aos, mos = sub.add_table(), sub.mul_table()
        aot, mot = ring.add_table(), ring.mul_table()
        for a in range(sub.order):
            sadd, smul = aos[a], mos[a]
            radd, rmul = aot[table[a]], mot[table[a]]
            for b in range(sub.order):
                if table[sadd[b]] != radd[table[b]]:
                    raise InvalidParameter(
                        f"embedding not additive at ({sub.render(a)},{sub.render(b)})"
                    )
                if table[smul[b]] != rmul[table[b]]:
                    raise InvalidParameter(
                        f"embedding not multiplicative at ({sub.render(a)},{sub.render(b)})"
                    )
        self.sub = sub
        self.ring = ring
        self.table = table
        self.kind = kind
        self.section = {r: s for s, r in enumerate(table)}

    def __call__(self, s: int) -> int:
        return self.table[s]

    def __repr__(self):
        return f"SubringEmbedding({self.sub.name} -> {self.ring.name}, {self.kind})"


def subring_embedding(sub: Ring, ring: Ring) -> SubringEmbedding:
    """The canonical embedding of S into R.

    Supported: S = R (identity); S = Z_c with c the characteristic of R
    (c -> c*1); Galois subrings GR(p^n, s) of GR(p^n, r) with s | r, where
    the canonical generator of S maps to xi^((p^r-1)/(p^s-1)).
    """
    if sub is ring:
        return SubringEmbedding(sub, ring, range(ring.order), kind="identity")
    if isinstance(sub, IntegerModRing):
        if sub.m != ring.characteristic():
            raise InvalidParameter(
                f"{sub.name} does not embed in {ring.name}: "
                f"characteristic is {ring.characteristic()}"
            )
        table = [ring.element_from_int(c) for c in range(sub.m)]
        return SubringEmbedding(sub, ring, table, kind="characteristic")
    if isinstance(sub, GaloisRing) and isinstance(ring, GaloisRing):
        if sub.p != ring.p or sub.n != ring.n or ring.r % sub.r != 0:
            raise InvalidParameter(
                f"{sub.name} is not a Galois subring of {ring.name}"
            )
        eta = ring.pow(
            ring.teichmuller().generator, (ring.q - 1) // (sub.q - 1)
        )
        powers = [ring.one]
        for _ in range(sub.r - 1):
            powers.append(ring.mul(powers[-1], eta))
        table = []
        for a in range(sub.order):
            acc = 0
            for c, pw in zip(sub.decode(a), powers):
                acc = ring.add(acc, ring.mul(ring.element_from_int(c), pw))
            table.append(acc)
        return SubringEmbedding(sub, ring, table, kind="teichmuller-power")
    raise InvalidParameter(f"no canonical embedding of {sub.name} into {ring.name}")


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
    """Check the three trace conditions, without raising.

    T is additive when T(x + g) = T(x) + T(g) for every x and each additive
    generator g of R, and then S-linear when T(s*x) = s*T(x) for every x
    and each additive generator s of S: in both checks the elements that
    pass are closed under +.  That is |R|*g cells, not |R|^2.  When either
    fails, a full scan names the first witness."""
    values = tuple(values)
    n = ring.order
    aot, mot = ring.add_table(), ring.mul_table()
    aos, mos = sub.add_table(), sub.mul_table()
    failures = []

    def image(row):  # T(row[x]) for each x
        return list(map(values.__getitem__, row))

    additive = all(image(aot[g]) == [aos[values[g]][v] for v in values]
                   for g in ring._additive_span()[0])
    linear = additive and all(image(mot[embedding.table[s]]) == [mos[s][v] for v in values]
                              for s in sub._additive_span()[0])
    if not linear:
        failures.append({"code": "NotLinear",
                         "witness": _linearity_witness(ring, sub, embedding, values)})

    bad = None
    for x in range(1, n):
        if values[x] == 0 and all(values[rx] == 0 for rx in mot[x]):
            bad = x
            break
    if bad is not None:
        failures.append({"code": "KernelContainsIdeal",
                         "witness": {"ideal_generator": bad}})

    seen = set(values)
    missing = next((s for s in range(sub.order) if s not in seen), None)
    if missing is not None:
        failures.append({"code": "NotSurjective", "witness": {"missing": missing}})

    return TraceReport(not failures, failures)


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
    violated condition."""

    def __init__(self, ring: Ring, sub: Ring, embedding: SubringEmbedding,
                 values, tag: str = "table"):
        values = tuple(values)
        if len(values) != ring.order:
            raise InvalidParameter(
                f"trace table has {len(values)} entries, expected {ring.order}"
            )
        if any(not (0 <= v < sub.order) for v in values):
            raise InvalidParameter("trace table value out of range for S")
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
    emb = subring_embedding(ring, ring)
    return TraceMap(ring, ring, emb, range(ring.order), tag="identity")


def galois_trace(ring: GaloisRing, sub: Ring = None) -> TraceMap:
    """T(a) = a + tau(a) + ... + tau^(k-1)(a), tau the Frobenius power that
    fixes the subring."""
    if not isinstance(ring, GaloisRing):
        raise WrongRingFamily(f"galois trace needs a Galois ring, got {ring.name}")
    if sub is None:
        sub = ring
    emb = subring_embedding(sub, ring)
    if sub is ring:
        sdeg = ring.r
    elif isinstance(sub, IntegerModRing):
        sdeg = 1
    elif isinstance(sub, GaloisRing):
        sdeg = sub.r
    else:
        raise InvalidParameter(f"galois trace does not target {sub.name}")
    k = ring.r // sdeg
    tau = automorphism_power(frobenius(ring), sdeg).perm
    aot = ring.add_table()
    values = []
    for a in range(ring.order):
        acc, cur = 0, a
        for _ in range(k):
            acc = aot[acc][cur]
            cur = tau[cur]
        values.append(acc)
    try:
        sec = emb.section
        values = [sec[v] for v in values]
    except KeyError:
        raise InternalInvariantViolation("galois trace image escapes the subring")
    return TraceMap(ring, sub, emb, values, tag="galois")


def fxy_sum_trace(ring: TableRing, sub: Ring) -> TraceMap:
    """Coefficient-sum trace of F_p[x,y]/(x^2,y^2) onto Z_p."""
    if getattr(ring, "preset", None) != "fxy":
        raise UnknownPreset(f"fxy-sum trace needs an FXY ring, got {ring.name}")
    p = ring.char_expected
    if not isinstance(sub, IntegerModRing) or sub.m != p:
        raise InvalidParameter(f"fxy-sum maps onto Zm:{p}; got subring {sub.name}")
    emb = subring_embedding(sub, ring)
    values = []
    for a in range(ring.order):
        c1 = a % p
        cx = (a // p) % p
        cy = (a // p**2) % p
        cxy = a // p**3
        values.append((c1 + cx + cy + cxy) % p)
    return TraceMap(ring, sub, emb, values, tag="fxy-sum")


def z4x_trace(ring: TableRing, sub: Ring, l0: int, l1: int) -> TraceMap:
    """T(r0 + t*r1) = l0*r0 + l1*r1 into Z_4; valid exactly when l1 is a
    unit of Z_4 (validation decides, not this constructor)."""
    if getattr(ring, "preset", None) != "z4x":
        raise UnknownPreset(f"z4x trace needs the Z4X ring, got {ring.name}")
    if not isinstance(sub, IntegerModRing) or sub.m != 4:
        raise InvalidParameter(f"z4x trace maps onto Zm:4; got subring {sub.name}")
    emb = subring_embedding(sub, ring)
    values = [(l0 * (a % 4) + l1 * (a // 4)) % 4 for a in range(ring.order)]
    return TraceMap(ring, sub, emb, values, tag=f"z4x:{l0 % 4},{l1 % 4}")


def table_trace(ring: Ring, sub: Ring, values, tag: str = "table") -> TraceMap:
    emb = subring_embedding(sub, ring)
    return TraceMap(ring, sub, emb, values, tag=tag)


def read_two_column_table(path: str, order: int) -> list:
    values = [None] * order
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InvalidParameter(f"cannot read trace table {path!r}: {exc}")
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
        raise ParseError(f"trace table {path!r} missing index {hole}")
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
        values = read_two_column_table(spec[6:], ring.order)
        return table_trace(ring, sub, values)
    raise UnknownPreset(f"unknown trace spec {spec!r}")


# ---------------------------------------------------------------------------
# brute-force enumeration
# ---------------------------------------------------------------------------


def _span(ring: Ring, sub: Ring, emb: SubringEmbedding, gens) -> set:
    mot = ring.mul_table()
    aot = ring.add_table()
    scaled = {0}
    for g in gens:
        for s in range(sub.order):
            scaled.add(mot[emb.table[s]][g])
    span = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        row = aot[x]
        for d in scaled:
            y = row[d]
            if y not in span:
                span.add(y)
                queue.append(y)
    return span


def enumerate_trace_maps(ring: Ring, sub: Ring, budget: int = None) -> list:
    """All valid trace maps R -> S, deduplicated and ordered by value table."""
    cap = budget if budget is not None else effective_budget(DEFAULT_ENUM_BUDGET)
    if ring.order > cap:
        raise BudgetExceeded(
            f"|{ring.name}| = {ring.order} exceeds enumeration budget {cap}"
        )
    emb = subring_embedding(sub, ring)
    gens = []
    span = {0}
    for a in range(ring.order):
        if a not in span:
            gens.append(a)
            span = _span(ring, sub, emb, gens)
    if sub.order ** len(gens) > _CANDIDATE_CAP:
        raise BudgetExceeded(
            f"candidate count {sub.order}^{len(gens)} exceeds cap {_CANDIDATE_CAP}"
        )
    aot, mot = ring.add_table(), ring.mul_table()
    aos, mos = sub.add_table(), sub.mul_table()
    n = ring.order
    found = {}
    for assignment in product(range(sub.order), repeat=len(gens)):
        # pairs (s*g_i, s*v_i) generate the graph subgroup of R x S;
        # closing it detects ill-defined assignments as value conflicts
        pairs = []
        for g, v in zip(gens, assignment):
            for s in range(sub.order):
                pairs.append((mot[emb.table[s]][g], mos[s][v]))
        table = [None] * n
        table[0] = 0
        queue = [0]
        consistent = True
        while queue and consistent:
            x = queue.pop()
            vx = table[x]
            arow = aot[x]
            for dg, dv in pairs:
                y = arow[dg]
                vy = aos[vx][dv]
                cur = table[y]
                if cur is None:
                    table[y] = vy
                    queue.append(y)
                elif cur != vy:
                    consistent = False
                    break
        if not consistent or any(v is None for v in table):
            continue
        key = tuple(table)
        if key in found:
            continue
        try:
            found[key] = TraceMap(ring, sub, emb, key)
        except ValidationFailed:
            continue
    out = [found[key] for key in sorted(found)]
    for i, trace in enumerate(out):
        trace.tag = f"enum[{i}]"
    return out


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


class Character:
    """Additive character a -> w_m^e(a) stored as its exponent map."""

    def __init__(self, ring: Ring, conductor: int, exps, tag: str = "",
                 check: bool = True):
        exps = tuple(e % conductor for e in exps)
        if len(exps) != ring.order:
            raise InvalidParameter("exponent map must cover the ring")
        if check:
            aot, mot = ring.add_table(), ring.mul_table()
            for a in range(ring.order):
                ea, arow = exps[a], aot[a]
                for b in range(a, ring.order):
                    if exps[arow[b]] != (ea + exps[b]) % conductor:
                        raise InvalidParameter(
                            f"exponent map is not additive at ({a},{b})"
                        )
            for x in range(1, ring.order):
                if all(exps[rx] == 0 for rx in mot[x]):
                    raise NotGenerating(
                        f"character of {ring.name} vanishes on the ideal "
                        f"generated by {ring.render(x)}"
                    )
        self.ring = ring
        self.conductor = conductor
        self.exps = exps
        self.tag = tag
        self._unit_hists = None
        self._unit_sums = {}

    def exponent(self, a: int) -> int:
        return self.exps[a]

    def unit_exponent_histograms(self) -> list:
        """For each a: a length-m integer vector counting exponents of
        chi(u*a) over the units u.  The workhorse for unit-averaged sums."""
        if self._unit_hists is None:
            m = self.conductor
            mot = self.ring.mul_table()
            units = self.ring.units()
            hists = []
            for a in range(self.ring.order):
                row = mot[a]
                h = [0] * m
                for u in units:
                    h[self.exps[row[u]]] += 1
                hists.append(tuple(h))
            self._unit_hists = hists
        return self._unit_hists

    def unit_sum(self, a: int) -> Fraction:
        """Sum of chi(u*a) over units u, as an exact rational.  The histogram
        is constant on unit orbits, so each distinct one is reduced once."""
        h = self.unit_exponent_histograms()[a]
        if h not in self._unit_sums:
            self._unit_sums[h] = Cyclotomic.from_exponent_counts(
                self.conductor, h).to_rational()
        return self._unit_sums[h]

    def __repr__(self):
        return f"Character({self.ring.name}, conductor={self.conductor}, {self.tag})"


def _absolute_exponents(ring: Ring):
    """The canonical exponent chain of a ring down to Z_char: (m, exps)."""
    if "abs_exps" in ring._cache:
        return ring._cache["abs_exps"]
    m = ring.characteristic()
    if isinstance(ring, IntegerModRing):
        exps = tuple(range(m))
    elif isinstance(ring, GaloisRing):
        tr = galois_trace(ring, make_integer_ring(m))
        exps = tr.values
    elif getattr(ring, "preset", None) == "fxy":
        tr = fxy_sum_trace(ring, make_integer_ring(m))
        exps = tr.values
    elif getattr(ring, "preset", None) == "z4x":
        tr = z4x_trace(ring, make_integer_ring(4), 0, 1)
        exps = tr.values
    else:
        maps = enumerate_trace_maps(ring, make_integer_ring(m))
        if not maps:
            raise NotGenerating(
                f"{ring.name} admits no trace map onto Zm:{m}; "
                "no generating character exists"
            )
        exps = maps[0].values
    ring._cache["abs_exps"] = (m, exps)
    return m, exps


def generating_character(trace: TraceMap) -> Character:
    """chi = Phi o T, with Phi the canonical generating character of S."""
    m, sub_exps = _absolute_exponents(trace.sub)
    exps = tuple(sub_exps[v] for v in trace.values)
    return Character(trace.ring, m, exps, tag=f"chi[{trace.tag}]")


def canonical_character(ring: Ring) -> Character:
    """The generating character of the identity chain on R."""
    if "canonical_char" not in ring._cache:
        m, exps = _absolute_exponents(ring)
        ring._cache["canonical_char"] = Character(ring, m, exps, tag="canonical")
    return ring._cache["canonical_char"]


def char_fixed_by(char: Character, auto) -> bool:
    """True iff the exponent map satisfies e(sigma(a)) = e(a) for all a."""
    exps = char.exps
    return all(exps[auto(a)] == exps[a] for a in range(char.ring.order))
