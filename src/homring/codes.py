"""Trace codes built from a function f on R and a trace T onto a subring S.

A code here is the set of value tables ``x -> T(alpha*x + beta*f(x))`` over
all pairs (alpha, beta).  The pair map is additive, so the code is fixed by
its kernel K, the pairs whose codeword is zero: |C| = |R|^2/|K|.  Each
codeword is named by the least pair of its K-coset, and no codeword tuple is
built: a graph asks only for these pairs in sorted codeword order, which the
codewords' values on a few pivot coordinates fix.  Every caller that starts
from spec strings builds its code through ``code_from_specs``.

A code's weight data has one representation, its weight enumerator, and it
is read off orbits on the code, one point per codeword (one per K-coset of
pairs).  A unit s of S maps the codeword of (alpha, beta) to s times it, the
codeword of (s*alpha, s*beta); a unit u of R with f(u*x) = lam*f(x) for all
x permutes its coordinates, as the codeword of (alpha*u, beta*lam).  Neither
changes the weight under a table constant on S's unit orbits, the only tables
weighed (``orbit_weights``), so one group per code serves every table.
Every weighing, an enumerator's or a graph's, reads ``orbit_weights``, which
checks the weights' first power moment.  At
gamma = 1 the transform value of a codeword is W = |R| - w, w its homogeneous
weight, so the spectrum is read off the gamma = 1 enumerator.  Everything is
exact, in integers: a table's weights are numerators over its denominator,
and so are a codeword's weight and the enumerator's weights and spectrum.
The weight table is checked against the axiomatic solve when it is built
(see ``weights.hom_weight``).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd, lcm

from .budget import check_budget
from .cyclotomic import ratio, rational_str, reduced
from .errors import (
    InternalInvariantViolation,
    InvalidParameter,
    NotLocal,
    OutOfRange,
    ParseError,
    UnknownPreset,
    ValidationFailed,
    WrongRingFamily,
)
from .rings import (
    GaloisRing,
    Ring,
    _is_prime,
    _table_pow,
    frobenius,
    permutation_of_teichmuller,
    ring_from_spec,
    swap_xy,
)
from .traces import (
    TraceMap,
    char_fixed_by,
    generating_character,
    read_two_column_table,
    trace_from_spec,
)
from .weights import WeightTable, hom_weight


class CodeFunction:
    """A total map f : R -> R stored as a value table on canonical indices."""

    def __init__(self, ring: Ring, kind: str, table, tag: str, *, sigma=None,
                 seed=None):
        table = tuple(int(v) for v in table)
        if len(table) != ring.order:
            raise InvalidParameter(
                f"function table has {len(table)} entries for a ring of order {ring.order}")
        for v in table:
            if not 0 <= v < ring.order:
                raise InvalidParameter(f"function value {v} out of range for {ring.name}")
        self.ring = ring
        self.kind = kind
        self.table = table
        self.tag = tag
        self.sigma = sigma
        self.seed = seed

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"CodeFunction({self.tag!r} on {self.ring.name})"


def power_map(ring: Ring, d: int) -> CodeFunction:
    """f(x) = x**d for d >= 1."""
    if d < 1:
        raise OutOfRange(f"power exponent must be >= 1, got {d}")
    mot = ring.mul_table()
    table = [_table_pow(mot, ring.one, x, d) for x in range(ring.order)]
    return CodeFunction(ring, "power", table, f"pow:{d}")


def random_teich_permutation(ring: Ring, seed: int) -> tuple:
    """A seeded random permutation of Teichmueller indices fixing index 0."""
    import random

    t = ring.teichmuller()
    idx = list(range(1, len(t.elements)))
    random.Random(seed).shuffle(idx)
    return (0, *idx)


def frank_map(ring: Ring, perm=None, tag: str | None = None) -> CodeFunction:
    """f(x) = p * pi(x0) * x1 on GR(p^2, r), with pi permuting Teichmueller
    representatives (fixing 0) and x = x0 + p*x1 the digit expansion: x0 is
    nu(x), and p*x1 the rest x - x0 that the Teichmueller walk keeps."""
    if not isinstance(ring, GaloisRing) or ring.n != 2:
        raise WrongRingFamily(
            f"frank functions need a Galois ring GR(p^2, r); got {ring.name}")
    t = ring.teichmuller()
    if perm is None:
        perm = tuple(range(len(t.elements)))
        if tag is None:
            tag = "frank:id"
    perm = permutation_of_teichmuller(ring, perm)
    if tag is None:
        tag = "frank:" + ",".join(str(i) for i in perm)
    mot = ring.mul_table()
    p_row = mot[ring.p]  # p < p^2 encodes p*1
    # x - x0 = p*x1 for one Teichmueller x1
    x1_of = {p_row[e]: e for e in t.elements}
    pi = {e: t.elements[perm[i]] for i, e in enumerate(t.elements)}
    table = [p_row[mot[pi[x0]][x1_of[rest]]] for x0, rest in zip(t.nu, t.rest)]
    return CodeFunction(ring, "frank", table, tag)


def sigma_quadratic_map(ring: Ring, sigma, tag: str | None = None) -> CodeFunction:
    """f(a) = sigma(a)*a - sigma(a_m)*a_m on a local ring, where a_m = a - nu(a)
    subtracts the Teichmueller part of a.  With a = nu + a_m, and the ring
    commutative, that is sigma(nu)*a + sigma(a_m)*nu: a sum of two products,
    with a_m read off the Teichmueller walk."""
    if not ring.is_local():
        raise NotLocal(f"sigma-quadratic functions need a local ring; {ring.name} is not")
    if sigma.sub is not ring or sigma.ring is not ring:
        raise InvalidParameter("automorphism acts on a different ring")
    t = ring.teichmuller()
    aot, mot = ring.add_table(), ring.mul_table()
    table = [aot[mot[sigma(nu)][a]][mot[sigma(am)][nu]]
             for a, (nu, am) in enumerate(zip(t.nu, t.rest))]
    return CodeFunction(ring, "sigma-quadratic", table,
                        tag or f"sigmaquad:{sigma.tag}", sigma=sigma)


def table_map(ring: Ring, values, tag: str = "table") -> CodeFunction:
    return CodeFunction(ring, "table", values, tag)


def function_from_spec(ring: Ring, spec: str, seed: int | None = None) -> CodeFunction:
    """Parse a function spec string.

    Grammar: ``pow:<d>`` | ``frank:id`` | ``frank:rand[:<seed>]`` |
    ``frank:<i0,i1,...>`` | ``sigmaquad:frobenius`` | ``sigmaquad:swapxy`` |
    ``table:<path>``.
    """
    spec = spec.strip()
    if spec.startswith("pow:"):
        body = spec[4:]
        try:
            d = int(body)
        except ValueError:
            raise ParseError(f"bad power exponent {body!r}") from None
        return power_map(ring, d)
    if spec == "frank:id":
        return frank_map(ring)
    if spec == "frank:rand" or spec.startswith("frank:rand:"):
        if spec == "frank:rand":
            eff = 0 if seed is None else int(seed)
        else:
            body = spec[len("frank:rand:"):]
            try:
                eff = int(body)
            except ValueError:
                raise ParseError(f"bad frank seed {body!r}") from None
        perm = random_teich_permutation(ring, eff)
        fn = frank_map(ring, perm, tag=f"frank:rand:{eff}")
        fn.seed = eff
        return fn
    if spec.startswith("frank:"):
        body = spec[6:]
        try:
            perm = tuple(int(tok) for tok in body.split(","))
        except ValueError:
            raise ParseError(f"bad frank permutation {body!r}") from None
        return frank_map(ring, perm, tag=spec)
    if spec == "sigmaquad:frobenius":
        return sigma_quadratic_map(ring, frobenius(ring), tag=spec)
    if spec == "sigmaquad:swapxy":
        return sigma_quadratic_map(ring, swap_xy(ring), tag=spec)
    if spec.startswith("sigmaquad:"):
        raise UnknownPreset(f"unknown automorphism preset {spec[10:]!r}")
    if spec.startswith("table:"):
        values = read_two_column_table(spec[6:], ring.order, "function table")
        return table_map(ring, values, tag=spec)
    raise UnknownPreset(f"unknown function spec {spec!r}")


class Code:
    """A trace code, given by its kernel K: the pairs whose codeword is zero.

    ``points`` holds the least pair of each codeword, in sorted codeword
    order, found on first access.  ``orbits`` gives the orbits on the
    codewords under the scalars of S^x and the monomial symmetries of f,
    found once per code.  ``budget`` bounds the stages that read the code
    (see ``budget.check_budget``)."""

    def __init__(self, ring: Ring, sub: Ring, trace: TraceMap, func: CodeFunction,
                 kernel, budget: int | None = None):
        self.ring = ring
        self.sub = sub
        self.trace = trace
        self.func = func
        self.kernel = tuple(kernel)
        self.budget = budget
        self.size = ring.order ** 2 // len(self.kernel)

    @cached_property
    def points(self) -> tuple:
        """The least pair of each codeword, in sorted codeword order; the
        first is (0, 0), the zero codeword.

        The least pairs are arep x brep of ``orbits`` (see ``PairOrbits``).
        Walking x = 0, 1, ..., ``live`` keeps the points whose codeword is
        zero on every coordinate so far; x is a pivot when some live codeword
        is nonzero at x, and those leave ``live``.  Two codewords that first
        differ at x have a difference that is live there and nonzero at x,
        so x is a pivot, and comparing values at the pivots compares the
        whole codewords."""
        mot, aot = self.ring.mul_table(), self.ring.add_table()
        tr = self.trace.values
        points = [(a, b) for a in self.orbits.arep for b in self.orbits.brep]
        live, pivots = points, []
        for x, fx in enumerate(self.func.table):
            if len(live) == 1:
                break
            xrow, frow = mot[x], mot[fx]
            rest = [(a, b) for a, b in live if not tr[aot[xrow[a]][frow[b]]]]
            if len(rest) < len(live):
                pivots.append((xrow, frow))
                live = rest
        return tuple(sorted(points, key=lambda p: [tr[aot[xrow[p[0]]][frow[p[1]]]]
                                                   for xrow, frow in pivots]))

    @cached_property
    def _pair_generators(self) -> tuple:
        """(s, s) for the scalar generators s of S^x, and (u, lam) for the
        monomial symmetries of f."""
        sub, emb = self.sub, self.trace.embedding.table
        scalars = _unit_generators(sub.units(), sub.one, sub.mul_table(), lambda s: s)
        return tuple([(emb[s], emb[s]) for s in scalars] + monomial_symmetries(self.func))

    @cached_property
    def orbits(self) -> PairOrbits:
        return PairOrbits(self.ring, self.kernel, self._pair_generators)

    def __len__(self):
        return self.size

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Code(|C|={self.size}, f={self.func.tag!r}, "
                f"R={self.ring.name}, S={self.sub.name})")


class PairOrbits:
    """Orbits on the code C = R^2/K of a group acting on pair space.  Each
    generator is a pair (a, b) of units of R that maps K into K, acting as
    (alpha, beta) -> (alpha*a, beta*b); the group's elements are such pairs
    too, multiplied entrywise.  The caller (``Code.orbits``) vouches for K:
    the pairs (s, s) keep it because T is S-linear (``validate_trace``), and
    the pairs (u, lam) because f(u*x) = lam*f(x) on all of R (``_is_monomial``).

    A codeword is named by the least pair of its K-coset.  Let K_a be the
    alphas of the pairs in K and K_0 the betas b with (0, b) in K.  The least
    pair of the coset of (alpha, beta) is (alpha*, beta*): alpha* is the least
    element of alpha + K_a, and beta* the least of beta' + K_0, where
    (alpha*, beta') is (alpha, beta) minus a pair of K.  So the codewords
    over the alpha-class i (a coset of K_a, numbered by least element) form
    a fiber, one point per coset j of K_0.

    The group permutes the alpha-classes.  In each class orbit the least
    class h is the head, and a transversal t_i carries h to each class i of
    the orbit.  The codeword orbits over this class orbit are the orbits on
    h's fiber of the stabilizer of h, which the Schreier elements
    t_(g.i)^-1 * g * t_i generate (g a generator), so only head fibers are
    walked.  Orbits are numbered by their least pair; ``reps`` holds it and
    ``sizes`` the number of codewords in each orbit."""

    def __init__(self, ring: Ring, kernel, gens):
        add, mul, one = ring.add_table(), ring.mul_table(), ring.one
        n = len(add)
        # neg_kb[ka] = -kb for one pair (ka, kb) in K
        neg_kb = {}
        for ka, kb in kernel:
            if ka not in neg_kb:
                neg_kb[ka] = add[kb].index(0)
        (acls, arep, offset), (bcls, brep, _) = _transversal(add, kernel)
        nb = len(brep)
        if len(arep) * nb * len(kernel) != n * n:
            raise InternalInvariantViolation(
                f"{len(arep)} x {nb} least pairs for {n * n // len(kernel)} codewords")
        # (arep[i] + ka, beta) has the codeword of (arep[i], beta - kb)
        delta = [neg_kb[k] for k in offset]
        inv = [(mul[a].index(one), mul[b].index(one)) for a, b in gens]
        # per alpha-class: the slot of its head's fiber table, t_i and t_i^-1
        head = [-1] * len(arep)
        trans = [None] * len(arep)
        tinv = [None] * len(arep)
        fibers, reps, sizes = [], [], []
        for h in range(len(arep)):
            if head[h] >= 0:
                continue
            slot = len(fibers)
            head[h], trans[h], tinv[h] = slot, (one, one), (one, one)
            orbit = [h]
            stab = set()
            for i in orbit:
                (ta, tb), (sa, sb) = trans[i], tinv[i]
                for (a, b), (ia, ib) in zip(gens, inv):
                    k = acls[mul[arep[i]][a]]
                    if head[k] < 0:
                        head[k] = slot
                        trans[k] = (mul[ta][a], mul[tb][b])
                        tinv[k] = (mul[ia][sa], mul[ib][sb])
                        orbit.append(k)
                    else:
                        ka, kb = tinv[k]
                        stab.add((mul[mul[ta][a]][ka], mul[mul[tb][b]][kb]))
            stab.discard((one, one))
            # each stabilizer element as a permutation of h's fiber
            ah = arep[h]
            moves = []
            for a, b in stab:
                d = delta[mul[ah][a]]
                moves.append([bcls[add[mul[y][b]][d]] for y in brep])
            labels = [-1] * nb
            for start in range(nb):
                if labels[start] >= 0:
                    continue
                label = len(reps)
                labels[start] = label
                stack = [start]
                size = 0
                while stack:
                    j = stack.pop()
                    size += 1
                    for row in moves:
                        q = row[j]
                        if labels[q] < 0:
                            labels[q] = label
                            stack.append(q)
                reps.append((ah, brep[start]))
                sizes.append(size * len(orbit))
            fibers.append(labels)
        self.add = add
        self.mul = mul
        self.acls = acls
        self.arep = arep
        self.bcls = bcls
        self.brep = brep
        self.delta = delta
        self.head = head
        self.tinv = tinv
        self.fibers = fibers
        self.reps = reps
        self.sizes = sizes

    def label(self, alpha: int, beta: int) -> int:
        """The orbit of the codeword of any pair (alpha, beta): carried back
        by t_i^-1 into its head's fiber, i the alpha-class of alpha."""
        i = self.acls[alpha]
        a, b = self.tinv[i]
        alpha, beta = self.mul[alpha][a], self.mul[beta][b]
        return self.fibers[self.head[i]][self.bcls[self.add[beta][self.delta[alpha]]]]


def _cosets(add, members) -> tuple:
    """The cosets of the subgroup ``members`` of R, numbered in order of
    their least elements: each element's coset, each coset's least element,
    and for each element x the member m with x = least + m."""
    n = len(add)
    cls, offset, least = [-1] * n, [0] * n, []
    for x in range(n):
        if cls[x] < 0:
            row = add[x]
            for m in members:
                cls[row[m]] = len(least)
                offset[row[m]] = m
            least.append(x)
    return cls, least, offset


def _transversal(add, kernel) -> tuple:
    """``_cosets`` of K_a, the alphas of the pairs in K, and of K_0, the
    betas b with (0, b) in K.  The least pairs of the K-cosets, one per
    codeword, are arep x brep."""
    return (_cosets(add, {ka for ka, _ in kernel}),
            _cosets(add, [kb for ka, kb in kernel if ka == 0]))


def _unit_generators(units, one: int, mul, accept) -> list:
    """Walk ``units`` in order and keep accept(u) for each u outside the
    subgroup that the units kept so far generate, unless it is None."""
    span, kept, elems = {one}, [], []
    for u in units:
        if u in span:
            continue
        gen = accept(u)
        if gen is None:
            continue
        kept.append(gen)
        elems.append(u)
        stack = list(span)
        while stack:
            x = stack.pop()
            for g in elems:
                y = mul[x][g]
                if y not in span:
                    span.add(y)
                    stack.append(y)
    return kept


def _is_monomial(f: CodeFunction, u: int, lam: int) -> bool:
    """Whether f(u*x) = lam*f(x) for every x."""
    mot = f.ring.mul_table()
    urow, lrow, ft = mot[u], mot[lam], f.table
    return all(ft[urow[x]] == lrow[v] for x, v in enumerate(ft))


def monomial_symmetries(f: CodeFunction) -> list:
    """Pairs (u, lam) of units of R with f(u*x) = lam*f(x) for every x, whose
    u generate the units that have such a lam.  Whether (u, lam) holds
    depends on lam only through its action on f's values, so the first lam
    per action is kept; u needs the action v -> f(u*x_v), x_v the first x
    with f(x) = v, and that lam is checked on all of f."""
    ring = f.ring
    mot = ring.mul_table()
    ft = f.table
    units = ring.units()
    first_x = {}  # each distinct value of f -> the first x with it
    for x, v in enumerate(ft):
        first_x.setdefault(v, x)
    values, xs = list(first_x), list(first_x.values())
    lam_of = {}
    for lam in units:
        lam_of.setdefault(tuple(map(mot[lam].__getitem__, values)), lam)

    def accept(u):
        lam = lam_of.get(tuple(map(ft.__getitem__, map(mot[u].__getitem__, xs))))
        if lam is not None and _is_monomial(f, u, lam):
            return (u, lam)
        return None

    return _unit_generators(units, ring.one, mot, accept)


def check_code_budget(ring: Ring, budget: int | None = None) -> None:
    """The kernel takes at most |R|^2 lookups and labelling the orbits on the
    code a few per codeword, |C| <= |R|^2: both are charged, as 16 |R|^2.
    The estimate needs only |R|, so a job can check it before it builds a
    trace or a table."""
    check_budget("kernel and orbit labelling", 16 * ring.order ** 2, budget)


def build_code(ring: Ring, sub: Ring, trace: TraceMap, f: CodeFunction,
               budget: int | None = None) -> Code:
    """The code {x -> T(alpha*x + beta*f(x))} over all (alpha, beta) pairs,
    found through its kernel K; no codeword is built.

    ``check_code_budget`` is checked before the kernel.  The code keeps the
    budget for the stages that read it."""
    if f.ring is not ring:
        raise InvalidParameter("function is defined on a different ring")
    if trace.ring is not ring or trace.sub is not sub:
        raise InvalidParameter("trace does not map this ring onto this subring")
    check_code_budget(ring, budget)
    if f.kind == "sigma-quadratic":
        chi = generating_character(trace)
        if not char_fixed_by(chi, f.sigma):
            raise ValidationFailed(
                "CharacterNotSigmaInvariant",
                message=("the generating character of this trace is not fixed "
                         f"by {f.sigma.tag}"))
    return Code(ring, sub, trace, f, code_kernel(ring, trace, f), budget)


def code_from_specs(ring_spec: str, sub_spec: str | None, trace_spec: str | None,
                    f_spec: str | None, seed: int | None = None,
                    budget: int | None = None) -> Code:
    """The code of spec strings, built and checked in this order, so that a
    job's first fault is the one reported: the rings R and S (S = R when
    ``sub_spec`` is empty), each under the budget; ``check_code_budget``,
    before any trace or table; the trace, the identity when no spec is given
    and S = R; the function, with its seed; then ``build_code``."""
    ring = ring_from_spec(ring_spec, budget)
    sub = ring_from_spec(sub_spec, budget) if sub_spec else ring
    check_code_budget(ring, budget)
    if trace_spec is None:
        if sub is not ring:
            raise InvalidParameter(
                "an explicit trace spec is required when subring differs from ring")
        trace_spec = "identity"
    trace = trace_from_spec(ring, sub, trace_spec)
    if not f_spec:
        raise InvalidParameter("a function spec is required (f=... or --f)")
    f = function_from_spec(ring, f_spec, seed=seed)
    return build_code(ring, sub, trace, f, budget=budget)


def code_kernel(ring: Ring, trace: TraceMap, f: CodeFunction) -> tuple:
    """The pairs (alpha, beta) whose codeword is zero, beta-major.

    x -> T(alpha*x) is additive, so its values on the additive generators g
    of R fix it: alpha is known by its key (T(alpha*g))_g.  Two alphas with
    one key differ by a d with T(d*R) = 0, and ker T holds no nonzero ideal,
    so d = 0: a key names one alpha (the least is kept), and each beta meets
    at most one.  The pair (alpha, beta) is in K when that map is
    x -> -T(beta*f(x)), so each beta looks up the alpha keyed by
    (T(beta*(-f(g))))_g and confirms it on every x, stopping at the first x
    that fails: |R|*g lookups plus the confirmations."""
    mot = ring.mul_table()
    aot = ring.add_table()
    tr = trace.values
    ft = f.table
    n = ring.order
    gens = ring._additive_span()[0]
    alpha_of = {}
    for alpha in range(n):
        alpha_of.setdefault(tuple([tr[mot[alpha][g]] for g in gens]), alpha)
    neg_fg = [aot[ft[g]].index(0) for g in gens]
    kernel = []
    for beta in range(n):
        brow = mot[beta]
        alpha = alpha_of.get(tuple([tr[brow[v]] for v in neg_fg]))
        if alpha is None:
            continue
        arow = mot[alpha]
        if not any(tr[aot[arow[x]][brow[v]]] for x, v in enumerate(ft)):
            kernel.append((alpha, beta))
    return tuple(kernel)


def _spectrum(enum: WeightEnumerator, order: int) -> tuple:
    """W = |R| - w over the weights of a gamma = 1 homogeneous enumerator,
    |R| = ``order``: (D, numerators over the enumerator's denominator D),
    descending as the weights ascend."""
    den = enum.den
    return den, tuple(order * den - t for t, _ in enum)


def code_spectrum(code: Code, enum: WeightEnumerator | None = None) -> tuple:
    """The code's spectrum (D, values), read off its gamma = 1 homogeneous
    enumerator: each W is a value over D.  A caller that already holds that
    enumerator passes it as ``enum``; any other enumerator is ignored and
    the right one computed."""
    if enum is None or enum.kind != "homogeneous" or enum.gamma != (1, 1):
        enum = weight_enumerator(code, hom_weight(code.sub, 1))
    return _spectrum(enum, code.ring.order)


class WeightEnumerator:
    """Weight -> count map over the codewords of a code, with exact weights.

    Each weight w of ``counts`` (an int or a Fraction: its ``numerator`` and
    ``denominator`` are read) stands for w/``den``.  They are kept as
    integer numerators over one denominator ``den``, the least that makes
    every weight with a nonzero count an integer, so equal enumerators
    compare and hash equal however they were built: ``items`` holds the
    (numerator, count) pairs in ascending order and ``counts`` maps each
    numerator to its count.  ``gamma`` is a reduced (num, den) pair."""

    def __init__(self, counts, gamma=1, kind: str = "homogeneous", den: int = 1):
        items = {}
        for w, c in (counts.items() if hasattr(counts, "items") else counts):
            w = ratio(w)
            items[w] = items.get(w, 0) + int(c)
        items = [(w, c) for w, c in items.items() if c]
        common = lcm(*(d for (_, d), _ in items))
        nums = [n * (common // d) for (n, d), _ in items]
        g = gcd(common * den, *nums)
        self.den = common * den // g
        self.items = tuple(sorted((n // g, c) for n, (_, c) in zip(nums, items)))
        self.counts = dict(self.items)
        self.total = sum(c for _, c in self.items)
        self.gamma = ratio(gamma)
        self.kind = kind

    def __getitem__(self, w) -> int:
        """The count of weight w, an int or a Fraction."""
        num, den = ratio(w)
        t, rest = divmod(num * self.den, den)
        return 0 if rest else self.counts.get(t, 0)

    def __iter__(self):
        return iter(self.items)

    def _key(self) -> tuple:
        return self.den, self.items, self.gamma, self.kind

    def __eq__(self, other):
        if isinstance(other, WeightEnumerator):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def poly_str(self) -> str:
        """Render as 1 + c1 X^w1 + ... with ascending weights; fractional
        exponents are braced, e.g. X^{128/3}."""
        terms = []
        for t, c in self.items:
            if t == 0:
                terms.append(str(c))
                continue
            n, d = reduced(t, self.den)
            e = str(n) if d == 1 else "{" + f"{n}/{d}" + "}"
            terms.append(f"X^{e}" if c == 1 else f"{c}X^{e}")
        return "+".join(terms) if terms else "0"

    def to_records(self) -> list:
        return [{"weight": rational_str(t, self.den), "count": c}
                for t, c in self.items]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"WeightEnumerator({self.poly_str()})"


def orbit_weights(code: Code, table: WeightTable):
    """(orbits, D, weights): the orbits on the code and the weight of each
    orbit's codeword times the table's common denominator D, read through
    w o T at |R| lookups an orbit, charged to the code's budget.  A unit s
    of S puts c and s*c in one orbit, so a table not constant on S's unit
    orbits (homogeneous and Hamming ones are) raises InvalidParameter.

    The weights are checked against their first power moment, the sum of
    w*A_w.  Coordinate x maps C onto a submodule N_x of S, nonzero exactly
    when (x, f(x)) != (0, 0), since ker T holds no nonzero ideal; it takes
    each value of N_x |C|/|N_x| times.  S's homogeneous weight averages
    gamma over every nonzero ideal, so its moment is gamma*|C|*L, L the
    number of such x.  A Hamming table averages 1 - 1/|N_x|, which is
    1 - 1/|S| when S is a field.  Hamming tables off fields, and tables
    that are neither, are not checked.  A miss raises
    InternalInvariantViolation."""
    sub, w = code.sub, table.values
    if table.ring is not sub:
        raise InvalidParameter("weight table is for a different ring than S")
    orbit_of, sub_orbits = sub.unit_orbits()
    y = next((y for y, i in enumerate(orbit_of) if w[y] != w[sub_orbits[i][0]]), None)
    if y is not None:
        raise InvalidParameter(f"weight table on {sub.name} is not constant on the "
                               f"unit orbit of {sub.render(y)}")
    orbits = code.orbits
    check_budget("orbit weighing", len(orbits.reps) * code.ring.order, code.budget)
    den = table.den
    wt = [w[v] for v in code.trace.values]
    mot = code.ring.mul_table()
    aot = code.ring.add_table()
    ft = code.func.table
    weights = []
    for alpha, beta in orbits.reps:
        brow = mot[beta]
        weights.append(sum([wt[aot[a][brow[v]]] for a, v in zip(mot[alpha], ft)]))
    if table.kind == "hamming":
        field = len(sub.units()) == sub.order - 1
        mean = (sub.order - 1, sub.order) if field else None
    else:
        mean = table.gamma if table == hom_weight(sub, table.gamma) else None
    if mean is not None:
        # (x, f(x)) = (0, 0) only at x = 0, and there only when f(0) = 0
        a, b = mean
        expected = a * code.size * (code.ring.order - (ft[0] == 0))
        moment = sum(t * n for t, n in zip(weights, orbits.sizes))
        # moment/den == expected/b
        if moment * b != expected * den:
            raise InternalInvariantViolation(
                f"{table.kind} weights of {code.func.tag} on {code.ring.name} "
                f"over {sub.name} sum to {rational_str(moment, den)}, "
                f"not {rational_str(expected, b)}")
    return orbits, den, weights


def weight_enumerator(code: Code, table: WeightTable) -> WeightEnumerator:
    """Count the codewords of each weight, orbit by orbit, off the checked
    ``orbit_weights``."""
    orbits, den, weights = orbit_weights(code, table)
    counts = Counter()
    for w, size in zip(weights, orbits.sizes):
        counts[w] += size
    return WeightEnumerator(counts, gamma=table.gamma, kind=table.kind, den=den)


# ---------------------------------------------------------------------------
# Closed-form predictions for the named families.


def _require(cond: bool, msg: str):
    if not cond:
        raise OutOfRange(msg)


def frank_subring_enumerator(q: int, k: int) -> WeightEnumerator:
    """Frank code on GR(q^2, k) traced onto Z_{q^2}, q prime, k >= 2, at
    gamma = 1.  The weights are written over q - 1."""
    _require(_is_prime(q), f"q = {q} must be prime")
    _require(k >= 2, f"k = {k} must be >= 2")
    qk, d = q ** k, q - 1
    counts = {
        0: 1,
        (q ** (2 * k) - qk) * d: (qk - 1) * (q ** (2 * k - 2) - q ** (k - 1) + qk),
        q ** (2 * k) * d: (qk - 1) * (q ** (2 * k) - q ** (2 * k - 1) + qk + 1),
        q ** (2 * k) * d + qk:
            (qk - 1) * (q ** (2 * k - 1) - qk - q ** (2 * k - 2) + q ** (k - 1)),
    }
    return WeightEnumerator(counts, den=d)


def frank_self_enumerator(p: int, r: int) -> WeightEnumerator:
    """Frank code on R = GR(p^2, r) traced onto itself, r >= 2, gamma = 1."""
    _require(_is_prime(p), f"p = {p} must be prime")
    _require(r >= 2, f"r = {r} must be >= 2")
    counts = {
        0: 1,
        p ** (2 * r) - p ** r: p ** (2 * r) - p ** r,
        p ** (2 * r): p ** (3 * r) - p ** (2 * r) + p ** r - 1,
    }
    return WeightEnumerator(counts)


def zp_power_enumerator(p: int, d: int) -> WeightEnumerator:
    """Hamming enumerator of the power-map code on Z_p, 2 <= d <= p - 1."""
    _require(_is_prime(p), f"p = {p} must be prime")
    _require(2 <= d <= p - 1, f"d = {d} outside 2..{p - 1}")
    ell = gcd(d - 1, p - 1)
    c1 = (p - 1) ** 2 // ell
    counts = {
        0: 1,
        p - ell - 1: c1,
        p - 1: p * p - 1 - c1,
    }
    return WeightEnumerator(counts, kind="hamming")


def z2p_power_enumerator(p: int, d: int) -> WeightEnumerator:
    """Homogeneous enumerator (gamma = 1) of the power-map code on Z_2p, its
    weights written over p - 1."""
    _require(_is_prime(p) and p % 2 == 1, f"p = {p} must be an odd prime")
    _require(2 <= d <= p - 1, f"d = {d} outside 2..{p - 1}")
    ell = gcd(d - 1, p - 1)
    c1 = (p - 1) ** 2 // ell
    counts = {
        0: 1,
        2 * p * (p - 1 - ell): c1,
        2 * p * (p - 1): 2 * p * p - c1 - 1,
    }
    return WeightEnumerator(counts, den=p - 1)


def sigma_quadratic_enumerator(ring: Ring) -> WeightEnumerator:
    """Enumerator (gamma = 1, R = S) of a sigma-quadratic code on a local ring
    whose sigma fixes the generating character.

    For residue fields with k > 2 elements this corrects the transcribed
    table, which put k - 1 codewords at weight |R| - |M| instead of |R|.  The
    table meets the first moment: every coordinate x != 0 maps the code
    onto a nonzero ideal, over which the weight averages to gamma, so the
    weights sum to |C| * (|R| - 1).  With |R| = k*|M| the counts and the
    weights sum right on every local ring, as an identity in k and |M|.
    The weights are written over |R^x| = |R| - |M| when k > 2, and over 2
    when k = 2."""
    if not ring.is_local():
        raise NotLocal(f"{ring.name} is not local")
    n = ring.order
    m = len(ring.nonunits())
    k = ring.residue_size()
    u = n - m
    if k > 2:
        counts = {
            0: 1,
            (n - m) * u: k * (n - k),
            n * u - n * m: (k - 1) ** 2,
            n * u: n * n - k * n + 2 * (k - 1),
        }
        return WeightEnumerator(counts, den=u)
    counts = {
        0: 1,
        n: n - 2,
        2 * n: n * n // 2 - n + 1,
    }
    return WeightEnumerator(counts, den=2)


# each family's closed-form enumerator and the order |R| of its ring, as
# functions of the family's parameters
_FAMILIES = {
    "frank-subring": (frank_subring_enumerator, lambda q, k: q ** (2 * k)),
    "frank-self": (frank_self_enumerator, lambda p, r: p ** (2 * r)),
    "zp-power": (zp_power_enumerator, lambda p, d: p),
    "z2p-power": (z2p_power_enumerator, lambda p, d: 2 * p),
    "sigma-quadratic": (sigma_quadratic_enumerator, lambda ring: ring.order),
}


def _closed_form(family: str, params) -> tuple:
    """A family's closed-form enumerator and |R|; the sigma-quadratic
    family takes its ring as ``params = (ring,)``."""
    if family not in _FAMILIES:
        raise UnknownPreset(f"unknown closed-form family {family!r}")
    enumerator, order = _FAMILIES[family]
    return enumerator(*params), order(*params)


def closed_form_enumerator(family: str, params) -> WeightEnumerator:
    return _closed_form(family, params)[0]


def closed_form_spectrum(family: str, params) -> tuple:
    """The spectrum read off a family's closed form, which must be a gamma = 1
    homogeneous enumerator."""
    enum, order = _closed_form(family, params)
    if enum.kind != "homogeneous" or enum.gamma != (1, 1):
        raise InvalidParameter(f"{family} has no closed-form spectrum here")
    return _spectrum(enum, order)


def frank_subring_spectrum(q: int, k: int) -> tuple:
    return closed_form_spectrum("frank-subring", (q, k))


def frank_self_spectrum(p: int, r: int) -> tuple:
    return closed_form_spectrum("frank-self", (p, r))


def z2p_power_spectrum(p: int, d: int) -> tuple:
    return closed_form_spectrum("z2p-power", (p, d))


def sigma_quadratic_spectrum(ring: Ring) -> tuple:
    """On a field no codeword has weight |R| - |M|, so W = |M| is not listed."""
    return closed_form_spectrum("sigma-quadratic", (ring,))
