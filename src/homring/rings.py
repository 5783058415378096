"""Finite commutative rings with canonical integer element encodings.

Every ring is free over Z_m on a basis b_0 = 1, b_1, ..., b_{k-1}: the
element sum c_i b_i, 0 <= c_i < m, is encoded in base m as sum c_i m^i.
One arithmetic serves every family (``Ring``): + and - are digit-wise mod
m, and * is bilinear from the basis products b_i * b_j, which each family
gives.  Three families are provided:

* ``Zm:<m>`` -- integer residue rings Z_m, the rank-1 case: element i
  encodes the residue i;
* ``GR:<p>,<n>,<r>`` -- Galois rings GR(p^n, r) = Z_{p^n}[x]/(h) with h a
  monic basic irreducible of degree r, on the basis 1, x, ..., x^(r-1) over
  Z_{p^n}: x^i * x^j = x^(i+j), reduced by h.  The modulus h is chosen
  deterministically: the lexicographically smallest monic polynomial over
  F_p whose root generates the multiplicative group of F_{p^r} is lifted so
  that the class xi of x satisfies xi^(p^r - 1) = 1.  The unit xi then
  generates the Teichmueller group, and the Frobenius map, which acts
  digit-wise on p-adic coordinates, is the ring automorphism with
  xi -> xi^p.
* two presets (``TableRing``) with their basis products keyed by symbol:
  ``FXY:<p>`` = F_p[x,y]/(x^2, y^2) on the basis (1, x, y, xy) over Z_p,
  from x*y = xy, and ``Z4X`` = Z_4[x]/(x^2 + 2) on the basis (1, t) over
  Z_4, from t^2 = 2 (t denotes the class of x).

All three families are commutative rings by construction, so no axiom is
checked, nor is the radical or the socle checked as an ideal.  Every ring
exposes integer-encoded arithmetic plus cached structural data: units,
radical (the nilpotents) and socle (annihilator of the radical) as
ascending tuples, locality, and for local rings the Teichmueller coordinate
system.  That data, and everything else derived from a ring here and in
``traces`` and ``weights``, is built once and kept in the ring's own cache
by ``_cached``.  Rings are immutable after construction, and each
constructor is memoized, so one spec or one modulus gives one ring object.
Every ring map, an automorphism (Frobenius, swap-xy) or the canonical
embedding of a subring, is a ``SubringEmbedding``.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from math import gcd

from .budget import _limit, _refuse, check_budget
from .errors import (
    BadPermutation,
    InternalInvariantViolation,
    InvalidParameter,
    NotLocal,
    ParseError,
    UnknownPreset,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(a: int, m: int, k: int) -> tuple:
    """The k base-m digits of a, least significant first."""
    out = []
    for _ in range(k):
        a, c = divmod(a, m)
        out.append(c)
    return tuple(out)


def _from_digits(digits, m: int) -> int:
    """sum c_i * m^i over the digits c_i, least significant first, each
    reduced mod m."""
    out = 0
    for c in reversed(list(digits)):
        out = out * m + c % m
    return out


def _table_pow(mot, one: int, a: int, k: int) -> int:
    """a^k by square-and-multiply on a multiplication table."""
    out = one
    while k:
        if k & 1:
            out = mot[out][a]
        a = mot[a][a]
        k >>= 1
    return out


def _extend(aot, steps, images) -> list:
    """The additive map with images[j] at the j-th basis element m^j, along
    the steps (y, x, j), y = x + m^j, of ``Ring._additive_span``,
    on the add table ``aot`` of the target: out[y] = images[j] + out[x],
    read on the row of images[j], so only len(images) rows are touched.
    The map is not checked here."""
    rows = [aot[v] for v in images]
    out = [0] * (len(steps) + 1)
    for y, x, j in steps:
        out[y] = rows[j][out[x]]
    return out


def _homomorphism_failure(src: "Ring", table, add, mul=None):
    """Where ``table``, a map from src into a ring with add table ``add``
    (and mul table ``mul``), first fails to preserve + (or *), checked on
    src's additive generators g at |src|*g + g^2 cells: ("+", a, g) with
    table[a + g] != table[a] + table[g], else ("*", g, h) with
    table[g*h] != table[g]*table[h]; None when neither fails.  The b with
    table[a + b] = table[a] + table[b] for every a are closed under +, so
    the first check makes the map additive; * is additive in each argument,
    so generator pairs then make it multiplicative."""
    aot, gens = src.add_table(), src._additive_span()[0]
    for g in gens:
        left = list(map(table.__getitem__, aot[g]))          # table[a + g]
        right = list(map(add[table[g]].__getitem__, table))  # table[a] + table[g]
        if left != right:
            return "+", next(a for a in range(src.order) if left[a] != right[a]), g
    if mul is not None:
        mot = src.mul_table()
        for g in gens:
            for h in gens:
                if table[mot[g][h]] != mul[table[g]][table[h]]:
                    return "*", g, h
    return None


def _cached(key):
    """Keep a function's value on a ring in that ring's own ``_cache``,
    built on first use; a build that raises stores nothing, so a refused
    input is refused again.  ``key`` is the cache key of a function of the
    ring alone (its first argument), or a function of the call's arguments
    that returns (ring, key) for a value that depends on more.  The values
    live as long as their ring does, not as long as the process."""
    def wrap(build):
        @wraps(build)
        def cached(*args):
            ring, k = key(*args) if callable(key) else (args[0], key)
            cache = ring._cache
            if k not in cache:
                cache[k] = build(*args)
            return cache[k]
        return cached
    return wrap


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# supporting value types
# ---------------------------------------------------------------------------


class SubringEmbedding:
    """An injective unital ring homomorphism S -> R as an index table: the
    embedding of a subring S, or with S = R an automorphism.

    The table is checked here, and a refusal raises InvalidParameter: its
    length, its values in R, injectivity, 0 -> 0 and 1 -> 1, then + and *
    on the additive generators of S, named by the first failing pair that
    check finds: (a, g) for +, with g a generator, or (g, h) for *."""

    def __init__(self, sub: "Ring", ring: "Ring", table, tag: str = "table"):
        table = tuple(table)
        if len(table) != sub.order:
            raise InvalidParameter("embedding table must cover all of S")
        bad = next((v for v in table if not 0 <= v < ring.order), None)
        if bad is not None:
            raise InvalidParameter(f"embedding value {bad} out of range for {ring.name}")
        if len(set(table)) != sub.order:
            raise InvalidParameter("embedding is not injective")
        if table[0] != 0 or table[sub.one] != ring.one:
            raise InvalidParameter("embedding must send 0 to 0 and 1 to 1")
        failure = _homomorphism_failure(sub, table, ring.add_table(), ring.mul_table())
        if failure is not None:
            op, a, b = failure
            raise InvalidParameter(
                f"embedding not {'additive' if op == '+' else 'multiplicative'} "
                f"at ({sub.render(a)},{sub.render(b)})")
        self.sub = sub
        self.ring = ring
        self.table = table
        self.tag = tag

    def __call__(self, s: int) -> int:
        return self.table[s]

    def __repr__(self):
        return f"SubringEmbedding({self.sub.name} -> {self.ring.name}, {self.tag})"


class TeichmullerData:
    """Teichmueller coordinate system of a local ring.

    ``elements`` lists the Teichmueller set ordered with 0 first, then the
    powers g^0, g^1, ... of a fixed generator g of its cyclic unit part.
    ``nu`` maps each ring element a to the unique Teichmueller t with
    a - t in the maximal ideal.
    """

    def __init__(self, elements, nu):
        self.elements = tuple(elements)
        self.nu = tuple(nu)


# ---------------------------------------------------------------------------
# ring base class
# ---------------------------------------------------------------------------


class Ring:
    """A finite commutative ring, free over Z_m on a basis b_0 = 1, ...,
    b_{k-1}; sum c_i b_i is encoded in base m as sum c_i m^i, so b_i is
    m^i.  + and - are digit-wise mod m, and * is bilinear from
    ``products[i][j]``, the base-m digits of b_i * b_j, least significant
    first (a missing digit is 0).  The families give the products."""

    family = "abstract"

    def __init__(self, name: str, m: int, k: int, products):
        self.name = name
        self.m = m
        self.k = k
        self.order = m**k
        self.one = 1
        self._products = products
        self._cache: dict = {}

    def encode(self, digits) -> int:
        return _from_digits(digits, self.m)

    def decode(self, a: int) -> tuple:
        return _digits(a, self.m, self.k)

    def add(self, a: int, b: int) -> int:
        return self.encode(map(int.__add__, self.decode(a), self.decode(b)))

    def neg(self, a: int) -> int:
        return self.encode(map(int.__neg__, self.decode(a)))

    def mul(self, a: int, b: int) -> int:
        out = [0] * self.k
        db = self.decode(b)
        for x, row in zip(self.decode(a), self._products):
            if x:
                for y, prod in zip(db, row):
                    if y:
                        for i, c in enumerate(prod):
                            out[i] += x * y * c
        return self.encode(out)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            raise InvalidParameter("negative exponents need an explicit inverse")
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    # ----- cached structural data ----------------------------------------

    def characteristic(self) -> int:
        """The additive order of 1, whose one digit is taken mod m."""
        return self.m

    @_cached("units")
    def units(self) -> tuple:
        one = self.one
        return tuple(a for a, row in enumerate(self.mul_table())
                     if one in row)

    @_cached("nonunits")
    def nonunits(self) -> tuple:
        us = set(self.units())
        return tuple(a for a in range(self.order) if a not in us)

    @_cached("unit_orbits")
    def unit_orbits(self) -> tuple:
        """(orbit_of, orbits): each element's orbit {u*x : u in R^x}, and each
        orbit's members in ascending order, numbered by least member; the
        walk x = 0, 1, ... starts one at each x not yet in one."""
        mot, orbit_of, orbits = self.mul_table(), [-1] * self.order, []
        for x in range(self.order):
            if orbit_of[x] < 0:
                orbit = sorted({mot[x][u] for u in self.units()})
                for y in orbit:
                    orbit_of[y] = len(orbits)
                orbits.append(tuple(orbit))
        return orbit_of, tuple(orbits)

    @_cached("radical")
    def radical(self) -> tuple:
        """The nilpotent elements (= Jacobson radical here), ascending.  In
        a commutative ring they form an ideal, so its closure is not
        checked here; the tests check it on the ring operations."""
        mot = self.mul_table()
        return tuple(a for a in range(self.order)
                     if _table_pow(mot, self.one, a, self.order) == 0)

    @_cached("socle")
    def socle(self) -> tuple:
        """The annihilator of the radical, ascending: an ideal, as every
        annihilator in a commutative ring is, so not checked as one."""
        rad = self.radical()
        mot = self.mul_table()
        return tuple(a for a in range(self.order)
                     if not any(map(mot[a].__getitem__, rad)))

    @_cached("local")
    def is_local(self) -> bool:
        """Local iff the non-units are closed under addition."""
        non = self.nonunits()
        ns = set(non)
        aot = self.add_table()
        return all(aot[a][b] in ns for a in non for b in non)

    def residue_size(self) -> int:
        """|R| / |M| for local rings (size of the residue field)."""
        if not self.is_local():
            raise NotLocal(f"{self.name} is not local")
        return self.order // len(self.nonunits())

    @_cached("teich")
    def teichmuller(self) -> TeichmullerData:
        """The Teichmueller set 0, g^0, ..., g^(q-2) of a local ring with
        residue field of size q, g from ``_teichmuller_generator``, and its
        digit map nu.  Each fact is checked once: the powers of g return to
        1 after q - 1 steps and are distinct, and the cosets t + M of the q
        Teichmueller elements cover every element once."""
        if not self.is_local():
            raise NotLocal(f"{self.name} is not local")
        q = self.residue_size()
        mot = self.mul_table()
        gen = self._teichmuller_generator(q - 1)
        elements = [0]
        cur = self.one
        for _ in range(q - 1):
            elements.append(cur)
            cur = mot[cur][gen]
        if cur != self.one or len(set(elements)) != q:
            raise InternalInvariantViolation("Teichmueller generator order wrong")
        # a - t lies in M exactly when a lies in the coset t + M
        aot = self.add_table()
        maximal = self.nonunits()
        nu = [None] * self.order
        hits = [0] * self.order
        for t in elements:
            row = aot[t]
            for m in maximal:
                a = row[m]
                hits[a] += 1
                nu[a] = t
        for a, h in enumerate(hits):
            if h != 1:
                raise InternalInvariantViolation(
                    f"element {a} has {h} Teichmueller digits"
                )
        return TeichmullerData(elements, nu)

    def _teichmuller_generator(self, order):
        """The least unit of multiplicative order exactly ``order``."""
        mot, one = self.mul_table(), self.one
        primes = _prime_factors(order)
        for u in self.units():
            if _table_pow(mot, one, u, order) == one and all(
                    _table_pow(mot, one, u, order // p) != one for p in primes):
                return u
        raise InternalInvariantViolation("no Teichmueller generator found")

    # ----- dense tables for hot loops ------------------------------------
    #
    # The add rows of the k basis elements are read off the encoding, and
    # only basis pairs call mul, k^2 calls; every other cell is a lookup.

    @_cached("span")
    def _additive_span(self) -> tuple:
        """The basis m^j as additive generators, their add rows
        v -> m^j + v, and the steps (y, y - m^j, j), j the lowest nonzero
        digit of y, for y = 1 .. |R|-1: each y - m^j is 0 or an earlier y,
        and every element is reached once."""
        m, n = self.m, self.order
        gens = [m**j for j in range(self.k)]
        steps = []
        for y in range(1, n):
            j, g = 0, 1
            while y // g % m == 0:
                j, g = j + 1, g * m
            steps.append((y, y - g, j))
        rows = []
        for g in gens:  # + m^j turns each block of m^(j+1) by m^j
            row = []
            for b in range(0, n, g * m):
                row += range(b + g, b + g * m)
                row += range(b, b + g)
            rows.append(row)
        return gens, rows, steps

    @_cached("add_table")
    def add_table(self) -> list:
        """Row y = x + m^j is m^j's row read at row x, since
        (x + g) + v = g + (x + v)."""
        _, rows, steps = self._additive_span()
        aot = [list(range(self.order))] + [None] * (self.order - 1)
        for y, x, j in steps:
            aot[y] = list(map(rows[j].__getitem__, aot[x]))
        return aot

    @_cached("mul_table")
    def mul_table(self) -> list:
        """Row y is the additive map b -> y*b, extended from its images
        y*m^j = m^j*y, read off the basis rows."""
        aot, (gens, _, steps) = self.add_table(), self._additive_span()
        basis_rows = [_extend(aot, steps, [self.mul(g, h) for h in gens])
                      for g in gens]
        return [_extend(aot, steps, [row[y] for row in basis_rows])
                for y in range(self.order)]

    @_cached("sub_table")
    def sub_table(self) -> list:
        aot = self.add_table()
        neg = [row.index(0) for row in aot]
        return [list(map(row.__getitem__, neg)) for row in aot]

    # ----- presentation ---------------------------------------------------

    def render(self, a: int) -> str:
        return str(a)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} (order {self.order})>"


# ---------------------------------------------------------------------------
# integer residue rings
# ---------------------------------------------------------------------------


class IntegerModRing(Ring):
    """Z_m, the rank-1 case: 1 * 1 = 1."""

    family = "integer-modular"

    def __init__(self, m: int):
        if m < 2:
            raise InvalidParameter(f"Zm needs modulus >= 2, got {m}")
        super().__init__(f"Zm:{m}", m, 1, [[(1,)]])

    @_cached("units")
    def units(self):
        return tuple(a for a in range(self.m) if gcd(a, self.m) == 1)


@lru_cache(maxsize=None)
def make_integer_ring(m: int) -> IntegerModRing:
    return IntegerModRing(m)


# ---------------------------------------------------------------------------
# Galois rings
# ---------------------------------------------------------------------------


class GaloisRing(Ring):
    """GR(p^n, r) as Z_{p^n}[x] / (h) on the basis 1, x, ..., x^(r-1),
    elements encoded base p^n.

    ``reduction`` gives x^r = sum reduction[i] * x^i with coefficients in
    Z_{p^n}; it encodes the monic modulus h.  The basis product
    x^i * x^j is x^(i+j), reduced by it.
    """

    family = "galois"

    def __init__(self, p: int, n: int, r: int, reduction):
        m = p**n
        self.p, self.n, self.r, self.q = p, n, r, p**r
        self.reduction = tuple(c % m for c in reduction)
        if len(self.reduction) != r:
            raise InvalidParameter("reduction vector must have length r")
        # x^t for t = 0 .. 2r-2: x^(t-1) shifted up a digit, its x^r reduced
        power = [1] + [0] * (r - 1)
        powers = [tuple(power)]
        for _ in range(2 * r - 2):
            top = power[-1]
            power = [(c + top * t) % m for c, t in zip([0] + power[:-1], self.reduction)]
            powers.append(tuple(power))
        super().__init__(f"GR:{p},{n},{r}", m, r,
                         [[powers[i + j] for j in range(r)] for i in range(r)])
        self.xbar = self.reduction[0] if r == 1 else m  # class of x

    def _teichmuller_generator(self, order):
        # the class of x is Teichmueller by construction; pin it as the
        # canonical generator so 𝒯-indices follow powers of x.  Its order
        # is not tested here: the cycle check of ``teichmuller`` holds it
        return self.xbar

    def _evaluate(self, coeffs, at: int) -> int:
        """sum c_k * at^k by Horner's rule; c_k < p^n encodes c_k * 1."""
        aot, mot = self.add_table(), self.mul_table()
        acc = 0
        for c in reversed(coeffs):
            acc = aot[mot[acc][at]][c]
        return acc

    def render(self, a: int) -> str:
        return "(" + ",".join(str(c) for c in self.decode(a)) + ")"


def _smallest_generator_poly(p: int, r: int) -> tuple:
    """Coefficients (c_0..c_{r-1}) of the lexicographically smallest monic
    degree-r polynomial over F_p whose root generates F_{p^r}^*.

    Candidates are ordered by the base-p value of their coefficient string
    (most significant coefficient first).  A candidate passes iff the class
    of x in F_p[x]/(h) has multiplicative order exactly p^r - 1, which also
    certifies irreducibility.
    """
    q1 = p**r - 1
    primes = _prime_factors(q1) if q1 > 1 else []
    for v in range(p**r):
        cs = []
        t = v
        for _ in range(r):
            t, c = divmod(t, p)
            cs.append(c)
        if cs[0] == 0:
            continue  # x divides h, class of x is not a unit
        trial = GaloisRing(p, 1, r, tuple((-c) % p for c in cs))
        xb = trial.xbar
        if trial.pow(xb, q1) != trial.one:
            continue
        if any(trial.pow(xb, q1 // ell) == trial.one for ell in primes):
            continue
        return tuple(cs)
    raise InternalInvariantViolation(f"no generator polynomial for p={p}, r={r}")


def _solve_linear_mod(cols, target, mod: int, p: int) -> list[int]:
    """Solve M c = target over Z_mod where M has the given columns and is
    invertible modulo p."""
    r = len(target)
    m = [[cols[j][i] % mod for j in range(r)] + [target[i] % mod] for i in range(r)]
    for col in range(r):
        piv = next(
            (row for row in range(col, r) if m[row][col] % p != 0), None
        )
        if piv is None:
            raise InternalInvariantViolation("basis matrix singular mod p")
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, mod)
        m[col] = [(v * inv) % mod for v in m[col]]
        for row in range(r):
            if row != col and m[row][col]:
                f = m[row][col]
                m[row] = [(a - f * b) % mod for a, b in zip(m[row], m[col])]
    return [m[i][r] % mod for i in range(r)]


@lru_cache(maxsize=None)
def make_galois_ring(p: int, n: int, r: int) -> GaloisRing:
    """Construct GR(p^n, r) with the canonical basic irreducible modulus."""
    if not _is_prime(p):
        raise InvalidParameter(f"GR needs a prime p, got {p}")
    if n < 1 or r < 1:
        raise InvalidParameter(f"GR needs n >= 1 and r >= 1, got n={n}, r={r}")
    base = _smallest_generator_poly(p, r)
    reduction_p = tuple((-c) % p for c in base)
    if n == 1:
        ring = GaloisRing(p, 1, r, reduction_p)
    else:
        rough = GaloisRing(p, n, r, tuple(-c for c in base))
        # Teichmueller lift of the class of x inside the rough quotient
        xi = rough.pow(rough.xbar, (p**r) ** (n - 1))
        cols = []
        power = rough.one
        for _ in range(r):
            cols.append(rough.decode(power))
            power = rough.mul(power, xi)
        reduction = _solve_linear_mod(cols, rough.decode(power), rough.m, p)
        ring = GaloisRing(p, n, r, tuple(reduction))
    if ring.pow(ring.xbar, p**r - 1) != ring.one:
        raise InternalInvariantViolation("class of x is not a Teichmueller unit")
    if tuple(c % p for c in ring.reduction) != reduction_p:
        raise InternalInvariantViolation("lifted modulus does not reduce to h mod p")
    return ring


# ---------------------------------------------------------------------------
# ring maps: automorphisms and subring embeddings
# ---------------------------------------------------------------------------


@_cached("frobenius")
def frobenius(ring: GaloisRing) -> SubringEmbedding:
    """The Frobenius automorphism sum p^i a_i -> sum p^i a_i^p on digits
    a_i in the Teichmueller set, which holds the class x of the variable:
    so sigma(x) = x^p and sigma(sum c_k x^k) = sum c_k x^(pk)."""
    if not isinstance(ring, GaloisRing):
        raise UnknownPreset(f"frobenius automorphism needs a Galois ring, got {ring.name}")
    # sigma is additive: compute it on the additive generators and extend
    # along the span; the SubringEmbedding check covers the rest
    xp = _table_pow(ring.mul_table(), ring.one, ring.xbar, ring.p)
    gens, _, steps = ring._additive_span()
    images = [ring._evaluate(ring.decode(g), xp) for g in gens]
    table = _extend(ring.add_table(), steps, images)
    return SubringEmbedding(ring, ring, table, tag="frobenius-1")


@_cached("swapxy")
def swap_xy(ring: "TableRing") -> SubringEmbedding:
    """The coefficient-swap automorphism of FXY:p (x <-> y)."""
    if getattr(ring, "preset", None) != "fxy":
        raise UnknownPreset(f"swap-xy automorphism needs an FXY ring, got {ring.name}")
    # the basis 1, x, y, xy of FXY:p, encoded 1, p, p^2, p^3, goes to
    # 1, y, x, xy
    p = ring.m
    table = _extend(ring.add_table(), ring._additive_span()[2],
                    [1, p * p, p, p**3])
    return SubringEmbedding(ring, ring, table, tag="swap-xy")


@_cached(lambda sub, ring: (ring, ("embedding", sub)))
def subring_embedding(sub: Ring, ring: Ring) -> SubringEmbedding:
    """The canonical embedding of S into R, built once per pair and kept in
    R's cache under S itself (an id could pass to a later ring).

    Supported: S = R (identity); S = Z_c with c the characteristic of R
    (c -> c*1); Galois subrings GR(p^n, s) of GR(p^n, r) with s | r, where
    the canonical generator of S maps to the first power eta^m, m prime to
    p^s - 1, that is a root of S's modulus; eta = xi^((p^r-1)/(p^s-1))
    generates the Teichmueller group of that subring.
    """
    if sub is ring:
        return SubringEmbedding(sub, ring, range(ring.order), tag="identity")
    gens, _, steps = sub._additive_span()
    if isinstance(sub, IntegerModRing):
        if sub.m != ring.characteristic():
            raise InvalidParameter(
                f"{sub.name} does not embed in {ring.name}: "
                f"characteristic is {ring.characteristic()}"
            )
        # Z_c is spanned by 1
        table = _extend(ring.add_table(), steps, [ring.one])
        return SubringEmbedding(sub, ring, table, tag="characteristic")
    if isinstance(sub, GaloisRing) and isinstance(ring, GaloisRing):
        if sub.p != ring.p or sub.n != ring.n or ring.r % sub.r != 0:
            raise InvalidParameter(
                f"{sub.name} is not a Galois subring of {ring.name}"
            )
        eta = ring.pow(ring.xbar, (ring.q - 1) // (sub.q - 1))
        # S's modulus x^s - sum red_k x^k, with coefficients encoding c_k*1
        modulus = [-c % sub.m for c in sub.reduction] + [1]
        powers = (ring.pow(eta, m) for m in range(1, sub.q) if gcd(m, sub.q - 1) == 1)
        root = next((y for y in powers if ring._evaluate(modulus, y) == 0), None)
        if root is None:
            raise InternalInvariantViolation(
                f"no root of the modulus of {sub.name} in {ring.name}")
        # a generator sum c_k x^k of S goes to sum c_k root^k in R
        images = [ring._evaluate(sub.decode(g), root) for g in gens]
        table = _extend(ring.add_table(), steps, images)
        return SubringEmbedding(sub, ring, table, tag="teichmuller-power")
    raise InvalidParameter(f"no canonical embedding of {sub.name} into {ring.name}")


# ---------------------------------------------------------------------------
# preset rings spanned over Z_m by a basis
# ---------------------------------------------------------------------------


class TableRing(Ring):
    """A preset ring on the basis ``symbols`` over Z_m, the first symbol 1.
    ``products`` holds the digits of each basis product b_i * b_j that is
    not 0, keyed by its two symbols, in either order; 1 * b = b.  The
    products of FXY:p and Z4X are those of their quotient rings.  An
    element renders as its nonzero terms c*b, with c*1 as c and 1*b as b.
    """

    family = "table"

    def __init__(self, name: str, m: int, symbols: tuple, products: dict,
                 preset: str):
        k = len(symbols)

        def product(i, j):
            if i == 0 or j == 0:
                return _digits(m ** (i + j), m, k)   # 1*b = b
            key = (symbols[i], symbols[j])
            return products.get(key) or products.get(key[::-1], ())

        super().__init__(name, m, k, [[product(i, j) for j in range(k)] for i in range(k)])
        self.symbols = symbols
        self.preset = preset

    def render(self, a):
        terms = [str(c) if sym == "1" else sym if c == 1 else f"{c}*{sym}"
                 for c, sym in zip(self.decode(a), self.symbols) if c]
        return "+".join(terms) or "0"


@lru_cache(maxsize=None)
def fxy_ring(p: int) -> TableRing:
    """F_p[x,y]/(x^2, y^2): order p^4 on the basis (1, x, y, xy)."""
    if not _is_prime(p):
        raise InvalidParameter(f"FXY needs a prime p, got {p}")
    return TableRing(f"FXY:{p}", p, ("1", "x", "y", "x*y"),
                     {("x", "y"): (0, 0, 0, 1)}, "fxy")


@lru_cache(maxsize=None)
def z4x_ring() -> TableRing:
    """Z_4[x]/(x^2 + 2): order 16 on the basis (1, t) with t^2 = 2."""
    return TableRing("Z4X", 4, ("1", "t"), {("t", "t"): (2,)}, "z4x")


# ---------------------------------------------------------------------------
# the ring-spec grammar
# ---------------------------------------------------------------------------


def parse_ring_spec_parts(spec: str):
    """Split a ring spec string into (family, params) without building it."""
    spec = spec.strip()
    if spec == "Z4X":
        return ("z4x", ())
    head, sep, tail = spec.partition(":")
    if not sep:
        raise UnknownPreset(f"unknown ring spec {spec!r}")
    if head == "Zm":
        try:
            return ("zm", (int(tail),))
        except ValueError:
            raise ParseError(f"bad modulus in ring spec {spec!r}")
    if head == "GR":
        parts = tail.split(",")
        if len(parts) != 3:
            raise ParseError(f"GR spec needs p,n,r: {spec!r}")
        try:
            return ("galois", tuple(int(x) for x in parts))
        except ValueError:
            raise ParseError(f"bad integer in ring spec {spec!r}")
    if head == "FXY":
        try:
            return ("fxy", (int(tail),))
        except ValueError:
            raise ParseError(f"bad prime in ring spec {spec!r}")
    raise UnknownPreset(f"unknown ring family {head!r} in spec {spec!r}")


_BUILDERS = {"zm": make_integer_ring, "galois": make_galois_ring,
             "fxy": fxy_ring, "z4x": z4x_ring}

# each family's base modulus m and rank k, |R| = m^k, from its parameters
_BASES = {"zm": lambda m: (m, 1), "galois": lambda p, n, r: (p**n, r),
          "fxy": lambda p: (p, 4), "z4x": lambda: (4, 2)}


def ring_from_spec(spec: str, budget: int | None = None) -> Ring:
    """Build (and memoize) a ring from its spec string once the budget
    admits its set-up: |R|^2 cells in each of the add, mul and sub tables
    and up to |R|^2 in the cyclic submodules, at two lookups a cell.  The
    charge is read off the spec before the ring is built, since a Galois
    ring searches for its modulus when it is built; parameters that are
    not positive are left to the builder to refuse."""
    family, params = parse_ring_spec_parts(spec)
    if all(v > 0 for v in params):
        m, k = _BASES[family](*params)
        low = 2 * k * (m.bit_length() - 1) + 3   # 8 m^(2k) >= 2^low, = if m is 2^e
        if low > 14000 and _limit(budget).bit_length() <= low:   # left unbuilt
            _refuse("ring set-up", f"{'at least' if m & (m - 1) else 'about'} 2^{low}",
                    _limit(budget))
        check_budget("ring set-up", 8 * (m**k) ** 2, budget)
    return _BUILDERS[family](*params)


def permutation_of_teichmuller(ring: Ring, perm) -> tuple:
    """Validate a one-line permutation of Teichmueller indices fixing 0."""
    t = ring.teichmuller()
    perm = tuple(perm)
    if sorted(perm) != list(range(len(t.elements))):
        raise BadPermutation(
            f"expected a permutation of 0..{len(t.elements) - 1}, got {perm}"
        )
    if perm[0] != 0:
        raise BadPermutation("permutation must fix index 0 (the element 0)")
    return perm
