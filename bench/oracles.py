"""Reference computations made apart from homring.

Nothing here imports homring.  Each function recomputes a fact about a job's
output from first principles (plain integers mod m, a Galois ring built from
its own polynomial arithmetic, closed forms from the literature) so that the
benchmark can check the CLI's reports without trusting the program.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd


# ---------------------------------------------------------------------------
# elementary number theory


def factorize(n: int) -> dict:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def zm_hom_weight(m: int) -> list:
    """Homogeneous weight on Z_m at gamma = 1: w(x) = 1 - mu(m/g)/phi(m/g),
    g = gcd(x, m) (Constantinescu-Heise; Greferath-Schmidt)."""
    out = []
    for x in range(m):
        k = m // gcd(x, m)
        out.append(1 - Fraction(mobius(k), phi(k)))
    return out


def unit_count(spec: str) -> int:
    """|R^x| from a ring spec: phi(m), p^(nr) - p^((n-1)r), p^4 - p^3, or 8."""
    head, _, tail = spec.partition(":")
    if head == "Zm":
        return phi(int(tail))
    if head == "GR":
        p, n, r = (int(t) for t in tail.split(","))
        return p ** (n * r) - p ** ((n - 1) * r)
    if head == "FXY":
        p = int(tail)
        return p ** 4 - p ** 3
    if spec == "Z4X":
        return 8
    raise ValueError(f"no unit count for ring spec {spec!r}")


def ring_order(spec: str) -> int:
    head, _, tail = spec.partition(":")
    if head == "Zm":
        return int(tail)
    if head == "GR":
        p, n, r = (int(t) for t in tail.split(","))
        return p ** (n * r)
    if head == "FXY":
        return int(tail) ** 4
    if spec == "Z4X":
        return 16
    raise ValueError(f"no order for ring spec {spec!r}")


# ---------------------------------------------------------------------------
# Z_m codes {x -> a*x + b*x^d}


@lru_cache(maxsize=None)
def zm_power_pairs(m: int, d: int) -> tuple:
    """(codewords, index of each pair (a, b) as a*m + b): the distinct
    codewords of {x -> a*x + b*x^d mod m} over Z_m."""
    xd = [pow(x, d, m) for x in range(m)]
    ids, words, pair_id = {}, [], [0] * (m * m)
    for a in range(m):
        for b in range(m):
            cw = tuple((a * x + b * xd[x]) % m for x in range(m))
            i = ids.get(cw)
            if i is None:
                i = ids[cw] = len(words)
                words.append(cw)
            pair_id[a * m + b] = i
    return tuple(words), tuple(pair_id)


def enumerator(words, weight) -> dict:
    out = {}
    for cw in words:
        w = sum(weight[s] for s in cw)
        out[w] = out.get(w, 0) + 1
    return out


def zm_power_enumerator(m: int, d: int) -> dict:
    return enumerator(zm_power_pairs(m, d)[0], zm_hom_weight(m))


# ---------------------------------------------------------------------------
# Cayley graphs of two-weight Z_m codes


def zm_power_graph(m: int, d: int, hamming: bool) -> dict:
    """Facts of the graph on the code joining codewords at the smaller
    nonzero weight w1, read off the Cayley graph Cay(C, D), D the codewords
    of weight w1: vertex count, w1, degree |D|, lambda/mu when constant
    (|D & (c + D)| over c in D, resp. c outside D and 0), and component
    sizes (cosets of the subgroup generated by D)."""
    words, pair_id = zm_power_pairs(m, d)
    weight = [0] + [1] * (m - 1) if hamming else zm_hom_weight(m)
    wts = [sum(weight[s] for s in cw) for cw in words]
    nonzero = sorted({w for w in wts if w})
    if len(nonzero) != 2:
        return {"two_weight": False, "weights": nonzero}
    w1 = nonzero[0]
    n = len(words)
    rep = [None] * n
    for pid, i in enumerate(pair_id):
        if rep[i] is None:
            rep[i] = divmod(pid, m)

    def plus(i, j):
        (a1, b1), (a2, b2) = rep[i], rep[j]
        return pair_id[((a1 + a2) % m) * m + (b1 + b2) % m]

    zero = pair_id[0]
    dset = [i for i in range(n) if wts[i] == w1]
    in_d = [False] * n
    for i in dset:
        in_d[i] = True
    lam, mu = set(), set()
    for c in range(n):
        if c == zero:
            continue
        common = sum(1 for j in dset if in_d[plus(c, j)])
        (lam if in_d[c] else mu).add(common)
    # subgroup generated by D, by closure from 0
    span, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for i in frontier:
            for j in dset:
                k = plus(i, j)
                if k not in span:
                    span.add(k)
                    nxt.append(k)
        frontier = nxt
    return {
        "two_weight": True,
        "vertices": n,
        "w1": w1,
        "degree": len(dset),
        "lambda": lam.pop() if len(lam) == 1 else None,
        "mu": (mu.pop() if len(mu) == 1 else None) if mu else 0,
        "component_size": len(span),
        "components": n // len(span),
    }


# ---------------------------------------------------------------------------
# Galois rings GR(p^n, r) = Z_{p^n}[x]/(h), built from scratch


def _irreducible_mod_p(h, p: int) -> bool:
    """Monic h (low-to-high coefficients) has no monic factor of degree
    1..deg/2 over F_p; brute force, fine for the small degrees used here."""
    deg = len(h) - 1
    for k in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=k):
            g = list(tail) + [1]
            rem = [c % p for c in h]
            for i in range(deg - k, -1, -1):
                c = rem[i + k]
                if c:
                    for j in range(k + 1):
                        rem[i + j] = (rem[i + j] - c * g[j]) % p
            if not any(rem[:k]):
                return False
    return True


class GaloisRingOracle:
    """GR(p^n, r) on coefficient tuples, indexed as base-p^n integers.

    Any monic h of degree r that is irreducible mod p gives the Galois ring
    (unique up to isomorphism); the largest such h is used here, so the
    presentation differs from homring's.  The trace onto Z_{p^n} is the
    trace of the multiplication map, which equals the Galois trace on this
    free extension."""

    def __init__(self, p: int, n: int, r: int):
        self.p, self.n, self.r = p, n, r
        self.q = p ** n
        self.order = self.q ** r
        for tail in product(range(p - 1, -1, -1), repeat=r):
            h = list(tail[::-1]) + [1]
            if _irreducible_mod_p(h, p):
                break
        self.h = h
        self.elems = [self.decode(i) for i in range(self.order)]

    def decode(self, i: int) -> tuple:
        out = []
        for _ in range(self.r):
            i, c = divmod(i, self.q)
            out.append(c)
        return tuple(out)

    def encode(self, cs) -> int:
        i = 0
        for c in reversed(cs):
            i = i * self.q + c % self.q
        return i

    def mul(self, a: int, b: int) -> int:
        x, y, r, q = self.elems[a], self.elems[b], self.r, self.q
        prod = [0] * (2 * r - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] += xi * yj
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k]
            if c:
                for j in range(r + 1):
                    prod[k - r + j] -= c * self.h[j]
        return self.encode([c % q for c in prod[:r]])

    def add(self, a: int, b: int) -> int:
        return self.encode([u + v for u, v in zip(self.elems[a], self.elems[b])])

    def power(self, a: int, k: int) -> int:
        out = self.encode([1])
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def trace(self, a: int) -> int:
        """Tr(a) = sum over i of the x^i coefficient of a * x^i."""
        total, xi = 0, self.encode([1])
        x = self.encode([0, 1]) if self.r > 1 else xi
        for i in range(self.r):
            total += self.elems[self.mul(a, xi)][i]
            xi = self.mul(xi, x)
        return total % self.q

    def teichmuller(self, a: int) -> int:
        """tau(a) = a^(p^(r(n-1))), the Teichmueller representative of a."""
        return self.power(a, self.p ** (self.r * (self.n - 1)))

    def frank(self, a: int) -> int:
        """p * a0 * a1 for a = a0 + p*a1, a0 and a1 Teichmueller (n = 2)."""
        a0 = self.teichmuller(a)
        diff = [(u - v) % self.q for u, v in zip(self.elems[a], self.elems[a0])]
        a1 = self.teichmuller(self.encode([c // self.p for c in diff]))
        return self.mul(self.encode([self.p]), self.mul(a0, a1))

    def code_enumerator(self, f_table, weight) -> dict:
        """Enumerator of {x -> Tr(a*x + b*f(x))} over pairs (a, b), under a
        weight on Z_{p^n}."""
        n = self.order
        mul = [[self.mul(a, b) for b in range(n)] for a in range(n)]
        add = [[self.add(a, b) for b in range(n)] for a in range(n)]
        tr = [self.trace(a) for a in range(n)]
        words = set()
        for b in range(n):
            bf = [mul[b][v] for v in f_table]
            for a in range(n):
                row = mul[a]
                words.add(tuple(tr[add[row[x]][bf[x]]] for x in range(n)))
        return enumerator(words, weight)


@lru_cache(maxsize=None)
def frank_enumerator(p: int, r: int) -> dict:
    """Homogeneous-weight enumerator of the Frank code on GR(p^2, r) traced
    onto Z_{p^2}, with the identity permutation of Teichmueller elements."""
    gr = GaloisRingOracle(p, 2, r)
    table = [gr.frank(a) for a in range(gr.order)]
    return gr.code_enumerator(table, zm_hom_weight(p * p))


def gr2_power_enumerator(r: int, d: int) -> dict:
    """Homogeneous-weight (twice Hamming) enumerator of {Tr(a*x + b*x^d)}
    over F_{2^r}, by brute force on GaloisRingOracle(2, 1, r)."""
    gr = GaloisRingOracle(2, 1, r)
    table = [gr.power(a, d) for a in range(gr.order)]
    return gr.code_enumerator(table, [0, 2])


def gold_enumerator(r: int) -> dict:
    """Three-weight distribution of {x -> Tr(a*x + b*x^d)} over F_{2^r},
    r odd, for an almost-bent x^d (Gold 2^k + 1 or Kasami 4^k - 2^k + 1 with
    gcd(k, r) = 1; MacWilliams-Sloane ch. 15), at homogeneous weight 2 *
    Hamming on F_2."""
    if r % 2 == 0 or r < 3:
        raise ValueError("the Gold distribution needs odd r >= 3")
    n, h, e = 2 ** r - 1, 2 ** (r - 1), 2 ** ((r - 1) // 2)
    s = 2 ** ((r - 3) // 2)
    return {
        0: 1,
        2 * (h - e): n * (2 ** (r - 2) + s),
        2 * h: n * (2 ** (r - 1) + 1),
        2 * (h + e): n * (2 ** (r - 2) - s),
    }


def almost_bent_exponents(r: int) -> list:
    """Gold and Kasami exponents for F_{2^r}, r odd, below 2^r - 1."""
    out = set()
    for k in range(1, r):
        if gcd(k, r) == 1:
            out.add(2 ** k + 1)
            out.add(4 ** k - 2 ** k + 1)
    return sorted(e % (2 ** r - 1) for e in out if 1 < e % (2 ** r - 1))
