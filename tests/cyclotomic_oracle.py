"""Oracle for the unit sums: sums of roots of unity reduced in Q(w_m).

A value is its coefficient vector over the power basis 1, w, ...,
w^(phi(m)-1) of Q(w_m), w a primitive m-th root of unity, kept reduced
modulo the m-th cyclotomic polynomial, so equal vectors are equal values.
This is the field reduction the library used before it read unit sums off
Ramanujan sums; it assumes nothing about the histogram it reduces, so it
checks ``homring.cyclotomic.Cyclotomic`` independently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide integer polynomials (constant term first); remainder must be 0."""
    num = list(num)
    dn = len(den) - 1
    assert den[-1] == 1, "divisor must be monic"
    out = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        out[k - dn] = c
        if c:
            for i, d in enumerate(den):
                num[k - dn + i] -= c * d
    if any(num):
        raise ValueError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first,
    by exact division of x^m - 1 by those of the proper divisors of m."""
    if m < 1:
        raise ValueError(f"cyclotomic polynomial needs m >= 1, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in _divisors(m):
        if d < m:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _basis_reduction(m: int) -> tuple[tuple[int, ...], ...]:
    """Reduction of x^e modulo Phi_m for e = 0..m-1, as integer vectors."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    # x^deg == -(phi minus leading term), used to fold shift overflow back in
    top = [-c for c in phi[:-1]]
    cur = [0] * deg
    for e in range(m):
        if e < deg:
            row = [0] * deg
            row[e] = 1
            rows.append(tuple(row))
            cur = row
        else:
            overflow = cur[-1]
            nxt = [0] + list(cur[:-1])
            if overflow:
                nxt = [a + overflow * t for a, t in zip(nxt, top)]
            rows.append(tuple(nxt))
            cur = nxt
    return tuple(rows)


class CyclotomicVector:
    """An element of Q(w_m), reduced modulo Phi_m."""

    def __init__(self, conductor: int, coeffs):
        self.conductor = conductor
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @staticmethod
    def from_exponent_counts(m: int, counts) -> "CyclotomicVector":
        """sum over e of counts[e] * w_m^e, where counts is either a
        sequence indexed by exponent or a mapping exponent -> count."""
        rows = _basis_reduction(m)
        acc = [0] * len(rows[0])
        pairs = counts.items() if hasattr(counts, "items") else enumerate(counts)
        for e, c in pairs:
            if c:
                for i, r in enumerate(rows[e % m]):
                    acc[i] += c * r
        return CyclotomicVector(m, acc)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_rational(self) -> Fraction:
        """The exact rational value; a value with root terms left fails."""
        assert self.is_rational(), f"not rational: {self!r}"
        return self.coeffs[0]

    def __repr__(self):
        return f"CyclotomicVector(m={self.conductor}, {list(self.coeffs)})"
