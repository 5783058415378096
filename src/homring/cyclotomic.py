"""Exact sums of roots of unity, reduced in the cyclotomic field Q(w_m).

A value is stored as its coefficient vector over the power basis
1, w, ..., w^(phi(m)-1) of Q(w_m), where w = w_m is a primitive m-th root of
unity and phi is Euler's totient.  All coefficients are exact rationals
(`fractions.Fraction`), and every representation is kept reduced modulo the
m-th cyclotomic polynomial, so equality of vectors is equality of values.

The module provides no field arithmetic.  It does one job: a character sum
over a finite ring is assembled as an exponent histogram, reduced once modulo
Phi_m, and converted to a plain rational when all non-constant coefficients
vanish.  No floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParameter, NotRational


def _divisors(m: int) -> list[int]:
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


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
        raise InvalidParameter("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by exact division of x^m - 1 by the cyclotomic polynomials of all
    proper divisors of m.  The result is monic with integer coefficients.
    """
    if m < 1:
        raise InvalidParameter(f"cyclotomic polynomial needs m >= 1, got {m}")
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


class Cyclotomic:
    """An element of Q(w_m), reduced modulo Phi_m."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise InvalidParameter("conductor must be >= 1")
        deg = len(cyclotomic_polynomial(conductor)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != deg:
            raise InvalidParameter(
                f"conductor {conductor} needs {deg} coefficients, got {len(cs)}"
            )
        self.conductor = conductor
        self.coeffs = tuple(cs)

    @staticmethod
    def from_exponent_counts(m: int, counts) -> "Cyclotomic":
        """sum over e of counts[e] * w_m^e, where counts is either a
        sequence indexed by exponent or a mapping exponent -> count."""
        rows = _basis_reduction(m)
        deg = len(rows[0])
        acc = [0] * deg
        pairs = counts.items() if hasattr(counts, "items") else enumerate(counts)
        for e, c in pairs:
            if c:
                row = rows[e % m]
                for i in range(deg):
                    acc[i] += c * row[i]
        return Cyclotomic(m, acc)

    # -- predicates and conversion ----------------------------------------

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        """Exact rational value; raises NotRational if root terms remain."""
        if not self.is_rational():
            raise NotRational(self.coeffs, self.conductor)
        return self.coeffs[0]

    def __repr__(self):
        return f"Cyclotomic(m={self.conductor}, {list(self.coeffs)})"


def rational_str(value) -> str:
    """Render a rational as ``num/den`` with the denominator always present."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"
