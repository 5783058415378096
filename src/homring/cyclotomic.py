"""Exact rational sums of m-th roots of unity, by Ramanujan sums.

A character sum over a finite ring is assembled as an exponent histogram h:
h[e] counts the terms w^e, w a primitive m-th root of unity.  When h is
constant on each class {e : gcd(e, m) = g}, the sum is fixed by every
automorphism w -> w^j of Q(w), j prime to m, so it is rational and equals
its own Galois average.  The average of w^e is the Ramanujan sum
c_m(e)/phi(m) = mu(m/g)/phi(m/g), with g = gcd(e, m) and mu, phi the Moebius
and totient functions, so

    sum_e h[e] w^e = sum_e h[e] mu(m/g)/phi(m/g).

Only int and ``fractions.Fraction`` arithmetic is involved.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul


def _mobius_totient(q: int) -> tuple[int, int]:
    """(mu(q), phi(q)) by trial division."""
    mu, phi, rest, p = 1, q, q, 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            mu = 0 if rest % p == 0 else -mu
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        mu, phi = -mu, phi - phi // rest
    return mu, phi


@lru_cache(maxsize=None)
def _galois_weights(m: int) -> tuple[int, tuple[int, ...]]:
    """(L, weights) with weights[e] = L * mu(m/g)/phi(m/g), g = gcd(e, m),
    for e < m, and L the least common multiple of the phi(m/g)."""
    average = {g: _mobius_totient(m // g) for g in range(1, m + 1) if m % g == 0}
    den = lcm(*(phi for _, phi in average.values()))
    return den, tuple(mu * (den // phi)
                      for mu, phi in (average[gcd(e, m)] for e in range(m)))


class Cyclotomic:
    """The Galois average of a sum of m-th roots of unity: its value, when
    the sum is fixed by every automorphism of Q(w_m)."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value

    @staticmethod
    def from_exponent_counts(m: int, counts) -> "Cyclotomic":
        """sum over e < m of counts[e] * w_m^e, averaged over Gal(Q(w_m)/Q)."""
        from fractions import Fraction

        den, weights = _galois_weights(m)
        return Cyclotomic(Fraction(sum(map(mul, counts, weights)), den))

    def to_rational(self) -> Fraction:
        return self.value


def rational_str(value) -> str:
    """Render an int or a Fraction as ``num/den`` with the denominator always
    present."""
    return f"{value.numerator}/{value.denominator}"
