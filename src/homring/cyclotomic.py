"""Exact integer sums of m-th roots of unity, by Ramanujan sums, and the
integer-over-denominator form every rational here takes.

A character sum over a finite ring is assembled as an exponent histogram h:
h[e] counts the terms w^e, w a primitive m-th root of unity.  When h is
constant on each class {e : gcd(e, m) = g}, the sum is fixed by every
automorphism w -> w^j of Q(w), j prime to m, so it is rational and equals
its own Galois average.  The average of w^e is the Ramanujan sum
c_m(e)/phi(m) = mu(m/g)/phi(m/g), with g = gcd(e, m) and mu, phi the Moebius
and totient functions, so

    sum_e h[e] w^e = sum_e h[e] mu(m/g)/phi(m/g).

A rational sum of roots of unity is an algebraic integer, so it is an
integer.  Only int arithmetic is involved: a single rational is a pair
(num, den) in lowest terms with den > 0 (``reduced``), and a table of them
is a tuple of integer numerators over one denominator.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import InternalInvariantViolation


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
    """The Galois average of a sum of m-th roots of unity: its value, an
    int, when the sum is fixed by every automorphism of Q(w_m)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    @staticmethod
    def from_exponent_counts(m: int, counts) -> "Cyclotomic":
        """sum over e < m of counts[e] * w_m^e, averaged over Gal(Q(w_m)/Q).
        The average of a Galois-invariant sum is the sum, an integer, so a
        fractional average means the histogram was not invariant and raises
        InternalInvariantViolation."""
        den, weights = _galois_weights(m)
        value, rest = divmod(sum(map(mul, counts, weights)), den)
        if rest:
            raise InternalInvariantViolation(
                f"the sum of {m}-th roots of unity averages to "
                f"{rational_str(value * den + rest, den)}, not an integer: "
                "its exponent histogram is not Galois-invariant")
        return Cyclotomic(value)


def reduced(num: int, den: int = 1) -> tuple[int, int]:
    """num/den in lowest terms, as (num, den) with den > 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def ratio(value) -> tuple[int, int]:
    """``reduced`` of a (num, den) pair, or of a number with ``numerator``
    and ``denominator`` (an int, a Fraction)."""
    if isinstance(value, tuple):
        return reduced(*value)
    return reduced(value.numerator, value.denominator)


def rational_str(num: int, den: int = 1) -> str:
    """num/den rendered as ``num/den`` in lowest terms, with the denominator
    always present."""
    num, den = reduced(num, den)
    return f"{num}/{den}"
