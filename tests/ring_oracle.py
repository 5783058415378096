"""Slow second routes for ring set-up, kept as the references that the
library's generator checks and its Frobenius are compared against.

* Teichmueller digits: a = sum p^i a_i on GR(p^n, r), computed through the
  ring's own ``sub``, ``mul`` and ``add``, so that Frobenius as the digit map
  sum p^i a_i -> sum p^i a_i^p is a route independent of x -> x^p.
* The full pair scans that ``_verify_automorphism`` and ``Character`` made
  before they checked on generators or not at all: O(|R|^2) cells each.
"""

from homring.errors import InternalInvariantViolation

# the 55 rings whose set-up is compared with the slow operations
SETUP_GRID = (
    [f"GR:2,1,{r}" for r in range(1, 7)] + [f"GR:2,2,{r}" for r in range(1, 4)]
    + ["GR:2,3,2", "GR:3,2,2", "GR:5,1,2", "GR:7,1,2"]
    + [f"Zm:{m}" for m in range(2, 41)] + ["FXY:2", "FXY:3", "Z4X"]
)


def div_by_p(R, a: int) -> int:
    """a / p for an a in pR, coefficient by coefficient."""
    cs = R.decode(a)
    if any(c % R.p for c in cs):
        raise InternalInvariantViolation("element not divisible by p")
    return R.encode(c // R.p for c in cs)


def padic_digits(R, a: int) -> tuple:
    """Digits (a_0, ..., a_{n-1}) in the Teichmueller set with
    a = sum p^i a_i."""
    nu = R.teichmuller().nu
    digits = []
    cur = a
    for i in range(R.n):
        d = nu[cur]
        digits.append(d)
        if i + 1 < R.n:
            cur = div_by_p(R, R.sub(cur, d))
    return tuple(digits)


def from_padic_digits(R, digits) -> int:
    out = 0
    for i, d in enumerate(digits):
        out = R.add(out, R.mul(R.element_from_int(R.p**i), d))
    return out


def frobenius_by_digits(R) -> list:
    """sum p^i a_i -> sum p^i a_i^p on every element."""
    return [from_padic_digits(R, [R.pow(d, R.p) for d in padic_digits(R, a)])
            for a in range(R.order)]


def automorphism_scan(R, perm) -> set:
    """Which of + ("+") and * ("*") the bijection perm fails to preserve on
    some pair (a, b), by a scan of every pair."""
    aot, mot = R.add_table(), R.mul_table()
    failed = set()
    for a in range(R.order):
        arow, mrow = aot[a], mot[a]
        parow, pmrow = aot[perm[a]], mot[perm[a]]
        for b in range(R.order):
            if perm[arow[b]] != parow[perm[b]]:
                failed.add("+")
            if perm[mrow[b]] != pmrow[perm[b]]:
                failed.add("*")
    return failed


def character_scan(R, conductor: int, exps):
    """The first property the exponent map fails, "additive" or
    "generating", or None: every pair for additivity, then every nonzero
    principal ideal xR for a nonzero exponent."""
    aot, mot = R.add_table(), R.mul_table()
    for a in range(R.order):
        for b in range(a, R.order):
            if exps[aot[a][b]] != (exps[a] + exps[b]) % conductor:
                return "additive"
    for x in range(1, R.order):
        if all(exps[rx] == 0 for rx in mot[x]):
            return "generating"
    return None
