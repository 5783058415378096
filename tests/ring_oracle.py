"""Slow second routes for ring set-up, kept as the references that the
library's generator checks and its Frobenius are compared against.

* Teichmueller digits: a = sum p^i a_i on GR(p^n, r), computed through the
  ring's own ``sub``, ``mul`` and ``add``, so that Frobenius as the digit map
  sum p^i a_i -> sum p^i a_i^p is a route independent of x -> x^p.
* The full pair scans of a ring map through the rings' own ``add`` and
  ``mul``, and of a character, which the library checks on generators or
  not at all: O(|R|^2) cells each; and the check that a refused map
  fails its named operation at its named pair, through the same ``add``
  and ``mul``.
* The coordinate formulas of the presets FXY:p and Z4X, which the library
  now builds from their basis products: every cell of the add and mul
  tables, and the render of every element.
* The per-element routes of the maps that the library now extends from its
  images of the additive generators: every cell of the mul table through
  ``mul``, swap-xy and the fxy-sum and z4x traces from coordinate digits,
  and the canonical subring embeddings through ``add``, ``mul`` and
  ``element_from_int`` below.
* The brute search for trace maps that the unit orbit of the named trace
  replaced: every S-linear candidate on a greedy S-module generating set,
  kept when it passes the trace checks.
* The greedy search for additive generators that the basis m^j replaced:
  each generator the smallest element not yet spanned, through ``add``.
* The per-element routes that the unit orbits replaced: one frozenset xR
  for every element, and one unit histogram of a character for every
  element.
"""

from itertools import product
from math import gcd

from homring.errors import InternalInvariantViolation
from homring.rings import subring_embedding
from homring.traces import _ideal_in_kernel, _is_linear, _missing_value

# the 55 rings whose set-up is compared with the slow operations
SETUP_GRID = (
    [f"GR:2,1,{r}" for r in range(1, 7)] + [f"GR:2,2,{r}" for r in range(1, 4)]
    + ["GR:2,3,2", "GR:3,2,2", "GR:5,1,2", "GR:7,1,2"]
    + [f"Zm:{m}" for m in range(2, 41)] + ["FXY:2", "FXY:3", "Z4X"]
)

# every ring GR(p^n, r) whose divisor pairs GR(p^n, s) < GR(p^n, r) are
# checked; GR:2,3,4 (4096 elements, whose add and mul tables take about
# 7 s to build) is left out
EMBEDDING_GRID = ([(2, 1, r) for r in range(2, 9)] + [(2, 2, r) for r in range(2, 5)]
                  + [(2, 3, 2), (2, 3, 3)] + [(3, 1, r) for r in range(2, 5)]
                  + [(3, 2, 2)] + [(5, 1, r) for r in range(2, 5)])


def element_from_int(R, c: int) -> int:
    """c*1 by double-and-add through the ring's own ``add``."""
    c %= R.characteristic()
    out, step = 0, R.one
    while c:
        if c & 1:
            out = R.add(out, step)
        step = R.add(step, step)
        c >>= 1
    return out


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
        out = R.add(out, R.mul(element_from_int(R, R.p**i), d))
    return out


def frobenius_by_digits(R) -> list:
    """sum p^i a_i -> sum p^i a_i^p on every element."""
    return [from_padic_digits(R, [R.pow(d, R.p) for d in padic_digits(R, a)])
            for a in range(R.order)]


def embedding_refusal_by_scan(sub, ring, table):
    """The ring-map checks pair by pair through the rings' own add and mul:
    the message of the first refusal, or None."""
    for a in range(sub.order):
        for b in range(sub.order):
            at = f"({sub.render(a)},{sub.render(b)})"
            if table[sub.add(a, b)] != ring.add(table[a], table[b]):
                return f"embedding not additive at {at}"
            if table[sub.mul(a, b)] != ring.mul(table[a], table[b]):
                return f"embedding not multiplicative at {at}"
    return None


def refusal_names_a_failing_pair(sub, ring, table, message) -> bool:
    """Whether ``message``, "embedding not <op> at (a,b)" with a and b as S
    renders them, names a pair at which ``table`` fails <op> through the
    rings' own add and mul."""
    renders = {sub.render(a): a for a in range(sub.order)}
    for op, on_sub, on_ring in (("additive", sub.add, ring.add),
                                ("multiplicative", sub.mul, ring.mul)):
        head = f"embedding not {op} at ("
        if message.startswith(head) and message.endswith(")"):
            body = message[len(head):-1]
            # a render may hold commas, so try each split
            for i in (i for i, c in enumerate(body) if c == ","):
                a, b = renders.get(body[:i]), renders.get(body[i + 1:])
                if (a is not None and b is not None
                        and table[on_sub(a, b)] != on_ring(table[a], table[b])):
                    return True
    return False


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


def greedy_generators(R) -> list:
    """The additive generators that a greedy search picks through R's own
    ``add``: each is the smallest element that the earlier ones do not
    span."""
    gens, seen, reached = [], {0}, [0]
    while len(reached) < R.order:
        gens.append(min(set(range(R.order)) - seen))
        i, before = 0, len(reached)
        while i < len(reached):
            for g in gens:
                y = R.add(reached[i], g)
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
            i += 1
        if len(reached) == before:
            raise InternalInvariantViolation(
                f"the span of {R.name} misses its generator {gens[-1]}")
    return gens


def mul_table_by_cells(R) -> list:
    return [[R.mul(a, b) for b in range(R.order)] for a in range(R.order)]


def _terms(pairs) -> str:
    """c*sym for each nonzero c, c alone for sym 1, sym alone for c 1."""
    terms = []
    for c, sym in pairs:
        if c:
            if sym == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(sym)
            else:
                terms.append(f"{c}*{sym}")
    return "+".join(terms) if terms else "0"


def fxy_by_coordinates(p: int) -> tuple:
    """The add table, mul table and renders of F_p[x,y]/(x^2, y^2) from its
    coordinates (c_1, c_x, c_y, c_xy), encoded c_1 + c_x p + c_y p^2 +
    c_xy p^3."""
    n = p**4
    dec = [(a % p, (a // p) % p, (a // p**2) % p, a // p**3) for a in range(n)]

    def enc(c1, cx, cy, cxy):
        return c1 % p + (cx % p) * p + (cy % p) * p**2 + (cxy % p) * p**3

    add = [[enc(a1 + b1, ax + bx, ay + by, axy + bxy) for b1, bx, by, bxy in dec]
           for a1, ax, ay, axy in dec]
    mul = [[enc(a1 * b1, a1 * bx + ax * b1, a1 * by + ay * b1,
                a1 * bxy + axy * b1 + ax * by + ay * bx) for b1, bx, by, bxy in dec]
           for a1, ax, ay, axy in dec]
    return add, mul, [_terms(zip(c, ("1", "x", "y", "x*y"))) for c in dec]


def z4x_by_coordinates() -> tuple:
    """The add table, mul table and renders of Z_4[x]/(x^2 + 2) from its
    coordinates (r_0, r_1) of r_0 + r_1 t, t^2 = 2, encoded r_0 + 4 r_1."""
    dec = [(a % 4, a // 4) for a in range(16)]
    add = [[(a0 + b0) % 4 + 4 * ((a1 + b1) % 4) for b0, b1 in dec] for a0, a1 in dec]
    mul = [[(a0 * b0 + 2 * a1 * b1) % 4 + 4 * ((a0 * b1 + a1 * b0) % 4)
            for b0, b1 in dec] for a0, a1 in dec]
    return add, mul, [_terms(zip(c, ("1", "t"))) for c in dec]


def _fxy_digits(R, a: int) -> tuple:
    """(c_1, c_x, c_y, c_xy) of an element of FXY:p."""
    p = R.m
    return a % p, (a // p) % p, (a // p**2) % p, a // p**3


def swap_xy_by_digits(R) -> list:
    p = R.m
    out = []
    for a in range(R.order):
        c1, cx, cy, cxy = _fxy_digits(R, a)
        out.append(c1 + cy * p + cx * p**2 + cxy * p**3)
    return out


def fxy_sum_by_digits(R) -> list:
    return [sum(_fxy_digits(R, a)) % R.m for a in range(R.order)]


def z4x_trace_by_digits(l0: int, l1: int) -> list:
    """T(r0 + t*r1) = l0*r0 + l1*r1 on Z4X, element r0 + 4*r1."""
    return [(l0 * (a % 4) + l1 * (a // 4)) % 4 for a in range(16)]


def embedding_by_elements(sub, R) -> list:
    """The canonical embedding S -> R on every element: the identity,
    c -> c*1 from Z_c, or sum c_k x^k -> sum c_k y^k from a Galois subring,
    y the first eta^m, m prime to q_S - 1, at which S's modulus
    x^s - sum red_k x^k vanishes, eta = xi^((q_R - 1)/(q_S - 1))."""
    if sub is R:
        return list(range(R.order))
    if not hasattr(sub, "reduction"):
        return [element_from_int(R, c) for c in range(sub.order)]
    eta = R.pow(R.xbar, (R.q - 1) // (sub.q - 1))

    def modulus_at(y):
        acc = R.pow(y, sub.r)
        for k, c in enumerate(sub.reduction):
            acc = R.sub(acc, R.mul(element_from_int(R, c), R.pow(y, k)))
        return acc

    root = next(y for y in (R.pow(eta, m) for m in range(1, sub.q)
                            if gcd(m, sub.q - 1) == 1) if modulus_at(y) == 0)
    powers = [R.pow(root, k) for k in range(sub.r)]
    table = []
    for a in range(sub.order):
        acc = 0
        for c, pw in zip(sub.decode(a), powers):
            acc = R.add(acc, R.mul(element_from_int(R, c), pw))
        table.append(acc)
    return table


def traces_by_search(R, S) -> list:
    """The value tables of every trace map R -> S, sorted: each assignment
    v of values to greedy S-module generators g_i of R is extended along
    the S-module span, T(x + s*g_i) = T(x) + s*v_i, and kept when it is
    S-linear, has no nonzero ideal in its kernel and is onto S.  That is
    |S|^k candidates, k the number of generators."""
    emb = subring_embedding(S, R)
    aot, mot = R.add_table(), R.mul_table()
    aos, mos = S.add_table(), S.mul_table()
    # the span: (y, x, j, s) with y = x + s*g_j, in the order y is reached
    gens, steps = [], []
    seen = [True] + [False] * (R.order - 1)
    reached = [0]
    while len(reached) < R.order:
        gens.append(seen.index(False))
        i, before = 0, len(reached)
        while i < len(reached):
            x = reached[i]
            for j, g in enumerate(gens):
                for s in range(S.order):
                    y = aot[x][mot[emb.table[s]][g]]
                    if not seen[y]:
                        seen[y] = True
                        reached.append(y)
                        steps.append((y, x, j, s))
            i += 1
        if len(reached) == before:  # else the next pass picks gens[-1] again
            raise InternalInvariantViolation(
                f"the S-module span of {R.name} misses its generator {gens[-1]}")
    found = set()
    for v in product(range(S.order), repeat=len(gens)):
        table = [0] * R.order
        for y, x, j, s in steps:
            table[y] = aos[table[x]][mos[s][v[j]]]
        table = tuple(table)
        if (table not in found and _is_linear(R, S, emb, table)
                and _ideal_in_kernel(R, table) is None
                and _missing_value(S, table) is None):
            found.add(table)
    return sorted(found)


def cyclic_submodules_by_elements(R):
    """frozenset(xR) for every element x, deduplicated, and each module's
    generators in increasing order: (classes, cls_of) as
    ``weights.cyclic_submodules`` returns them."""
    distinct = {}
    cls_of = [distinct.setdefault(n, n) for n in map(frozenset, R.mul_table())]
    classes = {}
    for x, n in enumerate(cls_of):
        classes.setdefault(n, []).append(x)
    return classes, cls_of


def unit_histograms_by_elements(chi) -> list:
    """For each a, the exponents of chi(u*a) counted over the units u."""
    mot, units = chi.ring.mul_table(), chi.ring.units()
    hists = []
    for a in range(chi.ring.order):
        h = [0] * chi.conductor
        for u in units:
            h[chi.exps[mot[a][u]]] += 1
        hists.append(tuple(h))
    return hists
