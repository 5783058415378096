"""Difference graphs of two-weight codes, strong regularity, modularity."""

from __future__ import annotations

from fractions import Fraction

from .codes import Code, CodeFunction, weight_enumerator
from .errors import BudgetExceeded, InternalInvariantViolation, NotTwoWeight
from .rings import Ring
from .weights import WeightTable

MAX_VERTICES = 20000


class CodeGraph:
    """Simple undirected graph on codewords; edges join pairs at distance w1.

    Adjacency rows are stored as integer bitmasks.
    """

    def __init__(self, vertices, adjacency, w1):
        self.vertices = tuple(vertices)
        self.adjacency = tuple(adjacency)
        self.w1 = w1
        self.order = len(self.vertices)

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def is_edge(self, i: int, j: int) -> bool:
        return bool((self.adjacency[i] >> j) & 1)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"CodeGraph(order={self.order}, w1={self.w1})"


def two_weight_graph(code: Code, table: WeightTable) -> CodeGraph:
    """Graph on the codewords of a two-weight code, joining codewords whose
    difference has the smaller nonzero weight."""
    # the weights of the nonzero codewords; the zero codeword is one count at 0
    weights = [w for w, c in weight_enumerator(code, table) if c > (w == 0)]
    if len(weights) != 2:
        raise NotTwoWeight(len(weights), tuple(weights))
    w1 = weights[0]
    n = code.size
    if n > MAX_VERTICES:
        raise BudgetExceeded(f"graph on {n} vertices exceeds cap {MAX_VERTICES}")
    den, scaled = table.scaled()
    sub = code.sub.sub_table()
    w1_scaled = w1.numerator * (den // w1.denominator)
    cws = code.codewords
    masks = [0] * n
    for i in range(n):
        ci = cws[i]
        for j in range(i + 1, n):
            cj = cws[j]
            if sum(scaled[sub[a][b]] for a, b in zip(ci, cj)) == w1_scaled:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return CodeGraph(cws, masks, w1)


class SRGParams:
    """Parameters (v, k, lambda, mu) of a strongly regular graph."""

    def __init__(self, v, k, lam, mu, degenerate=False):
        self.v = v
        self.k = k
        self.lam = lam
        self.mu = mu
        self.degenerate = degenerate

    def as_tuple(self):
        return (self.v, self.k, self.lam, self.mu)

    def __eq__(self, other):
        if isinstance(other, SRGParams):
            return self.as_tuple() == other.as_tuple()
        if isinstance(other, tuple):
            return self.as_tuple() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        tail = ", degenerate" if self.degenerate else ""
        return f"SRG(v={self.v}, k={self.k}, lambda={self.lam}, mu={self.mu}{tail})"


class SRGFailure:
    """Why a graph is not strongly regular, with the first violating pair."""

    def __init__(self, reason: str, witness):
        self.reason = reason
        self.witness = witness

    def __repr__(self):
        return f"SRGFailure({self.reason}, witness={self.witness})"


def srg_check(graph: CodeGraph):
    """Return SRGParams if the graph is strongly regular, else SRGFailure.

    Common-neighbor counts must be a constant lambda over adjacent pairs and a
    constant mu over non-adjacent pairs.  Complete and edgeless graphs, and
    graphs with mu = 0, are accepted with the degenerate flag set.
    """
    n = graph.order
    masks = graph.adjacency
    degs = [m.bit_count() for m in masks]
    k = degs[0] if n else 0
    for i, d in enumerate(degs):
        if d != k:
            return SRGFailure("NotRegular", {"vertex": i, "degree": d, "expected": k})
    lam = mu = None
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            common = (mi & masks[j]).bit_count()
            if (mi >> j) & 1:
                if lam is None:
                    lam = common
                elif common != lam:
                    return SRGFailure("LambdaVaries",
                                      {"pair": (i, j), "common": common, "expected": lam})
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    return SRGFailure("MuVaries",
                                      {"pair": (i, j), "common": common, "expected": mu})
    complete = lam is not None and mu is None
    edgeless = lam is None and k == 0
    if lam is None:
        lam = 0
    if mu is None:
        mu = 0
    degenerate = complete or edgeless or mu == 0
    if k * (k - lam - 1) != (n - k - 1) * mu:
        raise InternalInvariantViolation(
            f"SRG identity failed: k(k-lam-1)={k * (k - lam - 1)}, "
            f"(v-k-1)mu={(n - k - 1) * mu}")
    return SRGParams(n, k, lam, mu, degenerate)


def connected_components(graph: CodeGraph) -> list:
    """Component sizes in discovery order (count = len of the result)."""
    n = graph.order
    masks = graph.adjacency
    seen = 0
    sizes = []
    for s in range(n):
        if (seen >> s) & 1:
            continue
        frontier = 1 << s
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= masks[v]
            frontier = nxt & ~comp
        seen |= comp
        sizes.append(comp.bit_count())
    return sizes


def function_columns(ring: Ring, f: CodeFunction) -> list:
    """Generator columns (x, f(x)) of C_f, indexed by x in R."""
    return [(x, f.table[x]) for x in range(ring.order)]


def is_modular(ring: Ring, columns) -> tuple:
    """Whether a single rational r satisfies
    |{i : y_i R = y_j R}| = r * |y_j R^x| over all (nonzero) columns y_j."""
    cols = [tuple(c) for c in columns if any(c)]
    if not cols:
        return (True, None)
    mul = ring.mul_table()
    modules = [frozenset(tuple(mul[s][c] for c in y) for s in range(ring.order))
               for y in cols]
    units = ring.units()
    r = None
    for j, y in enumerate(cols):
        count = sum(1 for m in modules if m == modules[j])
        ucount = len({tuple(mul[u][c] for c in y) for u in units})
        rj = Fraction(count, ucount)
        if r is None:
            r = rj
        elif rj != r:
            return (False, None)
    return (True, r)
