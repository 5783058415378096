"""Difference graphs of two-weight codes, strong regularity, modularity."""

from __future__ import annotations

from fractions import Fraction

from .codes import Code, CodeFunction, pair_codewords, weight_enumerator
from .errors import BudgetExceeded, InternalInvariantViolation, NotTwoWeight
from .rings import Ring
from .weights import WeightTable

MAX_VERTICES = 20000


class CodeGraph:
    """Simple undirected graph on codewords; edges join pairs at distance w1.

    Adjacency rows are stored as integer bitmasks.
    """

    #: Set by ``two_weight_graph``: the graph is Cay(C, D), so every edge and
    #: every non-edge is a translate of one at vertex 0.
    cayley = False

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
    difference has the smaller nonzero weight.

    The codeword of a sum of pairs is the sum of their codewords (the trace
    is additive), so the graph is the Cayley graph Cay(C, D), D the nonzero
    codewords of weight w1.  The row of c is {c + d : d in D}, found by
    adding pairs: one |R|^3 sweep maps every pair to its vertex, then the
    rows take |C|*|D| lookups."""
    n = code.size
    if n > MAX_VERTICES:
        raise BudgetExceeded(
            f"graph on {n} vertices exceeds the cap of {MAX_VERTICES} "
            f"vertices; its adjacency would need {n * n // 8} bytes")
    # the weights of the nonzero codewords; the zero codeword is one count at 0
    weights = [w for w, c in weight_enumerator(code, table) if c > (w == 0)]
    if len(weights) != 2:
        raise NotTwoWeight(len(weights), tuple(weights))
    w1 = weights[0]
    den, scaled = table.scaled()
    # the row of c, c + D, holds the c' with w(c' - c) = w1; that is the
    # pair's distance w(c - c') only if w(-x) = w(x), checked once on S
    neg = code.sub.sub_table()[0]
    if any(scaled[neg[s]] != scaled[s] for s in range(code.sub.order)):
        raise InternalInvariantViolation(
            f"weight table on {code.sub.name} has w(-x) != w(x)")
    w1_scaled = w1.numerator * (den // w1.denominator)
    cws = code.codewords
    prov = code.provenance
    ring = code.ring
    r = ring.order
    # a row is written as a binary string, vertex 0 last: slot[c] is the
    # position of c's digit
    slot = {cw: n - 1 - v for v, cw in enumerate(cws)}
    of_pair = [[0] * r for _ in range(r)]
    for alpha, beta, cw in pair_codewords(ring, code.trace, code.func):
        of_pair[alpha][beta] = slot[cw]
    dpairs = [prov[cw] for cw in cws
              if any(cw) and sum([scaled[s] for s in cw]) == w1_scaled]
    add = ring.add_table()
    # over (da, db) in D: the of_pair rows of alpha + da, and beta + db
    alpha_rows = [[of_pair[row[da]] for da, _ in dpairs] for row in add]
    beta_cols = [[row[db] for _, db in dpairs] for row in add]
    zeros = b"0" * n
    masks = []
    for cw in cws:
        a, b = prov[cw]
        row = bytearray(zeros)
        for slots, beta in zip(alpha_rows[a], beta_cols[b]):
            row[slots[beta]] = 49  # ord("1")
        masks.append(int(row, 2))
    graph = CodeGraph(cws, masks, w1)
    graph.cayley = True
    return graph


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

    Pairs are scanned row by row.  On a Cayley graph only row 0 is scanned:
    every pair is a translate of a pair at vertex 0 with the same count, so
    row 0 holds every count, and a violation anywhere shows there first.
    """
    n = graph.order
    masks = graph.adjacency
    degs = [m.bit_count() for m in masks]
    k = degs[0] if n else 0
    for i, d in enumerate(degs):
        if d != k:
            return SRGFailure("NotRegular", {"vertex": i, "degree": d, "expected": k})
    lam = mu = None
    for i in range(1) if graph.cayley else range(n):
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
