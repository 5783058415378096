"""Difference graphs of two-weight codes, strong regularity, modularity."""

from __future__ import annotations

from collections import Counter
from operator import getitem

from .budget import check_budget
from .codes import Code, orbit_weights
from .cyclotomic import reduced
from .errors import InternalInvariantViolation, NotTwoWeight
from .rings import Ring
from .weights import WeightTable


class CodeGraph:
    """The graph of a two-weight code: Cay(C, D), D the nonzero codewords of
    the smaller weight w1, so c and c' are adjacent iff c' - c is in D.

    ``w1`` is a reduced (num, den) pair.  ``connection`` holds D as least
    pairs (``Code.points``), in sorted codeword order, and ``member[a][b]``
    is 1 iff the codeword of the pair (a, b) is in D.  The degree is |D|.  ``labels[i]`` is the orbit of the
    nonzero codeword ``code.points[i + 1]`` under the symmetries that keep
    the graph's weights, and so keep D."""

    def __init__(self, code: Code, w1, connection, member, labels):
        self.code = code
        self.order = code.size
        self.w1 = w1
        self.connection = tuple(connection)
        self.member = member
        self.degree = len(self.connection)
        self.labels = labels

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"CodeGraph(order={self.order}, w1={self.w1})"


def two_weight_graph(code: Code, table: WeightTable) -> CodeGraph:
    """Graph on the codewords of a two-weight code, joining codewords whose
    difference has the smaller nonzero weight.

    The codeword of a sum of pairs is the sum of their codewords (the trace
    is additive), so the graph is the Cayley graph Cay(C, D), D the nonzero
    codewords of weight w1.  D is kept as pairs; a membership table over all
    |R|^2 pairs, D lifted by the kernel K, names the edges.

    Once the weights are known, and before any codeword is listed, the
    graph is charged to the code's budget: |C| * (log2 |C| + 32) lookups to
    list the points by their pivots (at most log2 |C| of them), sort and
    label them, |R|^2 for the membership table, and the orbits times |D|
    for the common-neighbour counts of ``srg_check``."""
    orbits, den, orbit_weight = orbit_weights(code, table)
    # orbit 0 is the zero codeword alone; the others weigh the nonzero ones,
    # which have no weight when every codeword weighs 0, as at gamma = 0
    weights = sorted(set(orbit_weight[1:]))
    if weights == [0]:
        weights = []
    if len(weights) != 2:
        raise NotTwoWeight(len(weights), tuple(reduced(t, den) for t in weights))
    w1_scaled = weights[0]
    degree = sum(size for w, size in zip(orbit_weight[1:], orbits.sizes[1:])
                 if w == w1_scaled)
    check_budget("graph", code.size * (code.size.bit_length() + 32)
                 + code.ring.order ** 2 + len(orbits.reps) * degree, code.budget)
    # -1 is a unit of S, so w(c' - c) = w(c - c') (``orbit_weights``) and D = -D
    points = code.points[1:]
    labels = [orbits.label(a, b) for a, b in points]
    connection = [p for p, label in zip(points, labels)
                  if orbit_weight[label] == w1_scaled]
    add = code.ring.add_table()
    member = [bytearray(code.ring.order) for _ in add]
    for da, db in connection:
        for ka, kb in code.kernel:
            member[add[da][ka]][add[db][kb]] = 1
    return CodeGraph(code, reduced(w1_scaled, den), connection, member, labels)


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

    Every pair of vertices is a translate of a pair (0, c), with the same
    count, so only vertex 0 (the zero codeword) is paired, with each c in
    sorted codeword order (``Code.points``): common(0, c) =
    |{d in D : c - d in D}|.  The first c that breaks the constant is the
    witness.  The symmetries behind the graph's orbits fix 0 and keep D, so
    the count is made once per orbit.
    """
    code = graph.code
    n = graph.order
    k = graph.degree
    member = graph.member
    sub = code.ring.sub_table()
    counts = {}
    lam = mu = None
    for j, ((a, b), label) in enumerate(zip(code.points[1:], graph.labels), 1):
        common = counts.get(label)
        if common is None:
            # for the pair (a, b) of c, the rows of a - da and the columns
            # b - db over (da, db) in D: common(0, c) sums the entries they meet
            rows, cols = sub[a], sub[b]
            common = counts[label] = sum(map(
                getitem, [member[rows[da]] for da, _ in graph.connection],
                [cols[db] for _, db in graph.connection]))
        if member[a][b]:
            if lam is None:
                lam = common
            elif common != lam:
                return SRGFailure("LambdaVaries",
                                  {"pair": (0, j), "common": common, "expected": lam})
        else:
            if mu is None:
                mu = common
            elif common != mu:
                return SRGFailure("MuVaries",
                                  {"pair": (0, j), "common": common, "expected": mu})
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
    """Component sizes.  The components are the cosets of <D> in C, all of
    size h = |<D>|, listed as |C|/h copies of h.  h is found by closing the
    subgroup of R^2 that the lifted D, D + K, generates, which is
    |<D>| * |K|.  D is not empty, so D + K and D with K generate one
    subgroup: the closure starts from the pairs of D and of K, not from the
    |R|^2 cells of ``member``."""
    ring = graph.code.ring
    add = ring.add_table()
    r = ring.order
    group = {(0, 0)}
    for g in [*graph.connection, *graph.code.kernel]:
        if g in group:
            continue
        # join <g>: the cosets group + m*g up to the first m*g in the group
        grown = set(group)
        step = g
        while step not in group:
            sa, sb = step
            grown.update([(add[a][sa], add[b][sb]) for a, b in group])
            step = (add[sa][g[0]], add[sb][g[1]])
        group = grown
    h = len(group) * graph.order // (r * r)
    return [h] * (graph.order // h)


def is_modular(ring: Ring, columns) -> tuple:
    """Whether a single rational r satisfies
    |{i : y_i R = y_j R}| = r * |y_j R^x| over all (nonzero) columns y_j,
    and r as a reduced (num, den) pair.
    The generator columns (x, f(x)) of C_f are ``enumerate(f.table)``.

    In a finite commutative ring yR = zR exactly when z = u*y for a unit u,
    so both counts are read off unit orbits: with
    M(y) = #{(i, u) : u*y_i = y}, r_j = M(y_j)/|R^x|.  M is counted one
    unit u at a time, over the images u*y_i that are columns."""
    cols = [tuple(c) for c in columns if any(c)]
    if not cols:
        return (True, None)
    mul = ring.mul_table()
    units = ring.units()
    coords = list(zip(*cols))
    present = set(cols)
    hits = Counter()
    for u in units:
        at = mul[u].__getitem__
        hits.update(filter(present.__contains__,
                           zip(*[map(at, coord) for coord in coords])))
    first = hits[cols[0]]
    if any(hits[y] != first for y in cols):
        return (False, None)
    return (True, reduced(first, len(units)))
