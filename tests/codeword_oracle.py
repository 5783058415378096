"""The pair sweep: every pair's codeword, built from the tables at |R|^3
lookups.  It is the reference that ``Code.points`` (the least pair of each
codeword, in sorted codeword order) and the orbit labels are checked
against; the library itself builds no codeword."""

from functools import lru_cache


def pair_codewords(ring, trace, f):
    """Yield (alpha, beta, codeword) for every pair, beta-major."""
    mot = ring.mul_table()
    aot = ring.add_table()
    tr = trace.values
    ft = f.table
    n = ring.order
    for beta in range(n):
        brow = mot[beta]
        bf = [brow[v] for v in ft]
        for alpha in range(n):
            yield alpha, beta, tuple([tr[aot[a][b]]
                                      for a, b in zip(mot[alpha], bf)])


@lru_cache(maxsize=None)
def least_pairs(code) -> dict:
    """Codeword -> the lexicographically least pair that gives it."""
    best = {}
    for alpha, beta, cw in pair_codewords(code.ring, code.trace, code.func):
        prev = best.get(cw)
        if prev is None or (alpha, beta) < prev:
            best[cw] = (alpha, beta)
    return best


def sorted_codewords(code) -> list:
    """(codeword, least pair) for every codeword, in sorted codeword order."""
    return sorted(least_pairs(code).items())
