"""An independent route to the sigma-quadratic enumerators of records 9-11.

Write x = t + z with t Teichmueller and z in the maximal ideal M.  Then
f(t + z) = sigma(t)t + sigma(t)z + t*sigma(z), and because the character chi
is fixed by sigma, the sum over z in M of chi(u*(alpha*x + beta*f(x))) is |M|
when c = u*a + sigma^-1(u*b) lies in ann(M) (the socle), and 0 otherwise,
where a = alpha + beta*sigma(t) and b = beta*t.  So

    W(alpha, beta) = |M| / |S^x| * sum of chi(u*a*t) over Teichmueller t
                     and units u of S with c in ann(M).

No codeword and no weight table is built: the enumerator is the histogram of
|R| - W over all pairs, divided by the number of pairs giving W = |R| (the
kernel of (alpha, beta) -> codeword).
"""

from collections import Counter
from fractions import Fraction

import pytest

from homring.codes import WeightEnumerator, closed_form_enumerator, function_from_spec
from homring.rings import ring_from_spec
from homring.traces import char_fixed_by, generating_character, trace_from_spec

F = Fraction


def _summed_out_enumerator(ring_spec, sub_spec, trace_spec, f_spec):
    """(enumerator at gamma = 1, |C|) of a sigma-quadratic trace code."""
    R = ring_from_spec(ring_spec)
    S = ring_from_spec(sub_spec)
    tr = trace_from_spec(R, S, trace_spec)
    sigma = function_from_spec(R, f_spec).sigma
    chi = generating_character(tr)
    assert char_fixed_by(chi, sigma)
    # The conductor m of a local ring's character is a power of a prime q.
    # The sum over u is stable under u -> g*u for g prime to q, so W is
    # rational and equals its average over Gal(Q(w_m)/Q), which sends w_m^e
    # to 1 if e = 0, to -1/(q-1) if (m/q) | e, and to 0 otherwise.
    m = chi.conductor
    q = next(d for d in range(2, m + 1) if m % d == 0)
    r = m
    while r % q == 0:
        r //= q
    assert r == 1, f"conductor {m} is not a prime power"
    galois = [q - 1 if e == 0 else -1 if e % (m // q) == 0 else 0
              for e in range(m)]
    exps = chi.exps
    add, mul = R.add_table(), R.mul_table()
    sig = sigma.table
    sig_inv = [0] * R.order
    for a, b in enumerate(sig):
        sig_inv[b] = a
    soc = set(R.socle())
    units = [tr.embedding(u) for u in S.units()]
    teich = R.teichmuller().elements
    n = R.order
    scale = F(len(R.nonunits()), len(units) * (q - 1))
    hist = Counter()
    for alpha in range(n):
        for beta in range(n):
            total = 0
            for t in teich:
                a = add[alpha][mul[beta][sig[t]]]
                ua, ub, uat = mul[a], mul[mul[beta][t]], mul[mul[a][t]]
                for u in units:
                    if add[ua[u]][sig_inv[ub[u]]] in soc:
                        total += galois[exps[uat[u]]]
            hist[n - scale * total] += 1
    kernel = hist[0]
    assert all(c % kernel == 0 for c in hist.values())
    return WeightEnumerator({w: c // kernel for w, c in hist.items()}), n * n // kernel


@pytest.mark.parametrize("job,size,counts", [
    (("FXY:3", "FXY:3", "identity", "sigmaquad:swapxy"), 6561,
     {0: 1, F(81, 2): 4, 54: 234, 81: 6322}),
    (("GR:2,3,2", "GR:2,3,2", "identity", "sigmaquad:frobenius"), 4096,
     {0: 1, F(128, 3): 9, 48: 240, 64: 3846}),
    (("GR:2,3,2", "Zm:8", "galois", "sigmaquad:frobenius"), 512,
     {0: 1, 32: 3, 48: 24, 64: 483, 96: 1}),
], ids=["record9", "record10", "record11"])
def test_summed_out_route_reproduces_records_9_to_11(job, size, counts):
    enum, code_size = _summed_out_enumerator(*job)
    assert code_size == size
    assert enum == WeightEnumerator(counts)
    ring_spec, sub_spec = job[:2]
    if ring_spec == sub_spec:
        assert enum == closed_form_enumerator("sigma-quadratic",
                                              (ring_from_spec(ring_spec),))


@pytest.mark.parametrize("spec,f_spec", [
    ("FXY:2", "sigmaquad:swapxy"),
    ("GR:2,2,1", "sigmaquad:frobenius"),
    ("GR:2,1,2", "sigmaquad:frobenius"),
    ("GR:3,2,1", "sigmaquad:frobenius"),
])
def test_summed_out_route_matches_closed_form_on_small_rings(spec, f_spec):
    enum, size = _summed_out_enumerator(spec, spec, "identity", f_spec)
    closed = closed_form_enumerator("sigma-quadratic", (ring_from_spec(spec),))
    assert enum == closed
    assert size == closed.total
