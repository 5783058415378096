"""The benchmark's own tests:  python3 -m pytest bench -q

The oracles are checked on cases with known answers, the checks are shown
to reject a wrong report, and every workload runs at its quick size through
the same checks, traced and untraced.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_zm5_cubes_hamming_graph_is_srg_25_8_3_2():
    g = oracles.zm_power_graph(5, 3, hamming=True)
    assert (g["vertices"], g["degree"], g["lambda"], g["mu"]) == (25, 8, 3, 2)
    assert (g["component_size"], g["components"]) == (25, 1)


def test_z6_homogeneous_weights():
    w = oracles.zm_hom_weight(6)
    assert w == [0, Fraction(1, 2), Fraction(3, 2), 2, Fraction(3, 2), Fraction(1, 2)]
    assert sorted(set(w)) == [0, Fraction(1, 2), Fraction(3, 2), 2]


@pytest.mark.parametrize("r", [3, 5])
def test_gold_distribution_matches_brute_force(r):
    want = oracles.gold_enumerator(r)
    for d in oracles.almost_bent_exponents(r):
        assert oracles.gr2_power_enumerator(r, d) == want, d


def test_gold_r7_is_the_three_weight_table():
    assert oracles.gold_enumerator(7) == {0: 1, 112: 4572, 128: 8255, 144: 3556}


def test_frank_oracle_on_gr4_2():
    # 1+18X^12+39X^16+6X^20: the Frank code on GR(4, 2) traced onto Z_4
    assert oracles.frank_enumerator(2, 2) == {0: 1, 12: 18, 16: 39, 20: 6}


def _units_by_brute_force(order, mul, one):
    return sum(1 for a in range(order)
               if any(mul(a, b) == one for b in range(order)))


def _fxy_mul(p):
    def mul(a, b):
        (a0, a1, a2, a3), (b0, b1, b2, b3) = (
            [(v // p ** i) % p for i in range(4)] for v in (a, b))
        c = (a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a2 * b0,
             a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)
        return sum((ci % p) * p ** i for i, ci in enumerate(c))
    return mul


def _z4x_mul(a, b):  # Z_4[x]/(x^2 + 2): x^2 = 2
    (a0, a1), (b0, b1) = divmod(a, 4)[::-1], divmod(b, 4)[::-1]
    return (a0 * b0 + 2 * a1 * b1) % 4 + 4 * ((a0 * b1 + a1 * b0) % 4)


@pytest.mark.parametrize("spec", [ring for ring, _ in
                                  workloads.SIZES["paper-census"]["full"]])
def test_unit_counts_of_census_rings(spec):
    if spec.startswith("GR:"):
        gr = oracles.GaloisRingOracle(*(int(t) for t in spec[3:].split(",")))
        count = _units_by_brute_force(gr.order, gr.mul, gr.encode([1]))
    elif spec.startswith("FXY:"):
        p = int(spec[4:])
        count = _units_by_brute_force(p ** 4, _fxy_mul(p), 1)
    else:
        count = _units_by_brute_force(16, _z4x_mul, 1)
    assert oracles.unit_count(spec) == count


def test_like_three_exponents_give_codes_of_one_size():
    for m in (37, 47, 58, 62):
        p = m // 2 if m % 2 == 0 else m
        sizes = {sum(oracles.zm_power_enumerator(m, d).values())
                 for d in workloads.like_three(p)}
        assert sizes == {m * m if m == p else m * m // 2}


def test_checks_reject_a_wrong_report():
    job = workloads.analyze_zm(7, 3)
    expected = job.oracle()
    report = {"size": 49,
              "enumerator": [{"weight": str(w), "count": c}
                             for w, c in sorted(expected.items())],
              "spectrum": [str(7 - w) for w in expected]}
    assert job.check(report, expected) is None
    report["enumerator"][-1]["count"] += 1
    assert "enumerator" in job.check(report, expected)

    census = workloads.trace_list("Z4X", "Zm:4")
    table = [0, 1, 2, 3] * 4
    report = {"count": 1, "traces": [{"values": table}]}
    assert "count" in census.check(report, census.oracle())


def _run(root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_checks_every_output(workload, trace):
    out = _run(HERE.parent, "--workload", workload, "--seed", "3",
               "--seconds", "0", "--trace", trace, "--quick")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    key = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_same_jobs_and_all_workloads_named():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        a = [j.label for j in workloads.build(w, 5)]
        assert a == [j.label for j in workloads.build(w, 5)]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "graph-zp", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()
