"""Mutants as data: each row changes one exact text in ``src/homring`` and
names the tests that must fail on the changed copy.

    python tests/mutants.py

copies ``src/`` to a temporary directory for each mutant, applies its row
there and runs its tests from the repository with that copy first on
PYTHONPATH.  A mutant is killed when pytest reports a
failed test (exit status 1).  One line per mutant is printed, and the exit
status is 1 when any mutant survived or could not be run.
``tests/test_mutants.py`` checks in Tier-1 that every old text still occurs
exactly once under ``src/homring``, so a refactor that moves a check must
move its mutant too.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "homring"


class Mutant(NamedTuple):
    name: str
    file: str        # under src/homring
    old: str         # occurs exactly once under src/homring
    new: str
    tests: tuple     # pytest ids, relative to the repository; one must fail


MUTANTS = (
    Mutant("orbit-sum-not-scaled", "weights.py",
           "nunits - nunits // len(orbit) * orbit_sum",
           "nunits - orbit_sum",
           ("tests/test_hom_weight.py::test_known_weight_tables",
            "tests/test_hom_weight.py::test_both_routes_agree")),
    Mutant("module-omits-the-zero-orbit", "weights.py",
           "{orbit_of[y] for y in mot[orbit[0]]}",
           "{orbit_of[y] for y in mot[orbit[0]]} - {0}",
           ("tests/test_hom_weight.py::test_both_routes_agree",
            "tests/test_hom_weight.py::test_axioms_hold")),
    Mutant("axiomatic-solve-rounds-down", "weights.py",
           "w[i], left = divmod(rest, len(orbits[i]))",
           "w[i], left = rest // len(orbits[i]), 0",
           ("tests/test_hom_weight.py::"
            "test_an_axiomatic_solve_that_is_not_exact_is_refused",)),
    Mutant("local-with-two-or-more-idempotents", "rings.py",
           "sum(mot[a][a] == a for a in range(self.order)) == 2",
           "sum(mot[a][a] == a for a in range(self.order)) >= 2",
           ("tests/test_ring_core.py::"
            "test_a_ring_is_local_iff_its_nonunits_are_closed_under_addition",
            "tests/test_ring_core.py::test_zm_locality")),
    Mutant("cached-keeps-a-refused-build", "rings.py",
           "                cache[k] = build(*args)",
           "                cache[k] = None\n"
           "                cache[k] = build(*args)",
           ("tests/test_ring_core.py::"
            "test_each_memo_keeps_its_first_value_and_no_refusal",
            "tests/test_char_trace.py::"
            "test_a_galois_trace_is_kept_per_pair_and_a_refused_pair_is_not")),
    Mutant("kernel-keeps-alpha-plus-one", "codes.py",
           "alpha_of.setdefault(tuple([tr[mot[alpha][g]] for g in gens]), alpha)",
           "alpha_of.setdefault(tuple([tr[mot[alpha][g]] for g in gens]), alpha + 1)",
           ("tests/test_codes.py::"
            "test_orbits_and_kernel_equal_the_depth_first_and_filter_oracles",)),
    Mutant("moment-cross-multiplied-the-wrong-way", "codes.py",
           "if moment * b != expected * den:",
           "if moment * den != expected * b:",
           ("tests/test_codes.py::test_weight_enumerators_meet_their_first_moment",)),
    Mutant("galois-average-not-checked", "cyclotomic.py",
           "        if rest:\n",
           "        if False:\n",
           ("tests/test_char_trace.py::"
            "test_a_histogram_that_is_not_galois_invariant_is_refused",)),
    Mutant("galois-lift-conjugate-not-advanced", "rings.py",
           "conj = rough.pow(conj, p)",
           "conj = conj",
           ("tests/test_ring_core.py::test_galois_modulus_is_the_hensel_lift",)),
    Mutant("teichmuller-walk-records-t-as-the-rest", "rings.py",
           "nu[a], rest[a] = t, m",
           "nu[a], rest[a] = t, t",
           ("tests/test_ring_core.py::test_nu_picks_the_teichmuller_part",
            "tests/test_ring_core.py::test_code_functions_equal_the_slow_operations")),
    Mutant("sigma-quadratic-drops-sigma-of-a-m", "codes.py",
           "mot[sigma(am)][nu]",
           "mot[am][nu]",
           ("tests/test_ring_core.py::test_code_functions_equal_the_slow_operations",)),
    Mutant("galois-trace-key-drops-the-subring", "traces.py",
           '(ring, ("galois", ring if sub is None else sub))',
           '(ring, "galois")',
           ("tests/test_char_trace.py::"
            "test_a_galois_trace_is_kept_per_pair_and_a_refused_pair_is_not",
            "tests/test_ring_core.py::"
            "test_each_memo_keeps_its_first_value_and_no_refusal")),
    Mutant("unit-sum-added-not-subtracted", "weights.py",
           "nunits - nunits // len(orbit) * orbit_sum",
           "nunits + nunits // len(orbit) * orbit_sum",
           ("tests/test_char_trace.py::test_unit_sums_equal_the_field_reduction",
            "tests/test_hom_weight.py::test_both_routes_agree")),
    Mutant("every-embedding-is-the-identity-table", "rings.py",
           "    if sub is ring:\n"
           "        return SubringEmbedding(sub, ring, range(ring.order), tag=\"identity\")",
           "    return SubringEmbedding(sub, ring, range(sub.order), tag=\"identity\")",
           ("tests/test_ring_core.py::"
            "test_maps_from_generator_images_equal_the_per_element_routes",
            "tests/test_budget.py::test_gr_2_3_embeds_in_gr_2_6_through_another_root")),
    Mutant("components-closed-from-d-alone", "graphs.py",
           "for g in [*graph.connection, *graph.code.kernel]:",
           "for g in graph.connection:",
           ("tests/test_graphs.py::test_cayley_rows_equal_all_pairs_adjacency_property",
            "tests/test_graphs.py::test_nonzero_codewords_of_weight_zero_join_without_loops",
            "tests/test_graphs.py::test_degenerate_matching_graph")),
    Mutant("rational-str-not-reduced", "cyclotomic.py",
           "    num, den = reduced(num, den)\n    return f\"{num}/{den}\"",
           "    return f\"{num}/{den}\"",
           ("tests/test_codes.py::test_weight_enumerator_rendering",)),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="homring-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC.parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "homring" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"error: the old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy),
               "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import homring; print(homring.__file__)"],
            cwd=REPO, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            return f"error: homring is imported from {where.stdout.strip()!r}"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=900)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"error: pytest exited {done.returncode}: {(done.stdout + done.stderr)[-300:]}"


def main() -> int:
    killed = True
    for mutant in MUTANTS:
        outcome = run(mutant)
        print(f"{mutant.name}: {outcome}", flush=True)
        killed = killed and outcome == "killed"
    return 0 if killed else 1


if __name__ == "__main__":
    sys.exit(main())
