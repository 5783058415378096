"""The rows of ``mutants.py`` still apply to the tree: each old text occurs
exactly once under src/homring, in the row's file, each named test
exists, and no two rows share a name.  Running the mutants is
``python tests/mutants.py``."""

import pytest

from mutants import MUTANTS, REPO, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_applies_once_and_names_existing_tests(mutant):
    counts = {path.name: path.read_text(encoding="utf-8").count(mutant.old)
              for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert f"def {name}(" in (REPO / path).read_text(encoding="utf-8"), test


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)
