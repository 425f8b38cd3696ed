"""The mutation list of ``tests/mutants.py`` still matches the source.

Running the mutants takes a pytest process each, so tier-1 checks only
that every listed text occurs exactly once in its file and every listed
test still exists; ``python tests/mutants.py --check`` runs them.
"""

from mutants import MUTANTS, stale


def test_every_mutant_still_applies():
    assert MUTANTS
    for mutant in MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        assert stale(mutant) == [], mutant.name
