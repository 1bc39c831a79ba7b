"""The mutation table of tests/mutants.py quotes lines of src/motivecalc and
names tier-1 tests; a whole mutation run takes minutes, so tier-1 checks here,
in process, only that every quote and every killer still resolves."""

import mutants


def test_the_mutant_table_is_not_stale():
    assert mutants.stale(list(mutants.MUTANTS)) == []
