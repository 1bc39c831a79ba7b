"""The mutation table of tests/mutants.py quotes lines of src/motivecalc and
names tier-1 tests; a whole mutation run takes minutes, so tier-1 checks here,
in process, only that every quote and every killer still resolves, and that
every raise in src/motivecalc is switched off by a mutant or listed."""

import mutants


def test_the_mutant_table_is_not_stale():
    assert mutants.stale(list(mutants.MUTANTS)) == []


def test_every_raise_is_mutated_or_listed():
    assert mutants.unlisted_raises(mutants.src_sources()) == []


SAMPLE = """\
def f(x):
    if x < 0:
        raise ValueError("negative")
    if x > 9:
        raise ValueError("large")
    raise_it = x == 5
    if raise_it:
        raise ValueError(
            "five"
        )


class C:
    def g(self):
        raise TypeError("misuse")
"""
# one mutant on an if's test, one on a raise's second line
SAMPLE_MUTANTS = {
    "neg": ("sample.py", "if x < 0:", "if False:", "k"),
    "five": ("sample.py", '"five"', '"six"', "k"),
}


def test_the_scan_reports_an_unlisted_raise():
    listed = {"sample.py:C.g": (1, "internal misuse")}
    found = mutants.unlisted_raises({"sample.py": SAMPLE}, SAMPLE_MUTANTS, listed)
    assert found == ["sample.py:f: unmutated raises at lines [5], 0 listed"]
    listed["sample.py:f"] = (1, "no mutant yet")
    assert mutants.unlisted_raises({"sample.py": SAMPLE}, SAMPLE_MUTANTS, listed) == []


def test_the_scan_reports_a_count_that_no_raise_matches():
    listed = {"sample.py:f": (1, "no mutant yet"), "sample.py:C.g": (2, "internal misuse")}
    found = mutants.unlisted_raises({"sample.py": SAMPLE}, SAMPLE_MUTANTS, listed)
    assert found == ["sample.py:C.g: unmutated raises at lines [15], 2 listed"]
    found = mutants.unlisted_raises({"sample.py": SAMPLE}, {}, listed)
    assert found == [
        "sample.py:C.g: unmutated raises at lines [15], 2 listed",
        "sample.py:f: unmutated raises at lines [3, 5, 8], 1 listed",
    ]
