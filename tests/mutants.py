"""Mutation check of the gates, caps and refusals: does some tier-1 test fail
when one of them is switched off?

    python tests/mutants.py            # every mutant in MUTANTS
    python tests/mutants.py NAME ...   # only the named ones

pytest does not collect this file (its name has no ``test_`` prefix). Each
mutant is one exact textual edit at one place of a module under
``src/motivecalc``, with the test that kills it today. First every killer
runs on the unmutated tree and must pass. Then, for each mutant, ``src/``,
``tests/``, ``perfbench/`` (which tier-1 reads as source) and
``pyproject.toml`` are copied into a temporary directory and the edit is
applied there. The killer runs alone first; only if it passes does tier-1
run with ``-x`` (after one check that tier-1 passes on the unmutated tree).
KILLED names the first failing test, SURVIVED means every test passed. The
exit code is 1 if a mutant survives that EQUIVALENT does not list, or if the
table is stale: a mutant's text is not found exactly once, or pytest cannot
collect its killer; 2 if the unmutated tree fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI, GM, ACC = "tests/test_cli.py", "tests/test_gm.py", "tests/test_acceptance.py"

# name -> (module under src/motivecalc, exact text, replacement, the test
# that kills it, as pytest names it from the repo root)
MUTANTS = {
    "blow-up dimension gate": (
        "formulas.py",
        "if dc + codim != da:",
        "if False:",
        f"{ACC}::test_criterion_9_negative_controls",
    ),
    "symmetry check": (
        "hodge.py",
        "return all(v == h.get((q, p), 0)",
        "return True or all(v == h.get((q, p), 0)",
        f"{CLI}::TestAtlas::test_atlas_schema_violation_exit_2",
    ),
    "sparse div_exact low-degree check": (
        "tatepoly.py",
        "if r_lo < d_lo or m:",
        "if m:",
        "tests/test_tatepoly.py::TestDivisionMatchesReference::test_quotient_or_refusal",
    ),
    "subtract underflow": (
        "motive.py",
        "            if under:\n",
        "            if False:\n",
        f"{CLI}::TestSolve::test_not_divisible_exit_1",
    ),
    "hilb2 odd-cohomology refusal": (
        "atlas.py",
        "if b[1] or b[3]:",
        "if False:",
        "tests/test_atlas.py::TestHilb2::test_rejects_odd_cohomology",
    ),
    "nesting cap": (
        "dsl.py",
        "if self._depth == MAX_DEPTH:",
        "if False:",
        f"{CLI}::test_deep_nesting_exit_2",
    ),
    "MAX_PAIRS": (
        "tatepoly.py",
        "if pairs > MAX_PAIRS:",
        "if False:",
        f"{CLI}::test_twist_product_is_capped",
    ),
    "realization cap": (
        "hodge.py",
        "if n > MAX_DIM:",
        "if False:",
        f"{CLI}::test_huge_atlas_dimension_is_checked_at_once",
    ),
    "--atlas cells check": (
        "cli.py",
        "if not cells or diagonal(cells) != diamond:",
        "if not cells:",
        f"{CLI}::TestAtlas::test_atlas_schema_violation_exit_2",
    ),
    "Atlas.add clash check": (
        "atlas.py",
        "if existing != entry:",
        "if False:",
        "tests/test_atlas.py::test_clashing_user_entry_fails_on_every_call",
    ),
    "torsion needs the unit embedding": (
        "gm.py",
        "FREE if unit and UNKNOWN not in",
        "FREE if UNKNOWN not in",
        f"{GM}::TestTorsion::test_no_unit_embedding_is_unknown",
    ),
    "verify-gm6 --json exit code": (
        "cli.py",
        'return 0 if report["identity_ok"] else 1',
        "return 0",
        f"{CLI}::TestVerify::test_failed_identity_exits_1",
    ),
    "verify-gm6 text exit code": (
        "cli.py",
        'print(f"identity: FAILED; {derivation.message}")\n        return 1',
        'print(f"identity: FAILED; {derivation.message}")\n        return 0',
        f"{CLI}::TestVerify::test_failed_identity_exits_1",
    ),
    "corank-3 emptiness check": (
        "gm.py",
        "if (c3 := codim_rank_leq(e, f, min(e, f) - 3)) <= self.ambient_dim:",
        "if False:",
        f"{GM}::test_ranks_with_matching_codims_meet_a_later_check",
    ),
    "packed product width bound halved": (
        "tatepoly.py",
        "max(b.values()) * sum(a.values())))",
        "max(b.values()) * sum(a.values())) >> 1)",
        "tests/test_tatepoly.py::TestPackedPath::test_dense_product",
    ),
    "q-Pascal band lower edge + 1": (
        "tatepoly.py",
        "lo, hi = max(1, k - n + m), min(m, k)",
        "lo, hi = max(1, k - n + m + 1), min(m, k)",
        f"{ACC}::test_criterion_7_atlas_oracles",
    ),
    "pretty row-sort threshold > 2": (
        "hodge.py",
        "if len(row) > 1:",
        "if len(row) > 2:",
        "tests/test_hodge.py::test_pretty_matches_reference",
    ),
    "Frozen equality type check": (
        "tatepoly.py",
        "if type(other) is not type(self):",
        "if False:",
        "tests/test_atlas.py::test_an_entry_is_its_mathematics_and_the_first_label_stays",
    ),
    "TatePolynomial key empty": (
        "tatepoly.py",
        "ONE\n        return self._coeffs\n",
        "ONE\n        return {}\n",
        f"{ACC}::test_criterion_9_negative_controls",
    ),
    "--atlas repeated (p, q) refusal": (
        "cli.py",
        "if len(table) < len(h):",
        "if False:",
        f"{CLI}::TestAtlas::test_atlas_schema_violation_exit_2",
    ),
    "--atlas item refusal re-raised bare": (
        "cli.py",
        'raise ValueError(f"atlas file {path}: item {i}: {exc}") from None',
        "raise",
        f"{CLI}::TestAtlas::test_atlas_entry_for_scenario_atom",
    ),
    "--atlas diamond.n check": (
        "cli.py",
        'if (type(n := diamond.get("n", dim)), n) != (int, dim):',
        "if False:",
        f"{CLI}::TestAtlas::test_atlas_schema_violation_exit_2",
    ),
    "power multiplies by the base on the wrong bit": (
        "tatepoly.py",
        'if bit == "1":',
        'if bit == "0":',
        "tests/test_tatepoly.py::TestPower::test_matches_repeated_multiplication",
    ),
    "TensorTwist top without the twist degree": (
        "motive.py",
        '"top", child.top + twist.degree)',
        '"top", child.top)',
        "tests/test_motive.py::TestDimOf::test_twist_adds_weight",
    ),
    "fiber range refusal as a plain ValueError": (
        "formulas.py",
        'raise DimensionMismatchError(f"fiber dimension',
        'raise ValueError(f"fiber dimension',
        f"{GM}::test_multi_fact_survey",
    ),
    "codim range refusal as a plain ValueError": (
        "formulas.py",
        'raise DimensionMismatchError(f"blow-up codimension',
        'raise ValueError(f"blow-up codimension',
        f"{GM}::test_multi_fact_survey",
    ),
    "registry clash check": (
        "motive.py",
        "elif have.top != dim:",
        "elif False:",
        "tests/test_motive.py::test_registry_rejects_conflicting_reregistration",
    ),
    "fresh node per lookup": (
        "motive.py",
        "return self._atoms[name]",
        "return Atom(name, self._atoms[name].top)",
        "tests/test_motive.py::TestOneNodePerName::test_a_bulk_program_builds_one_node_per_name",
    ),
    "shared summand without the boundary check": (
        "dsl.py",
        "if self._i == end:  # the parse read exactly the summand's tokens",
        "if True:",
        "tests/test_dsl.py::TestSharedSummands"
        "::test_a_summand_is_shared_only_if_its_parse_ends_at_its_span",
    ),
    "summand table kept across parses": (
        "dsl.py",
        "terms, shared = [], {}",
        'terms, shared = [], vars(self).setdefault("_kept", {})',
        "tests/test_motive.py::TestOneReadPerSummand::test_the_next_parse_reads_them_again",
    ),
    "normalize drops a shared child's multiplicity": (
        "motive.py",
        "entry[2] += m",
        "entry[2] += 0",
        "tests/test_motive.py::TestSharedChildrenWalkedOnce::test_like_unshared_copies",
    ),
    "lexer leaves out the '+' between summands": (
        "dsl.py",
        'tokens.append("+")',
        "pass",
        "tests/test_dsl.py::TestLex::test_texts_of_one_findall_pass",
    ),
}

# survivors that no test can tell apart from the original, each with its
# reason; every mutant above is killed today, so the list is empty
EQUIVALENT: dict[str, str] = {}

PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


def run_pytest(tree: Path, *args: str) -> tuple[bool, str]:
    """(passed, first failing test or last output line) of pytest in tree;
    no arguments runs tier-1."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([*PYTEST, *args], cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [ln.split(" - ")[0] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, (failed or lines[-1:] or [proc.stderr.strip()])[0]


def uncollected(killers: set[str]) -> list[str]:
    """The killer ids that pytest collects no test for."""
    present = [k for k in killers if (ROOT / k.split("::")[0]).is_file()]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [*PYTEST, "--collect-only", *present], cwd=ROOT, env=env, capture_output=True, text=True
    )
    ids = proc.stdout.splitlines()
    return sorted(
        k for k in killers if not any(i == k or i.startswith(k + "[") for i in ids)
    )


def copy_tree(dest: Path) -> Path:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "_out")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)
    return dest


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 1
    stale = []
    for name in names:
        module, text, _, _ = MUTANTS[name]
        found = (ROOT / "src" / "motivecalc" / module).read_text().count(text)
        if found != 1:
            stale.append(f"{name}: text found {found} times in {module}")
    killers = {MUTANTS[name][3] for name in names}
    stale += [f"killer not collected: {k}" for k in uncollected(killers)]
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        ok, first = run_pytest(copy_tree(Path(tmp) / "original"), *sorted(killers))
    if not ok:
        print(f"a killer fails on the unmutated tree: {first}", file=sys.stderr)
        return 2
    tier1_checked = False
    survivors = []
    for name in names:
        module, text, replacement, killer = MUTANTS[name]
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp) / "mutant")
            path = tree / "src" / "motivecalc" / module
            path.write_text(path.read_text().replace(text, replacement))
            ok, first = run_pytest(tree, killer)
            if ok:  # missed by its killer: tier-1, once seen to pass unmutated
                if not tier1_checked:
                    with tempfile.TemporaryDirectory() as tmp2:
                        passed, why = run_pytest(copy_tree(Path(tmp2) / "original"))
                    if not passed:
                        print(f"the unmutated tree fails: {why}", file=sys.stderr)
                        return 2
                    tier1_checked = True
                ok, first = run_pytest(tree)
                first += " (missed by its killer)"
        if ok:
            note = f" (equivalent: {EQUIVALENT[name]})" if name in EQUIVALENT else ""
            print(f"SURVIVED  {name}{note}", flush=True)
            survivors += [] if name in EQUIVALENT else [name]
        else:
            print(f"KILLED    {name}: {first}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
