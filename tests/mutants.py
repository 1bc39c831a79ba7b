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
run with ``-x`` (after one check that tier-1 passes on the unmutated tree),
less the two checks of these tables, which fail on every mutated tree. KILLED names
the first failing test, SURVIVED means every test passed; each line gives
the mutant's seconds, and a last line tallies the run. The exit code is
1 if a mutant survives that EQUIVALENT does not list, or if the table is
stale: a mutant's text is not found exactly once, or its killer names no
test defined in its file (``tests/test_mutants.py`` runs that check in
tier-1); 2 if the unmutated tree fails. Every ``raise`` in ``src/motivecalc``
that no mutant switches off is counted, with its reason, in UNMUTATED, and
tier-1 checks that count too.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI, GM, ACC = "tests/test_cli.py", "tests/test_gm.py", "tests/test_acceptance.py"
BUILTIN_ERRORS = f"{CLI}::test_builtin_error_names_builtin_and_position"

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
        'if c3 <= (ambient := ATOMS["B"].dim + s.pv5_dim):',
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
    # the builtins' refusals: the killer's inputs lie one step out of range,
    # so a mutated tree builds at most MAX_DIM + 2 terms (never name
    # test_builtin_caps_exit_2, whose P(10000000) would build 10^7)
    "P range check": ("atlas.py", "if not 0 <= n <= MAX_DIM:", "if False:", BUILTIN_ERRORS),
    "Q range check": ("atlas.py", "if not 1 <= n <= MAX_DIM:", "if False:", BUILTIN_ERRORS),
    "Gr range check": (
        "atlas.py",
        "if not 1 <= k < n or k * (n - k) > MAX_DIM:",
        "if False:",
        BUILTIN_ERRORS,
    ),
    "PB range check": ("formulas.py", "if not 1 <= r <= MAX_DIM + 1:", "if False:", BUILTIN_ERRORS),
    "hilb2 surface check": ("atlas.py", "if d.n != 2:", "if False:", BUILTIN_ERRORS),
    "Hilb2 argument names an atlas surface": (
        "dsl.py",
        "if not isinstance(inner, Atom) or atlas.get(inner.name) is None:",
        "if False:",
        BUILTIN_ERRORS,
    ),
    "zero tensor factor": (
        "motive.py",
        "if not m1:",
        "if False:",
        "tests/test_motive.py::TestSolveTensorFactor::test_zero_factor_is_bad_input",
    ),
    "missing realization": (
        "hodge.py",
        "if name not in table:",
        "if False:",
        "tests/test_hodge.py::TestRealizeHodge::test_missing_realization",
    ),
}

# survivors that no test can tell apart from the original, each with its
# reason; every mutant above is killed today, so the list is empty
EQUIVALENT: dict[str, str] = {}

# "module:function" -> (how many of its raises no mutant switches off, why);
# tests/test_mutants.py checks that every raise in src/motivecalc lies in the
# body of an ``if`` whose test a mutant edits, or is the raise a mutant edits,
# or is counted here
VALUE = "a public constructor's type or range check of its argument; no mutant yet"
SYNTAX = "a DSL syntax error, placed by the parser; no mutant yet"
MISUSE = "internal misuse: no package caller passes such a value"
UNMUTATED: dict[str, tuple[int, str]] = {
    "atlas.py:AtlasEntry.__init__": (1, "reads check_symmetries, which 'symmetry check' edits"),
    "cli.py:_cmd_solve": (1, "solve would read stdin twice; no mutant yet"),
    "cli.py:_load_extra_atlas": (9, "an --atlas file's schema checks; no mutant yet"),
    "dsl.py:Parser._builtin": (3, "two syntax errors and a builtin's refusal; no mutant yet"),
    "dsl.py:Parser._expect": (1, SYNTAX),
    "dsl.py:Parser._expr": (1, "a zero twist factor; no mutant yet"),
    "dsl.py:Parser._factor": (4, "syntax errors, a K3 clash and an unknown name; no mutant yet"),
    "dsl.py:Parser._nat": (2, "no numeral, or one past the int-conversion limit; no mutant yet"),
    "dsl.py:Parser._parse_all": (1, SYNTAX),
    "dsl.py:Parser._polynomial": (1, SYNTAX),
    "dsl.py:Parser._twist": (1, SYNTAX),
    "dsl.py:tokenize": (1, "names the first bad character of a text the parser refused"),
    "formulas.py:codim_rank_leq": (1, VALUE),
    "formulas.py:kunneth": (1, "Prod with no cellular factor; no mutant yet"),
    "gm.py:Derivation.sides": (1, "re-raises a failed derivation's stored gate or IdentityError"),
    "hodge.py:HodgeDiamond.__init__": (5, VALUE),
    "hodge.py:HodgeDiamond.pretty": (1, "the MAX_PRETTY_CHARS render bound; no mutant yet"),
    "motive.py:AtomRegistry.atom": (1, "turns the table's KeyError into UnregisteredAtomError"),
    "motive.py:AtomRegistry.register": (2, VALUE),
    "motive.py:Sum.__init__": (1, MISUSE),
    "motive.py:TensorTwist.__init__": (1, MISUSE),
    "motive.py:normalize": (1, MISUSE),
    "tatepoly.py:Frozen.__setattr__": (1, "immutability of every value type; no mutant yet"),
    "tatepoly.py:TatePolynomial.__init__": (3, VALUE),
    "tatepoly.py:TatePolynomial.__pow__": (1, VALUE),
    "tatepoly.py:TatePolynomial.div_exact": (
        5,
        "zero divisor, and the packed path's and the last dict-path refusal; no mutant yet",
    ),
    "tatepoly.py:gaussian_binomial": (1, VALUE),
    "tatepoly.py:ladder": (1, VALUE),
}

PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
# the tier-1 checks of these tables, which no mutated tree can pass
TABLE_CHECKS = [
    "tests/test_mutants.py::test_the_mutant_table_is_not_stale",
    "tests/test_mutants.py::test_every_raise_is_mutated_or_listed",
]


def run_pytest(tree: Path, *args: str) -> tuple[bool, str]:
    """(passed, first failing test or last output line) of pytest in tree;
    no arguments runs tier-1."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([*PYTEST, *args], cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [ln.split(" - ")[0] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, (failed or lines[-1:] or [proc.stderr.strip()])[0]


def unresolved(killers: set[str]) -> list[str]:
    """The killer ids that name no test: each class on the path and the test
    function must be defined at the top level of the file or class before."""
    out = []
    for killer in killers:
        path, *names = killer.split("::")
        file = ROOT / path
        body = ast.parse(file.read_text()).body if file.is_file() else []
        for name in names:
            defs = [n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))]
            body = next((n.body for n in defs if n.name == name), None)
            if body is None:
                out.append(killer)
                break
    return sorted(out)


def stale(names: list[str]) -> list[str]:
    """Why the table is stale for the named mutants: a text not found exactly
    once in its module, or a killer that names no test."""
    out = []
    for name in names:
        module, text, _, _ = MUTANTS[name]
        found = (ROOT / "src" / "motivecalc" / module).read_text().count(text)
        if found != 1:
            out.append(f"{name}: text found {found} times in {module}")
    killers = {MUTANTS[name][3] for name in names}
    return out + [f"killer names no test: {k}" for k in unresolved(killers)]


def raise_sites(source: str, texts: list[str]) -> dict[str, list[int]]:
    """The lines of the raises that no text switches off, by qualified name
    of the function they lie in. A text switches off each raise in the body
    of the ``if`` whose test it lies in, and the raise it lies in."""
    tree = ast.parse(source)
    at = [source.count("\n", 0, source.index(t)) + 1 for t in texts if t in source]
    off = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(
            node.test.lineno <= n <= node.test.end_lineno for n in at
        ):
            off.update(id(r) for s in node.body for r in ast.walk(s) if isinstance(r, ast.Raise))
        elif isinstance(node, ast.Raise) and any(node.lineno <= n <= node.end_lineno for n in at):
            off.add(id(node))
    out: dict[str, list[int]] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and id(child) not in off:
                out.setdefault(scope or "<module>", []).append(child.lineno)
            visit(child, scope)

    visit(tree, "")
    return out


def unlisted_raises(sources: dict[str, str], mutants=MUTANTS, unmutated=UNMUTATED) -> list[str]:
    """Each function whose raises that no mutant switches off differ in
    number from its UNMUTATED entry, with their lines; [] when every raise
    is switched off by a mutant or listed."""
    found = {}
    for module, source in sources.items():
        texts = [text for mod, text, _, _ in mutants.values() if mod == module]
        for scope, lines in raise_sites(source, texts).items():
            found[f"{module}:{scope}"] = lines
    out = []
    for site in sorted(found.keys() | unmutated.keys()):
        lines, listed = found.get(site, []), unmutated.get(site, (0, ""))[0]
        if len(lines) != listed:
            out.append(f"{site}: unmutated raises at lines {lines}, {listed} listed")
    return out


def src_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted((ROOT / "src" / "motivecalc").glob("*.py"))}


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
    problems = stale(names)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    start = time.perf_counter()
    killers = {MUTANTS[name][3] for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        ok, first = run_pytest(copy_tree(Path(tmp) / "original"), *sorted(killers))
    if not ok:
        print(f"a killer fails on the unmutated tree: {first}", file=sys.stderr)
        return 2
    tier1_checked = False
    survived = []
    for name in names:
        began = time.perf_counter()
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
                deselect = [arg for t in TABLE_CHECKS for arg in ("--deselect", t)]
                ok, first = run_pytest(tree, *deselect)
                first += " (missed by its killer)"
        seconds = f"{time.perf_counter() - began:5.1f} s"
        if ok:
            note = f" (equivalent: {EQUIVALENT[name]})" if name in EQUIVALENT else ""
            print(f"SURVIVED  {seconds}  {name}{note}", flush=True)
            survived.append(name)
        else:
            print(f"KILLED    {seconds}  {name}: {first}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(names) - len(survived)} killed, {len(survived)} survived, {total:.0f} s in all")
    return 1 if set(survived) - EQUIVALENT.keys() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
