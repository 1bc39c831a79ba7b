"""Mutation check of the gates, caps and refusals: does some tier-1 test fail
when one of them is switched off?

    python tests/mutants.py            # every mutant in MUTANTS
    python tests/mutants.py NAME ...   # only the named ones

pytest does not collect this file (its name has no ``test_`` prefix). Each
mutant is one exact textual edit at one place of a module under
``src/motivecalc``. The unmutated tree is run first and must pass. Then, for
each mutant, ``src/``, ``tests/``, ``perfbench/`` (which tier-1 reads as
source) and ``pyproject.toml`` are copied into a temporary directory, the edit is applied there, and tier-1 runs with ``-x``:
KILLED names the first failing test, SURVIVED means every test passed. The
exit code is 1 if a mutant survives that EQUIVALENT does not list, or if a
mutant's text is not found exactly once (the table is stale); 2 if the
unmutated tree fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (module under src/motivecalc, exact text, replacement)
MUTANTS = {
    "blow-up dimension gate": ("formulas.py", "if dc + codim != da:", "if False:"),
    "symmetry check": (
        "hodge.py",
        "return all(v == h.get((q, p), 0)",
        "return True or all(v == h.get((q, p), 0)",
    ),
    "sparse div_exact low-degree check": ("tatepoly.py", "if r_lo < d_lo or m:", "if m:"),
    "subtract underflow": ("motive.py", "            if under:\n", "            if False:\n"),
    "hilb2 odd-cohomology refusal": ("atlas.py", "if b[1] or b[3]:", "if False:"),
    "nesting cap": ("dsl.py", "if self._depth == MAX_DEPTH:", "if False:"),
    "MAX_PAIRS": ("tatepoly.py", "if pairs > MAX_PAIRS:", "if False:"),
    "realization cap": ("hodge.py", "if n > MAX_DIM:", "if False:"),
    "--atlas cells check": (
        "cli.py",
        "if not cells or diagonal(cells) != diamond:",
        "if not cells:",
    ),
    "Atlas.add clash check": ("atlas.py", "if existing != entry:", "if False:"),
    "torsion needs the unit embedding": (
        "gm.py",
        "FREE if unit and UNKNOWN not in",
        "FREE if UNKNOWN not in",
    ),
    "verify-gm6 --json exit code": (
        "cli.py",
        'return 0 if report["identity_ok"] else 1',
        "return 0",
    ),
    "verify-gm6 text exit code": (
        "cli.py",
        'print(f"identity: FAILED; {derivation.message}")\n        return 1',
        'print(f"identity: FAILED; {derivation.message}")\n        return 0',
    ),
    "corank-3 emptiness check": (
        "gm.py",
        "if (c3 := codim_rank_leq(e, f, min(e, f) - 3)) <= self.ambient_dim:",
        "if False:",
    ),
    "packed product width bound halved": (
        "tatepoly.py",
        "max(b.values()) * sum(a.values())))",
        "max(b.values()) * sum(a.values())) >> 1)",
    ),
    "q-Pascal band lower edge + 1": (
        "tatepoly.py",
        "lo, hi = max(1, k - n + m), min(m, k)",
        "lo, hi = max(1, k - n + m + 1), min(m, k)",
    ),
    "pretty row-sort threshold > 2": ("hodge.py", "if len(row) > 1:", "if len(row) > 2:"),
    "Frozen equality type check": (
        "tatepoly.py",
        "if type(other) is not type(self):",
        "if False:",
    ),
    "TatePolynomial key empty": (
        "tatepoly.py",
        "ONE\n        return self._coeffs\n",
        "ONE\n        return {}\n",
    ),
    "--atlas repeated (p, q) refusal": ("cli.py", "if len(table) < len(h):", "if False:"),
    "--atlas item refusal re-raised bare": (
        "cli.py",
        'raise ValueError(f"atlas file {path}: item {i}: {exc}") from None',
        "raise",
    ),
    "--atlas diamond.n check": (
        "cli.py",
        'if (type(n := diamond.get("n", dim)), n) != (int, dim):',
        "if False:",
    ),
    "power multiplies by the base on the wrong bit": (
        "tatepoly.py",
        'if bit == "1":',
        'if bit == "0":',
    ),
}

# survivors that no test can tell apart from the original, each with its
# reason; every mutant above is killed today, so the list is empty
EQUIVALENT: dict[str, str] = {}

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


def tier1(tree: Path) -> tuple[bool, str]:
    """(passed, first failing test or last output line) of tier-1 in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [ln.split(" - ")[0] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, (failed or lines[-1:] or [proc.stderr.strip()])[0]


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
        module, text, _ = MUTANTS[name]
        found = (ROOT / "src" / "motivecalc" / module).read_text().count(text)
        if found != 1:
            stale.append(f"{name}: text found {found} times in {module}")
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        ok, first = tier1(copy_tree(Path(tmp) / "original"))
    if not ok:
        print(f"the unmutated tree fails: {first}", file=sys.stderr)
        return 2
    survivors = []
    for name in names:
        module, text, replacement = MUTANTS[name]
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp) / "mutant")
            path = tree / "src" / "motivecalc" / module
            path.write_text(path.read_text().replace(text, replacement))
            ok, first = tier1(tree)
        if ok:
            note = f" (equivalent: {EQUIVALENT[name]})" if name in EQUIVALENT else ""
            print(f"SURVIVED  {name}{note}", flush=True)
            survivors += [] if name in EQUIVALENT else [name]
        else:
            print(f"KILLED    {name}: {first}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
