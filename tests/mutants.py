"""Mutation check: every listed mutant of the package must fail its tests.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py

Each mutant replaces one exact text, which must occur exactly once, in a file
under ``src/``.  For each, ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` are copied to a temporary directory, the mutant is applied there
and its test files run for at most ``LIMIT`` seconds.  A mutant is killed
when pytest fails or runs past the limit.  The same tests first run on an
unmutated copy and must pass, so a kill is the mutant's doing.  The exit
status is 1 when a mutant survives, an old text no longer matches (a refactor
must update this list) or the unmutated tests fail; 0 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 300  # wall-clock seconds per pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/; at least one must fail


MUTANTS = [
    Mutant(
        "S keeps row blocks 2 and 3 in place",
        "pluq/recursive.py",
        "blocks = (ar(a), ar(k, b), ar(a, k), ar(b, m))",
        "blocks = (ar(a), ar(a, k), ar(k, b), ar(b, m))",
        ("test_supports.py",),
    ),
    Mutant(
        "child 4's row order dropped",
        "pluq/recursive.py",
        "kr + rows3.sigma[r3:][rows4.sigma]",
        "kr + rows3.sigma[r3:]",
        ("test_supports.py",),
    ),
    Mutant(
        "child 4's column order dropped",
        "pluq/recursive.py",
        "kc + cols2.sigma[r2:][cols4.sigma]",
        "kc + cols2.sigma[r2:]",
        ("test_supports.py",),
    ),
    Mutant(
        "I not re-zeroed in child 1's zero block",
        "pluq/recursive.py",
        "    held[...] = 0\n",
        "",
        ("test_golden.py", "test_supports.py"),
    ),
    Mutant(
        "I held untransposed",
        "pluq/recursive.py",
        "held = data[r1 : r1 + r2, r1 : r1 + r3].T",
        "held = data[r1 : r1 + r3, r1 : r1 + r2]",
        ("test_golden.py", "test_supports.py"),
    ),
    Mutant(
        "base-case jump one step too far",
        "pluq/recursive.py",
        "i = min(i + s, m)\n            j = min(j + s, n)",
        "i = min(i + s + 1, m)\n            j = min(j + s + 1, n)",
        ("test_iterative.py",),
    ),
    Mutant(
        "base case takes the last nonzero of its column probe",
        "pluq/recursive.py",
        "pivot = (r + int(nz[0]), j)",
        "pivot = (r + int(nz[-1]), j)",
        ("test_metamorphic.py",),
    ),
    Mutant(
        "mm_acc charges one reduction too many",
        "pluq/kernels.py",
        "counts.modular_reductions += m * n\n",
        "counts.modular_reductions += m * n + 1\n",
        ("test_kernels.py",),
    ),
    Mutant(
        "pivots below row k counted up to and including k",
        "pluq/rank_profile.py",
        "bisect_left(by_row.keys, k),",
        "bisect_left(by_row.keys, k + 1),",
        ("test_rank_profile.py",),
    ),
    Mutant(
        "row side leads when its largest column equals t",
        "pluq/rank_profile.py",
        "if not below_k or by_row.partner_max[below_k - 1] < t:",
        "if not below_k or by_row.partner_max[below_k - 1] <= t:",
        ("test_rank_profile.py",),
    ),
    Mutant(
        "a leading side's slice taken to its own bound",
        "pluq/rank_profile.py",
        "return keys[:inside]",
        "return keys[:below]",
        ("test_rank_profile.py",),
    ),
    Mutant(
        "a side's slice taken when a partner equals the bound",
        "pluq/rank_profile.py",
        "partner_max[inside - 1] < bound",
        "partner_max[inside - 1] <= bound",
        ("test_rank_profile.py",),
    ),
    Mutant(
        "oracle row profile keeps row k",
        "pluq/oracle.py",
        "for i in self._rows_by_t[t] if i < k)",
        "for i in self._rows_by_t[t] if i <= k)",
        ("test_oracle.py",),
    ),
    Mutant(
        "greedy scan skips the newest basis row",
        "pluq/oracle.py",
        "for lead, vec in basis:",
        "for lead, vec in basis[:-1]:",
        ("test_oracle.py",),
    ),
]


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):  # tier-1 reads both
        shutil.copy(ROOT / name, dest)


def _pytest(tree: Path, tests: tuple[str, ...]) -> str:
    """'passed', 'failed' or 'timed out' for the given test files in ``tree``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(f"tests/{t}" for t in tests)]
    try:
        done = subprocess.run(cmd, cwd=tree, capture_output=True, timeout=LIMIT)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.path}: old text occurs {text.count(mutant.old)} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="pluq-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        for tests in sorted({t for m in MUTANTS for t in m.tests}):
            outcome = _pytest(clean, (tests,))
            print(f"unmutated      {tests}: {outcome}", flush=True)
            bad += outcome != "passed"
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{i}"
            _copy_tree(tree)
            try:
                _apply(tree, mutant)
            except LookupError as exc:
                print(f"STALE          {mutant.name}: {exc}", flush=True)
                bad += 1
                continue
            t0 = time.perf_counter()
            outcome = _pytest(tree, mutant.tests)
            verdict = "SURVIVED" if outcome == "passed" else "killed"
            print(f"{verdict:14s} {mutant.name}: tests {outcome} ({time.perf_counter() - t0:.1f} s)", flush=True)
            bad += outcome == "passed"
            shutil.rmtree(tree)
    print(f"{len(MUTANTS)} mutants, {bad} problems, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
