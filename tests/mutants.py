"""Re-run the recorded mutants: each must still fail every test named for it.

    python tests/mutants.py

A mutant replaces one exact text in one source file. The script copies
`src/`, `tests/` and `pyproject.toml` into a temporary directory and first
runs every named test there unchanged: each must pass. It then applies
each mutant in turn, runs its named tests with pytest, and restores the
file. A mutant is killed when every named test fails. The script exits 1
naming each mutant that survives, and each entry of either table whose old
text no longer occurs exactly once in its file; otherwise it exits 0.

This module is a script, not a `test_*.py` module, so pytest does not
collect it. It uses no mutation package: text edits and `subprocess`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


class Equivalent(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str


_EXACT = "tests/test_geometry.py::test_every_clearance_bound_holds_exactly_"
# Every map kind but `empty`, which has no bound to break.
_CLEARANCE_CHECKS = (
    *(f"{_EXACT}on_the_corpus[{kind}]" for kind in (
        "disks", "polygons", "mixed", "tangent", "pso-disks", "pso-mixed",
        "irregular-a", "inexact")),
    f"{_EXACT}far_from_unit_scale",
)

MUTANTS = (
    Mutant("margin-zero", "src/pathbench/clearance.py",
           "MARGIN = 2.0 ** -40", "MARGIN = 0.0", _CLEARANCE_CHECKS),
    Mutant("margin-2^-56", "src/pathbench/clearance.py",
           "MARGIN = 2.0 ** -40", "MARGIN = 2.0 ** -56", _CLEARANCE_CHECKS),
    Mutant("choose-parent-trusts-clear", "src/pathbench/rrtstar.py",
           "lengths[k] < clear", "lengths[k] <= clear",
           ("tests/test_rrtstar.py::test_choose_parent_refuses_a_blocked_edge_as_long_as_clear",)),
    Mutant("rewire-trusts-clear", "src/pathbench/rrtstar.py",
           "(length < clear or", "(length <= clear or",
           ("tests/test_rrtstar.py::test_rewire_refuses_a_blocked_edge_as_long_as_clear",)),
)

EQUIVALENT = (
    Equivalent("disk-hand-off-halved", "src/pathbench/geometry.py",
               "4.0 * np.sqrt(band[i])", "2.0 * np.sqrt(band[i])",
               "_DISK_BAND is 2^-46 = 128 eps against about 22 eps by the error "
               "analysis, about 6x, so a float root is off by well under "
               "sqrt(band) / dd and the factor of 2 is spare"),
)


def run_tests(tree: Path, tests) -> dict[str, str]:
    """Each test's outcome (PASSED, FAILED, ERROR, ...) from pytest's summary,
    or {"TIMEOUT": ...} when the run takes more than ten minutes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return {"TIMEOUT": "TIMEOUT"}
    outcomes = {}
    for line in done.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR", "SKIPPED", "XFAIL", "XPASS"):
            outcomes[rest.split(" - ")[0]] = word
    return outcomes


def main() -> int:
    stale = {}
    for entry in (*MUTANTS, *EQUIVALENT):
        count = (ROOT / entry.file).read_text(encoding="utf-8").count(entry.old)
        if count != 1:
            stale[entry.name] = f"{entry.old!r} occurs {count} times in {entry.file}"
    chosen = [m for m in MUTANTS if m.name not in stale]
    survived = {}
    with tempfile.TemporaryDirectory(prefix="pathbench-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        baseline = run_tests(tree, sorted({t for m in chosen for t in m.tests})) if chosen else {}
        if chosen and (not baseline or set(baseline.values()) != {"PASSED"}):
            failing = sorted(t for t, o in baseline.items() if o != "PASSED")
            print(f"the named tests must pass on the unmutated tree: {failing or 'none ran'}")
            return 1
        for m in chosen:
            path = tree / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                outcomes = run_tests(tree, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            alive = sorted(t for t, o in outcomes.items() if o not in ("FAILED", "ERROR"))
            if alive or not outcomes:
                survived[m.name] = alive or "no test ran"
            else:
                print(f"killed     {m.name}: all {len(outcomes)} tests fail")
    for e in EQUIVALENT:
        print(f"equivalent {e.name}: {e.reason}")
    for name, why in stale.items():
        print(f"STALE      {name}: {why}")
    for name, alive in survived.items():
        print(f"SURVIVED   {name}: {alive}")
    return 1 if stale or survived else 0


if __name__ == "__main__":
    sys.exit(main())
