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
_GEOMETRY, _BOUNDARY, _PSO = (f"tests/test_{name}.py::test_" for name in (
    "geometry", "boundary", "pso"))
_ORACLE = f"{_GEOMETRY}blocked_lengths_and_edge_free_match_the_oracles"
_IFF = f"{_GEOMETRY}edge_free_iff_blocked_length_is_zero"
_AT_POINTS = f"{_GEOMETRY}the_clearance_array_form_is_at_point_by_point"
_BENCHMARK = "tests/test_benchmark.py::test_"
_FIRST_LINE = f"{_BENCHMARK}grid_oracle_passes_through_the_first_column_or_row"
_CELL_CAP = f"{_BENCHMARK}grid_oracle_plans_a_grid_of_exactly_the_cell_cap"
_BAD_CSV = f"{_BENCHMARK}read_results_csv_rejects_a_bad_file"
_EMPTY_OUT = "tests/test_cli.py::test_an_empty_out_exits_two_before_any_plan"

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
    # The batch kernel's disk pass, bounds stage and union.
    Mutant("no-exact-test-for-unsure-disk-pairs", "src/pathbench/kernel.py",
           "if not sure.all():", "if False:",
           (f"{_ORACLE}[disks]", f"{_ORACLE}[mixed]", f"{_IFF}[disks]", f"{_IFF}[mixed]",
            f"{_GEOMETRY}blocked_length_is_zero_when_clear_of_a_disk",
            f"{_BOUNDARY}disk_grazes_match_the_fraction_oracle")),
    Mutant("no-margin-in-the-disk-hand-off", "src/pathbench/kernel.py",
           "4.0 * np.sqrt(band[i])", "0.0 * np.sqrt(band[i])",
           (f"{_ORACLE}[disks]", f"{_ORACLE}[mixed]", f"{_IFF}[disks]",
            f"{_GEOMETRY}box_skips_match_the_oracles_at_box_edges[disks]",
            f"{_GEOMETRY}blocked_length_is_zero_when_clear_of_a_disk",
            f"{_BOUNDARY}disk_grazes_match_the_fraction_oracle")),
    Mutant("disk-sliver-of-2^-20", "src/pathbench/kernel.py",
           "(0.5, 0.5 + 2.0 ** -53)", "(0.5, 0.5 + 2.0 ** -20)",
           (f"{_ORACLE}[disks]", f"{_GEOMETRY}tangent_rows_block_next_to_nothing",
            f"{_GEOMETRY}tangent_and_underflowing_rows_match_the_oracle"
            "[tangent-midpoint-rounds-inside]")),
    Mutant("x-min-counted-outside", "src/pathbench/kernel.py",
           "(x >= b.x_min)", "(x > b.x_min)",
           (f"{_ORACLE}[empty]", f"{_IFF}[empty]", f"{_BOUNDARY}the_maze_polygon_pass_is_pinned",
            f"{_PSO}the_obstacle_stage_is_the_column_entry_inside_the_bounds",
            f"{_PSO}the_slab_adds_nothing_to_a_row_inside_the_bounds")),
    Mutant("one-interval-path-at-two", "src/pathbench/kernel.py",
           "np.bincount(row, minlength=n).max() == 1", "np.bincount(row, minlength=n).max() <= 2",
           (f"{_ORACLE}[mixed]", f"{_GEOMETRY}the_one_interval_union_equals_the_sweep",
            f"{_GEOMETRY}overlapping_disks_count_once",
            f"{_GEOMETRY}a_row_reads_the_same_in_any_sub_batch[mixed]",
            f"{_PSO}an_open_particles_penalty_is_its_path_violation_bit_for_bit")),
    Mutant("one-interval-weights-hi", "src/pathbench/kernel.py",
           "weights=hi - lo", "weights=hi",
           (f"{_ORACLE}[polygons]", f"{_GEOMETRY}the_one_interval_union_equals_the_sweep",
            f"{_GEOMETRY}blocked_length_counts_out_of_bounds", f"{_PSO}path_violation")),
    # The scalar disk test that the kernel hands its unsure pairs to.
    Mutant("scalar-disk-test-trusts-its-floats", "src/pathbench/geometry.py",
           "if abs(gap) > _DISK_BAND * size + _ORIENT_TINY:", "if True:",
           (f"{_ORACLE}[disks]", f"{_GEOMETRY}collision_field_many_random_envs",
            f"{_BOUNDARY}disk_grazes_match_the_fraction_oracle")),
    Mutant("exact-disk-test-blocks-a-tangent", "src/pathbench/geometry.py",
           "(cx, cy), r)[0] < 0", "(cx, cy), r)[0] <= 0",
           (f"{_ORACLE}[disks]", f"{_GEOMETRY}segment_circle_tangency_is_free",
            f"{_GEOMETRY}edge_free", f"{_GEOMETRY}point_free")),
    # The clearance grid's array lookup, which `CollisionField.free` reads.
    Mutant("at-points-open-at-x-min", "src/pathbench/clearance.py",
           "(xs >= x_min)", "(xs > x_min)",
           (f"{_AT_POINTS}[disks]", f"{_AT_POINTS}[empty]", f"{_AT_POINTS}[irregular-a]")),
    Mutant("at-points-open-at-y-max", "src/pathbench/clearance.py",
           "(ys <= y_max)", "(ys < y_max)",
           (f"{_AT_POINTS}[disks]", f"{_AT_POINTS}[empty]", f"{_AT_POINTS}[irregular-a]")),
    Mutant("at-points-rounds-to-the-nearest-column", "src/pathbench/clearance.py",
           "(xs[inside] - x_min) * self.scale)", "(xs[inside] - x_min) * self.scale + 0.5)",
           (f"{_AT_POINTS}[disks]", f"{_GEOMETRY}collision_field_many_random_envs",
            f"{_GEOMETRY}free_holds_no_array_of_points_by_disks")),
    # A PSO run on a map with no obstacle builds no kernel.
    Mutant("pso-builds-the-kernel-on-an-empty-map", "src/pathbench/pso.py",
           "self._measure = None if field.obstacle_free else field.kernel._obstacle_measure",
           "self._measure = field.kernel._obstacle_measure",
           ("tests/test_benchmark.py::"
            "test_the_batch_kernel_loads_with_the_first_pso_plan_on_obstacles",
            f"{_PSO}the_empty_run_sends_no_row_to_the_kernel")),
    # The grid oracle's moves and its cell cap.
    Mutant("oracle-never-enters-the-first-column", "src/pathbench/benchmark.py",
           "(0 <= jx < nx", "(0 < jx < nx", (f"{_FIRST_LINE}[column]",)),
    Mutant("oracle-never-enters-the-first-row", "src/pathbench/benchmark.py",
           "0 <= jy < ny)", "0 < jy < ny)", (f"{_FIRST_LINE}[row]", _CELL_CAP)),
    Mutant("oracle-refuses-a-grid-of-exactly-the-cap", "src/pathbench/benchmark.py",
           "    if cells <= MAX_GRID_CELLS:", "    if cells < MAX_GRID_CELLS:", (_CELL_CAP,)),
    # plan_grid's row checks and the plan record's columns.
    Mutant("plan-grid-leaves-the-seed-to-the-plan", "src/pathbench/benchmark.py",
           "        replace(params, rng_seed=seed)\n", "",
           (f"{_BENCHMARK}plan_grid_checks_every_rows_seed_before_any_plan",)),
    Mutant("elapsed-column-holds-the-closest-approach", "src/pathbench/benchmark.py",
           '"elapsed_s": ("elapsed", float)', '"elapsed_s": ("closest_approach", float)',
           (f"{_BENCHMARK}result_record_is_the_plan_records_columns_in_order",)),
    # The input checks: an empty output directory and a results CSV.
    Mutant("config-accepts-an-empty-out", "src/pathbench/cli.py",
           "if not (isinstance(out, str) and out):", "if not isinstance(out, str):",
           tuple(f"{_EMPTY_OUT}[{c}]" for c in ("plan", "bench", "table1"))),
    Mutant("cli-accepts-an-empty-out-flag", "src/pathbench/cli.py",
           'if args.out == "":', "if False:",
           tuple(f"{_EMPTY_OUT}[{c}]" for c in ("plan", "bench", "table1", "render"))),
    Mutant("reader-keeps-the-last-of-a-repeated-column", "src/pathbench/benchmark.py",
           "if header.count(k) != 1:", "if k not in header:", (f"{_BAD_CSV}[repeated-column]",)),
    Mutant("reader-lets-a-decode-error-through", "src/pathbench/benchmark.py",
           'raise FormatError(f"{path} is not UTF-8 ({exc})") from None', "raise",
           (f"{_BAD_CSV}[not-utf8]",)),
)

EQUIVALENT = (
    Equivalent("disk-hand-off-halved", "src/pathbench/kernel.py",
               "4.0 * np.sqrt(band[i])", "2.0 * np.sqrt(band[i])",
               "_DISK_BAND is 2^-46 = 128 eps against about 22 eps by the error "
               "analysis, about 6x, so a float root is off by well under "
               "sqrt(band) / dd and the factor of 2 is spare"),
    Equivalent("write-text-with-the-platform-newline", "src/pathbench/environment.py",
               'open(path, "w", encoding="utf-8", newline="")',
               'open(path, "w", encoding="utf-8", newline=None)',
               "on Linux text mode writes \\n either way, so no test here can tell the two "
               "apart; on Windows newline=None would write \\r\\n"),
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
