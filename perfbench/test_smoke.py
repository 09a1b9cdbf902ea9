"""Smoke test of the benchmark itself: python3 -m pytest perfbench

Runs every workload at its smallest size, untraced and traced, and checks
the output contract, the digests, the failure accounting and the refusal
to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def digests(stdout: str) -> dict[str, str]:
    words = [line.split() for line in stdout.splitlines()]
    return {w[1]: w[2] for w in words if len(w) == 3 and w[0] == "digest"}


@pytest.mark.parametrize("workload", ["field-h2h", "open-tree", "maze-table1"])
def test_workload_at_smallest_size(workload, tmp_path):
    untraced = run(workload, 0, tmp_path)
    traced = run(workload, 1, tmp_path)
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    assert traced.returncode == 0, traced.stdout + traced.stderr
    results = [json.loads(p.stdout.splitlines()[-1]) for p in (untraced, traced)]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] == 2 and result["failed"] == 0
    e2e, layers = (r["metrics"] for r in results)
    assert {n: m["unit"] for n, m in e2e.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in layers.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload in {w["name"] for w in SPEC["workloads"]}:
        assert all(isinstance(m["value"], (int, float)) and m["value"] > 0
                   for m in e2e.values())
    assert digests(untraced.stdout) == digests(traced.stdout)
    assert set(digests(untraced.stdout)) == {"rrtstar", "pso"}
    assert (tmp_path / ".perfbench_out" / workload).is_dir()


def test_planted_failure_is_counted():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import pathbench as pb
        import workloads as wl
    finally:
        del sys.path[:2]
    env = pb.Environment(pb.DEFAULT_BOUNDS, (pb.Circle(pb.Point2(0.0, 0.0), 1.0),))
    query = pb.Query(pb.Point2(-5.0, 0.0), pb.Point2(5.0, 0.0))

    def feasible(path):
        return pb.PlanResult(planner_id="pso", seed=0, feasible=True,
                             length=pb.path_length(path), elapsed=0.0,
                             iterations_used=1, closest_approach=0.0,
                             path=path, params={})

    through = feasible((query.start, query.target))  # crosses the disk
    around = feasible((query.start, pb.Point2(0.0, 3.0), query.target))
    plans = [wl.Plan("pso", env, query, through, 0.5),
             wl.Plan("pso", env, query, around, 0.5),
             wl.Plan("rrtstar", env, query, around, 0.5)]
    outcomes, ratios = wl.score(pb, plans)
    assert outcomes == ["audit_rejected", "clean", "clean"]
    run = wl.Pass(plans, 1.5, outcomes, ratios, [], {})
    assert wl.fail_breakdown(run)["audit_rejected"] == 1
    metrics = wl.end_to_end(run, 0.01, 50.0)
    assert metrics["ok_rate"][0] == pytest.approx(2 / 3)
    assert metrics["rrtstar.feasible_rate"][0] == 1.0
    assert wl.ungated(run)["pso.feasible_rate"][0] == pytest.approx(0.5)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("field-h2h", 0, tmp_path, tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
