"""End-to-end command tests: configs, seed precedence, exit codes, files."""

import json
import math
import sys
import time

import pytest

from pathbench.benchmark import _PLANNERS, FIELD_QUERY, RESULT_FIELDS, RandomEnvFactory
from pathbench.cli import SEED_ENV_VAR, build_parser, load_config, main, parse_config
from pathbench.environment import (Environment, Query, irregular_preset,
                                   save_environment)
from pathbench.errors import FormatError
from pathbench.geometry import Bounds, Circle, Point2
from pathbench.render import environment_svg

EMPTY_INLINE = {
    "kind": "inline",
    "bounds": [-15.0, 15.0, -15.0, 15.0],
    "obstacles": [],
    "query": {"start": [0.0, 0.0], "target": [10.0, 0.0]},
}
FAST_PSO = {"max_iterations": 40, "population": 10}
FAST_RRT = {"iterations_num": 600}


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_config_defaults():
    cfg = parse_config({})
    assert (cfg.environment, cfg.query) == irregular_preset("irregular-a")
    assert cfg.env_seed is None
    assert cfg.trials == 50
    assert cfg.base_seed == 0
    assert cfg.out == "output"
    assert cfg.params["rrtstar"].iterations_num == 2000
    assert cfg.params["pso"].max_iterations == 2000


def test_the_cli_reads_its_planners_from_the_planner_table():
    ids = list(_PLANNERS)
    assert list(parse_config({}).params) == ids
    for planner, run in _PLANNERS.items():
        # Each id is a config key, read as that planner's parameter record.
        assert run.planner_id == planner
        assert parse_config({planner: {}}).params[planner] == run.params_type()
        with pytest.raises(FormatError, match=rf"unknown field\(s\) \['bogus'\] in {planner}"):
            parse_config({planner: {"bogus": 1}})
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command in ("plan", "bench"):
        flag = next(a for a in commands[command]._actions if a.dest == "planner")
        assert list(flag.choices) == ids


@pytest.mark.parametrize("doc", [
    {},
    {"environment": {"kind": "preset", "name": "empty"}},
    {"environment": {"kind": "file", "path": "somewhere/env.json"}},
    {"environment": EMPTY_INLINE, "trials": 3},
    {"environment": {"kind": "random", "seed": 7, "n_obstacles": 5,
                     "radius_range": [1.0, 2.0],
                     "bounds": [-30.0, 30.0, -30.0, 30.0], "clearance": 0.5},
     "query": {"start": [20.0, -15.0], "target": [-25.0, 15.0]}},
    {"rrtstar": {"iterations_num": 100, "step_size": 1.5},
     "pso": {"population": 20, "omega_start": 0.8},
     "base_seed": 4, "out": "elsewhere"},
])
def test_config_round_trip(doc, tmp_path, monkeypatch):
    # A config written to disk loads back to the config its document parses to.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "somewhere").mkdir()
    save_environment(tmp_path / "somewhere" / "env.json",
                     *irregular_preset("empty"))
    cfg = parse_config(doc)
    assert load_config(write_config(tmp_path, doc)) == cfg


def test_parse_config_resolves_the_environment(tmp_path):
    query_doc = {"start": [20.0, -15.0], "target": [-25.0, 15.0]}
    cfg = parse_config({"environment": {"kind": "random", "seed": 7,
                                        "n_obstacles": 5,
                                        "radius_range": [1.0, 2.0],
                                        "bounds": [-30, 30, -30, 30],
                                        "clearance": 0.5},
                        "query": query_doc})
    assert cfg.environment == RandomEnvFactory(
        query=FIELD_QUERY, n_obstacles=5, radius_range=(1.0, 2.0),
        bounds=Bounds(-30.0, 30.0, -30.0, 30.0), clearance=0.5)
    assert (cfg.query, cfg.env_seed) == (FIELD_QUERY, 7)
    cfg = parse_config({"environment": {"kind": "random"}, "query": query_doc})
    assert cfg.environment == RandomEnvFactory(query=FIELD_QUERY)
    assert cfg.env_seed is None

    env, own_query = irregular_preset("empty")
    save_environment(tmp_path / "env.json", env, own_query)
    file_doc = {"kind": "file", "path": str(tmp_path / "env.json")}
    cfg = parse_config({"environment": file_doc})
    assert (cfg.environment, cfg.query, cfg.env_seed) == (env, own_query, None)
    # The config's own query wins over the one the environment carries.
    cfg = parse_config({"environment": file_doc, "query": query_doc})
    assert cfg.query == FIELD_QUERY


@pytest.mark.parametrize("doc", [
    {"budget": 99},
    {"environment": {"kind": "preset", "style": "maze"}},
    {"environment": {"kind": "teapot"}},
    {"environment": {"kind": "preset", "name": "nonesuch"}},
    {"environment": {"kind": "file"}},
    # A path that is not a non-empty string: 7 loaded a file named "7".
    {"environment": {"kind": "file", "path": 7}},
    {"environment": {"kind": "file", "path": True}},
    {"environment": {"kind": "file", "path": ""}},
    {"rrtstar": {"rng_seed": 5}},
    {"rrtstar": {"iterations": 10}},
    {"pso": {"max_iterations": 0}},
    {"query": {"start": [0.0, 0.0]}},
    {"query": {"start": [0.0], "target": [1.0, 1.0]}},
    {"trials": 0},
    {"trials": "many"},
    {"out": 7},
    {"query": {"start": [True, 0.0], "target": [1.0, 1.0]}},
    {"environment": {"kind": "random"}},
    {"environment": {"kind": "random", "radius_range": [1.0]},
     "query": {"start": [0.0, 0.0], "target": [1.0, 1.0]}},
    {"environment": {"kind": "inline", "bounds": [-5.0, 5.0, -5.0, 5.0]}},
    # Planner fields are typed by the parameter records themselves.
    {"rrtstar": {"iterations_num": 2.5}},
    {"pso": {"c1": True}},
    {"rrtstar": {"step_size": "2"}},
    {"pso": {"population": None}},
    # Integers too large for a float.
    {"rrtstar": {"step_size": 10**400}},
    {"pso": {"v_max": 10**400}},
    {"environment": {"kind": "inline", "bounds": [-5.0, 10**400, -5.0, 5.0]}},
    {"environment": {"kind": "random", "clearance": 10**400},
     "query": {"start": [0.0, 0.0], "target": [1.0, 1.0]}},
    {"environment": {"kind": "random", "radius_range": [1.0, 10**400]},
     "query": {"start": [0.0, 0.0], "target": [1.0, 1.0]}},
    {"query": {"start": [10**400, 0.0], "target": [1.0, 1.0]}},
    {"environment": {"kind": "random", "clearance": float("nan")},
     "query": {"start": [0.0, 0.0], "target": [1.0, 1.0]}},
    # The factory's own query field is not a config key.
    {"environment": {"kind": "random", "query": {"start": [0.0, 0.0], "target": [1.0, 1.0]}},
     "query": {"start": [0.0, 0.0], "target": [1.0, 1.0]}},
    # These died with a TypeError from iterating the obstacles.
    {"environment": dict(EMPTY_INLINE, obstacles=5)},
    {"environment": dict(EMPTY_INLINE, obstacles=None)},
])
def test_parse_config_rejections(doc):
    with pytest.raises(FormatError):
        parse_config(doc)


def test_plan_feasible_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "rrtstar": FAST_RRT})
    out = tmp_path / "run"
    code = main(["plan", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "plan.svg").exists()
    # One plan record in both files; result.json adds the path and params.
    lines = (out / "result.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(RESULT_FIELDS) and len(lines) == 2
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert list(doc) == [*RESULT_FIELDS, "path", "params"]
    assert doc["planner"] == "rrtstar"
    assert doc["feasible"] is True
    assert doc["seed"] == 0
    assert doc["path"][0] == [0.0, 0.0]
    assert doc["path"][-1] == [10.0, 0.0]
    assert "feasible" in capsys.readouterr().out


def test_plan_writes_an_integer_real_field_as_a_float(tmp_path):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "rrtstar": {**FAST_RRT, "step_size": 2}})
    out = tmp_path / "run"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "result.json").read_text(encoding="utf-8")
    assert '"step_size": 2.0' in text
    assert type(json.loads(text)["params"]["step_size"]) is float


def test_plan_is_deterministic_through_the_cli(tmp_path):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "pso": FAST_PSO})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["plan", "--config", cfg, "--planner", "pso",
                 "--out", str(out_a)]) == 0
    assert main(["plan", "--config", cfg, "--planner", "pso",
                 "--out", str(out_b)]) == 0
    assert (out_a / "plan.svg").read_bytes() == (out_b / "plan.svg").read_bytes()


def test_plan_infeasible_exits_one(tmp_path, capsys):
    ring = []
    for k in range(12):
        ang = 2 * math.pi * k / 12
        ring.append({"kind": "circle",
                     "center": [6 * math.cos(ang), 6 * math.sin(ang)],
                     "radius": 2.2})
    doc = {"environment": {"kind": "inline",
                           "bounds": [-20.0, 20.0, -20.0, 20.0],
                           "obstacles": ring,
                           "query": {"start": [15.0, -15.0], "target": [0.0, 0.0]}},
           "rrtstar": {"iterations_num": 120}}
    cfg = write_config(tmp_path, doc)
    code = main(["plan", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 1
    assert "no feasible path" in capsys.readouterr().out
    # Strict JSON: the length was written as a bare NaN.
    result = json.loads((tmp_path / "run" / "result.json").read_text(encoding="utf-8"),
                        parse_constant=lambda name: pytest.fail(f"{name} in result.json"))
    assert result["feasible"] is False
    assert result["length"] is None
    assert result["path"] is None


def test_plan_bad_query_is_a_config_error(tmp_path, capsys):
    doc = {"environment": {"kind": "inline",
                           "bounds": [-15.0, 15.0, -15.0, 15.0],
                           "obstacles": [{"kind": "circle", "center": [0.0, 0.0],
                                          "radius": 3.0}],
                           "query": {"start": [0.0, 0.0], "target": [10.0, 0.0]}}}
    cfg = write_config(tmp_path, doc)
    code = main(["plan", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "start" in err


def test_planner_errors_are_one_error_line(tmp_path, capsys):
    # The fixed field buries the start, so the planner itself refuses the
    # query: plan and bench at every --jobs report it alike and write nothing.
    buried = {"kind": "inline", "bounds": [-15.0, 15.0, -15.0, 15.0],
              "obstacles": [{"kind": "circle", "center": [0.0, 0.0], "radius": 3.0}],
              "query": {"start": [0.0, 0.0], "target": [10.0, 0.0]}}
    cfg = write_config(tmp_path, {"environment": buried, "trials": 2})
    out = tmp_path / "run"
    lines = []
    for argv in (["plan"], ["bench", "--jobs", "1"], ["bench", "--jobs", "2"]):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        lines.append(capsys.readouterr().err)
    assert lines[0].startswith("error:") and lines[0].count("\n") == 1
    assert lines == [lines[0]] * 3
    assert not out.exists()


def test_nan_clearance_bench_exits_two(tmp_path, capsys):
    # NaN slipped past `clearance < 0`, so fields could bury an endpoint;
    # those trials were written as infeasible rows and bench exited 0.
    cfg = write_config(tmp_path, {
        "environment": {"kind": "random", "clearance": float("nan")},
        "query": {"start": [20.0, -15.0], "target": [-25.0, 15.0]}})
    out = tmp_path / "x"
    assert main(["bench", "--config", cfg, "--out", str(out), "--trials", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "results.csv").exists()


def test_a_file_path_that_is_not_a_string_exits_two(tmp_path, capsys, monkeypatch):
    # A file named 7 in the working directory was loaded as the environment.
    monkeypatch.chdir(tmp_path)
    save_environment(tmp_path / "7", Environment(Bounds(-5.0, 5.0, -5.0, 5.0)),
                     Query(Point2(0.0, 0.0), Point2(1.0, 1.0)))
    for path in (7, True, ""):
        cfg = write_config(tmp_path, {"environment": {"kind": "file", "path": path}})
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "path" in err
    assert not (tmp_path / "x").exists()


def test_a_swarm_too_large_to_build_is_one_error_line(tmp_path, capsys):
    # It died with numpy's "Unable to allocate 71.1 PiB" traceback and exit 1.
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "pso": {"population": 10**15}})
    out = tmp_path / "x"
    assert main(["plan", "--config", cfg, "--planner", "pso", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pso: population * n_waypoints must be <= 1,000,000, got ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_missing_config_exits_two(tmp_path, capsys):
    code = main(["plan", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_a_config_that_is_a_directory_is_one_error_line(tmp_path, capsys):
    # It died with an IsADirectoryError traceback and exit 1.
    out = tmp_path / "x"
    assert main(["plan", "--config", str(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_bounds_too_wide_for_a_float_are_one_error_line(tmp_path, capsys):
    # Every check passed, then both planners died with an OverflowError
    # traceback from the sampler: the width 2e308 is not a float.
    doc = {"environment": dict(EMPTY_INLINE, bounds=[-1e308, 1e308, -40.0, 40.0])}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "x"
    for planner in ("rrtstar", "pso"):
        assert main(["plan", "--planner", planner, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "bounds" in err
    assert not out.exists()


def test_huge_integer_config_value_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "rrtstar": {"step_size": 10**400}})
    assert main(["plan", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "step_size" in err


def test_integer_above_maxsize_exits_two(tmp_path, capsys):
    # numpy cannot take a count this large: the run died with an
    # OverflowError traceback and exit 1.
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "pso": {"n_waypoints": 10**20, "max_iterations": 3}})
    assert main(["plan", "--planner", "pso", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_waypoints must be <=" in err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE, "budget": 9})
    assert main(["plan", "--config", cfg]) == 2
    assert "budget" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def seed_of(out_dir):
    return json.loads((out_dir / "result.json").read_text(encoding="utf-8"))["seed"]


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "pso": FAST_PSO, "base_seed": 7})
    base = ["plan", "--config", cfg, "--planner", "pso"]

    out = tmp_path / "from-config"
    assert main(base + ["--out", str(out)]) == 0
    assert seed_of(out) == 7

    monkeypatch.setenv(SEED_ENV_VAR, "11")
    out = tmp_path / "from-env"
    assert main(base + ["--out", str(out)]) == 0
    assert seed_of(out) == 11

    out = tmp_path / "from-flag"
    assert main(base + ["--out", str(out), "--seed", "13"]) == 0
    assert seed_of(out) == 13


def test_non_integer_seed_env_var_exits_two(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE, "pso": FAST_PSO})
    monkeypatch.setenv(SEED_ENV_VAR, "lucky")
    assert main(["plan", "--config", cfg, "--planner", "pso",
                 "--out", str(tmp_path / "run")]) == 2
    assert SEED_ENV_VAR in capsys.readouterr().err


@pytest.mark.parametrize("doc, env_value, flags, name", [
    ({"environment": EMPTY_INLINE}, None, ["--seed", "-1"], "--seed"),
    ({"environment": EMPTY_INLINE}, "-3", [], SEED_ENV_VAR),
    ({"environment": EMPTY_INLINE, "base_seed": -2}, None, [], "base_seed"),
    ({"environment": {"kind": "random", "seed": -4},
      "query": {"start": [20.0, -15.0], "target": [-25.0, 15.0]}},
     None, [], "environment.seed"),
], ids=["flag", "env-var", "base_seed", "environment.seed"])
def test_negative_seed_exits_two(tmp_path, monkeypatch, capsys, doc, env_value,
                                 flags, name):
    if env_value is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env_value)
    cfg = write_config(tmp_path, {**doc, "pso": FAST_PSO})
    assert main(["plan", "--config", cfg, "--planner", "pso",
                 "--out", str(tmp_path / "run")] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert name in err and ">= 0" in err


@pytest.mark.parametrize("argv, env_value, name", [
    (["plan", "--planner", "pso", "--seed", "99999999999999999999999"], None, "--seed"),
    (["table1"], "99999999999999999999999", SEED_ENV_VAR),
    (["table1", "--seed", str(sys.maxsize - 8)], None, "--seed"),
    (["bench", "--planner", "pso", "--trials", "2", "--seed", str(sys.maxsize)],
     None, "--seed"),
], ids=["plan", "table1-env-var", "table1-last-case", "bench-last-trial"])
def test_a_seed_above_maxsize_exits_two_before_any_plan(tmp_path, monkeypatch, capsys,
                                                       argv, env_value, name):
    # Each ended in a ValueError traceback with exit 1, bench and table1
    # after planning with the seeds still in range.
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan ran for a refused seed")

    monkeypatch.setattr("pathbench.cli.plan_once", no_plan)
    monkeypatch.setattr("pathbench.benchmark.plan_once", no_plan)
    if env_value is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env_value)
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{name} must be <=" in err
    assert not out.exists()


def test_bench_writes_results_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "pso": FAST_PSO,
                                  "rrtstar": {"iterations_num": 150},
                                  "trials": 3})
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 3  # header, both planners, three trials
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"rrtstar", "pso"}
    assert summary["pso"]["n_trials"] == 3
    assert "median" in summary["pso"]["time"]
    stdout = capsys.readouterr().out
    assert "rrtstar:" in stdout and "pso:" in stdout


def test_bench_single_planner_and_trial_flag(tmp_path):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "pso": FAST_PSO, "trials": 5})
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--out", str(out),
                 "--planner", "pso", "--trials", "2"]) == 0
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert all(ln.startswith("pso,") for ln in lines[1:])


def test_bench_random_env_needs_a_query(tmp_path, capsys):
    cfg = write_config(tmp_path, {"environment": {"kind": "random", "seed": 1}})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "query" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--trials", "--jobs"])
def test_bench_rejects_a_non_positive_count(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "x"),
                 flag, "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flag in err


def test_bench_rejects_a_random_field_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "environment": {"kind": "random", "seed": 2},
        "query": {"start": [20.0, -15.0], "target": [-25.0, 15.0]}})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "environment.seed" in capsys.readouterr().err


def test_plan_draws_a_random_field_from_its_seed(tmp_path):
    doc = {"environment": {"kind": "random", "seed": 5},
           "query": {"start": [20.0, -15.0], "target": [-25.0, 15.0]},
           "rrtstar": {"iterations_num": 50}}
    out = tmp_path / "run"
    main(["plan", "--config", write_config(tmp_path, doc), "--out", str(out),
          "--seed", "1"])
    field = RandomEnvFactory(query=FIELD_QUERY)(5)

    def circles(svg):
        return [ln for ln in svg.splitlines() if "<circle " in ln]
    drawn = circles((out / "plan.svg").read_text(encoding="utf-8"))
    assert drawn and drawn == circles(environment_svg(field, query=FIELD_QUERY))


def test_table1_runs_the_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, {"rrtstar": {"iterations_num": 60},
                                  "pso": FAST_PSO})
    out = tmp_path / "t1"
    assert main(["table1", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "table1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "case_id,planner,start_x,start_y,target_x,target_y,feasible,length"
    assert len(lines) == 21
    assert lines[1].startswith("1,rrtstar,12.000000,-35.000000")
    stdout = capsys.readouterr().out
    assert "case  1 rrtstar" in stdout
    assert "case 10 pso" in stdout


def test_table1_rejects_random_environments(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "environment": {"kind": "random", "seed": 2},
        "query": {"start": [20.0, -15.0], "target": [-25.0, 15.0]}})
    assert main(["table1", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "fixed environment" in capsys.readouterr().err


def test_render_environment_file(tmp_path, capsys):
    env = Environment(Bounds(-15.0, 15.0, -15.0, 15.0),
                      (Circle(Point2(3.0, 3.0), 2.0),))
    query = Query(Point2(0.0, 0.0), Point2(10.0, 0.0))
    env_path = tmp_path / "env.json"
    save_environment(env_path, env, query)

    results = tmp_path / "plan.json"
    results.write_text(json.dumps({"path": [[0.0, 0.0], [5.0, 6.0], [10.0, 0.0]]}),
                       encoding="utf-8")
    out = tmp_path / "render"
    assert main(["render", str(env_path), "--results", str(results),
                 "--out", str(out)]) == 0
    svg = (out / "render.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline ") == 1
    assert svg.count("<circle ") == 1
    assert str(out / "render.svg") in capsys.readouterr().out

    out2 = tmp_path / "render2"
    assert main(["render", str(env_path), "--results", str(results),
                 "--out", str(out2)]) == 0
    assert (out / "render.svg").read_bytes() == (out2 / "render.svg").read_bytes()


def test_render_rejects_malformed_results(tmp_path, capsys):
    env = Environment(Bounds(-5.0, 5.0, -5.0, 5.0), ())
    env_path = tmp_path / "env.json"
    save_environment(env_path, env)
    results = tmp_path / "bad.json"
    results.write_text(json.dumps([{"note": "no path key"}]), encoding="utf-8")
    assert main(["render", str(env_path), "--results", str(results),
                 "--out", str(tmp_path / "x")]) == 2
    assert "path" in capsys.readouterr().err


# Only null means "no path"; the falsy values after "not a path" drew nothing.
@pytest.mark.parametrize("path", [[[1.0], [2.0, 3.0]], [[0.0, True]],
                                  [["1", "2"]], "not a path", 0, False, {}, ""],
                         ids=["short-point", "boolean", "strings", "not-a-list",
                              "zero", "false", "empty-object", "empty-string"])
def test_render_rejects_malformed_path_points(tmp_path, capsys, path):
    env_path = tmp_path / "env.json"
    save_environment(env_path, Environment(Bounds(-5.0, 5.0, -5.0, 5.0), ()))
    results = tmp_path / "bad.json"
    results.write_text(json.dumps({"path": path}), encoding="utf-8")
    assert main(["render", str(env_path), "--results", str(results),
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


# json.load reads these three constants: a NaN path point was drawn as
# "nan" into the SVG, and the command exited 0.
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_files_refuse_non_finite_constants(tmp_path, capsys, constant):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc).replace("123.5", constant), encoding="utf-8")
        return str(path)

    env = {"bounds": [0.0, 10.0, 0.0, 10.0], "obstacles": [],
           "query": {"start": [1.0, 1.0], "target": [9.0, 9.0]}}
    good_env = write("good.json", env)
    env["query"]["start"] = [123.5, 1.0]
    bad_env = write("env.json", env)
    config = write("config.json", {"environment": EMPTY_INLINE, "rrtstar": {"step_size": 123.5}})
    results = write("results.json", {"path": [[1.0, 1.0], [123.5, 5.0], [9.0, 9.0]]})
    out = tmp_path / "out"
    for argv, bad in ((["render", bad_env], bad_env), (["plan", "--config", config], config),
                      (["render", good_env, "--results", results], results)):
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON ({constant} ")
    assert not out.exists()


def test_default_out_comes_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"environment": EMPTY_INLINE,
                                  "pso": FAST_PSO, "out": "my-results"})
    assert main(["plan", "--config", cfg, "--planner", "pso"]) == 0
    assert (tmp_path / "my-results" / "result.json").exists()


def test_table1_rejects_a_config_query(tmp_path, capsys):
    # The suite runs its own ten queries; a config query was ignored and
    # table1 exited 0.
    cfg = write_config(tmp_path, {"query": {"start": [100, 0], "target": [0, 0]}})
    out = tmp_path / "t1"
    assert main(["table1", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "query" in err
    assert not (out / "table1.csv").exists()


def test_table1_allows_a_query_inside_an_environment_document(tmp_path):
    env, query = irregular_preset("irregular-a")
    save_environment(tmp_path / "maze.json", env, query)
    cfg = write_config(tmp_path, {
        "environment": {"kind": "file", "path": str(tmp_path / "maze.json")},
        "rrtstar": {"iterations_num": 60}, "pso": FAST_PSO})
    out = tmp_path / "t1"
    assert main(["table1", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "table1.csv").exists()


def test_bench_rejects_a_huge_obstacle_count_promptly(tmp_path, capsys):
    # Generation used to run until a timeout killed it.
    cfg = write_config(tmp_path, {
        "environment": {"kind": "random", "n_obstacles": 10**12},
        "query": {"start": [20.0, -15.0], "target": [-25.0, 15.0]}})
    out = tmp_path / "x"
    t0 = time.perf_counter()
    assert main(["bench", "--planner", "pso", "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_obstacles" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["plan", "render"])
def test_invalid_json_is_one_error_line_naming_the_file(tmp_path, capsys, command):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    if command == "plan":
        argv = ["plan", "--config", str(broken)]
    else:
        env_path = tmp_path / "env.json"
        save_environment(env_path, Environment(Bounds(-5.0, 5.0, -5.0, 5.0), ()))
        argv = ["render", str(env_path), "--results", str(broken)]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(broken) in err


def test_a_config_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    # It died with a UnicodeDecodeError traceback and exit 1.
    broken = tmp_path / "latin1.json"
    broken.write_bytes(b"\xff{}")
    assert main(["plan", "--config", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(broken) in err
