"""Command-line interface: plan, bench, table1, and render.

Exit codes: 0 on success (for `plan`, a feasible path), 1 when `plan`
finishes without a feasible path, 2 for configuration or input errors,
a file that cannot be read or written included.
A planner error in `plan` or `bench`, such as a query that the
environment buries, is an `error:` line with exit 2, never a row.

A scenario config is a JSON object; every field is optional::

    {
      "environment": {"kind": "preset", "name": "irregular-a"}
                   | {"kind": "file", "path": "env.json"}
                   | {"kind": "inline", "bounds": ..., "obstacles": ..., "query": ...}
                   | {"kind": "random", "n_obstacles": 12, "radius_range": [2.0, 6.0],
                      "bounds": [...], "clearance": 1.0},
      "query": {"start": [x, y], "target": [x, y]},
      "rrtstar": {"iterations_num": 2000, "step_size": 2.0, ...},
      "pso": {"max_iterations": 2000, "population": 50, ...},
      "trials": 50,
      "base_seed": 0,
      "out": "output"
    }

The planner keys and `--planner` choices are `benchmark._PLANNERS`'s ids,
and `plan` runs the table's first planner unless `--planner` names one.
Unknown keys anywhere are an error. Every command plans from one seed:
--seed, or else the config's base_seed. Every seed is an integer from 0
to sys.maxsize, the last of `bench` (seed + trials - 1) and `table1`
(seed + 9) included.

`parse_config` resolves the environment and query while it parses: a
preset or file is loaded and an inline document is built (each falls
back to its own query when the config gives none), and kind "random"
becomes a RandomEnvFactory, whose fields but `query` (defaults above)
are its keys, and which needs the config's query. `plan` draws a random
field from its seed and `bench` each trial's field from that trial's
seed; `table1` rejects kind "random" and a config `query` (it runs its
own ten). `n_obstacles` is at most 10,000.

Every JSON file written is strict JSON: an infeasible run's `result.json`
has `"length": null` and `"path": null`, and `render --results` skips it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .benchmark import (_PLANNERS, TABLE1_CASES, EnvSource, PlannerParams, TrialStats,
                        plan_grid, plan_once, result_record, summarize, table1_suite,
                        write_results_csv, write_summary, write_table1_csv)
from .environment import (Query, RandomEnvFactory, _object, environment_from_dict,
                          irregular_preset, load_environment, query_from_dict, read_json,
                          write_json)
from .errors import FormatError, PathbenchError, PresetLookupError
from .geometry import _plain_point, check_integer
from .render import environment_svg

@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed config: the environment and query are already resolved.

    `environment` is an Environment, or for kind "random" a
    RandomEnvFactory that builds one per seed; `params` maps each planner
    id to its parameter record, in table order.
    """

    environment: EnvSource
    query: Query
    params: dict[str, PlannerParams]
    trials: int = 50
    base_seed: int = 0
    out: str = "output"


def _parse_environment(doc, query: Optional[Query]):
    """Return (environment, query); the config's query wins."""
    kind = _object(doc, "environment", doc, ("kind",))["kind"]
    if kind == "random":
        fields = {f.name for f in dataclasses.fields(RandomEnvFactory)} - {"query"}
        _object(doc, "environment", {"kind", *fields})
        if query is None:
            raise FormatError("a random environment needs an explicit query")
        # RandomEnvFactory holds the defaults and checks the fields given.
        given = {k: v for k, v in doc.items() if k != "kind"}
        return RandomEnvFactory(query=query, **given), query
    if kind == "preset":
        name = _object(doc, "environment", ("kind", "name")).get("name", "irregular-a")
        try:
            env, own_query = irregular_preset(name)
        except PresetLookupError as exc:
            raise FormatError(str(exc)) from None
        source = f"preset {name}"
    elif kind == "file":
        source = _object(doc, "environment", ("kind", "path")).get("path")
        if not (isinstance(source, str) and source):
            raise FormatError(f"environment.path must be a non-empty string, got {source!r}")
        env, own_query = load_environment(source)
    elif kind == "inline":
        env, own_query = environment_from_dict({k: v for k, v in doc.items() if k != "kind"})
        source = "inline environment"
    else:
        raise FormatError(f"unknown environment kind {kind!r}")
    query = query or own_query
    if query is None:
        raise FormatError(f"{source} has no query and the config gives none")
    return env, query


def _parse_params(doc, defaults, where: str):
    _object(doc, where, {f.name for f in dataclasses.fields(defaults)} - {"rng_seed"})
    # The parameter records check their own field types and ranges.
    try:
        return dataclasses.replace(defaults, **doc)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def parse_config(doc: dict) -> ScenarioConfig:
    _object(doc, "config", ("environment", "query", *_PLANNERS, "trials", "base_seed", "out"))
    query = query_from_dict(doc["query"]) if "query" in doc else None
    environment, query = _parse_environment(
        doc.get("environment", {"kind": "preset"}), query)
    params = {planner: _parse_params(doc.get(planner, {}), run.params_type(), planner)
              for planner, run in _PLANNERS.items()}
    trials = check_integer("trials", doc.get("trials", 50), 1, error=FormatError)
    # numpy's generators take non-negative seeds only.
    base_seed = check_integer("base_seed", doc.get("base_seed", 0), 0, error=FormatError)
    out = doc.get("out", "output")
    if not isinstance(out, str):
        raise FormatError(f"out must be a string, got {out!r}")
    return ScenarioConfig(environment=environment, query=query, params=params,
                          trials=trials, base_seed=base_seed, out=out)


def load_config(path) -> ScenarioConfig:
    return parse_config(read_json(path))


def _effective_seed(cfg: ScenarioConfig, flag_seed: Optional[int], runs: int = 1) -> int:
    """The first of the `runs` consecutive seeds a command plans with."""
    seed, where = (cfg.base_seed, "base_seed") if flag_seed is None else (flag_seed, "--seed")
    return check_integer(where, seed, 0, sys.maxsize - runs + 1, FormatError)


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _write_svg(path: str, env, query: Query, paths) -> str:
    # Rendered before the file is opened, so a render that fails leaves the file as it was.
    svg = environment_svg(env, query=query, paths=paths)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return path


def cmd_plan(args) -> int:
    cfg = load_config(args.config) if args.config else parse_config({})
    seed = _effective_seed(cfg, args.seed)
    env, query = cfg.environment, cfg.query
    if isinstance(env, RandomEnvFactory):
        env = env(seed)
    planner = args.planner
    result = plan_once(env, query, planner, cfg.params[planner], seed)
    out = _ensure_out(args.out or cfg.out)
    record = result_record(result)
    write_results_csv(os.path.join(out, "result.csv"), [record])
    path = [[p.x, p.y] for p in result.path] if result.path else None
    write_json(os.path.join(out, "result.json"),
               {**record, "length": result.length if path else None,
                "path": path, "params": result.params})
    _write_svg(os.path.join(out, "plan.svg"), env, query, [result.path] if path else [])
    if result.feasible:
        print(f"{planner}: feasible, length {result.length:.4f} "
              f"({result.iterations_used} iterations, {result.elapsed:.2f}s)")
        return 0
    print(f"{planner}: no feasible path (closest approach "
          f"{result.closest_approach:.4f}, {result.elapsed:.2f}s)")
    return 1


def cmd_bench(args) -> int:
    cfg = load_config(args.config) if args.config else parse_config({})
    trials = args.trials if args.trials is not None else cfg.trials
    for flag, value in (("--trials", trials), ("--jobs", args.jobs)):
        check_integer(flag, value, 1, error=FormatError)
    seed = _effective_seed(cfg, args.seed, trials)
    planners = [args.planner] if args.planner else list(cfg.params)
    # Every planner's trials are one grid, so --jobs starts one pool per run.
    results = plan_grid([(cfg.environment, cfg.query, planner, cfg.params[planner], seed + i)
                         for planner in planners for i in range(trials)], args.jobs)
    records, report = [], {}
    for k, planner in enumerate(planners):
        stats = TrialStats(tuple(results[k * trials:(k + 1) * trials]))
        records.extend(result_record(r) for r in stats.results)
        report[planner] = summarize(stats)
        feas = f"{stats.n_feasible}/{stats.n_trials}"
        print(f"{planner}: {feas} feasible, mean length {stats.mean_length:.4f}, "
              f"median time {stats.median_time:.2f}s")
    out = _ensure_out(args.out or cfg.out)
    write_results_csv(os.path.join(out, "results.csv"), records)
    write_summary(os.path.join(out, "summary.json"), report)
    return 0


def cmd_table1(args) -> int:
    doc = read_json(args.config) if args.config else {}
    cfg = parse_config(doc)
    seed = _effective_seed(cfg, args.seed, len(TABLE1_CASES))
    if isinstance(cfg.environment, RandomEnvFactory):
        raise FormatError("the ten-case suite needs a fixed environment, not 'random'")
    if "query" in doc:
        raise FormatError("the ten-case suite runs its own queries; remove the config's 'query'")
    rows = table1_suite(env=cfg.environment, specs=list(cfg.params.items()), seed=seed)
    out = _ensure_out(args.out or cfg.out)
    write_table1_csv(os.path.join(out, "table1.csv"), rows)
    for row in rows:
        length = f"{row.length:.4f}" if row.feasible else "-"
        print(f"case {row.case_id:2d} {row.planner_id:8s} "
              f"feasible={'yes' if row.feasible else 'no':3s} length={length}")
    return 0


def cmd_render(args) -> int:
    env, query = load_environment(args.env)
    paths = []
    if args.results:
        doc = read_json(args.results)
        entries = doc if isinstance(doc, list) else [doc]
        for entry in entries:
            path = _object(entry, f"{args.results}: result record", entry, ("path",))["path"]
            if path is not None and not isinstance(path, list):
                raise FormatError(f"{args.results}: a path must be a list of "
                                  f"[x, y] points or null, got {path!r}")
            if path:
                paths.append([_plain_point(p, f"{args.results}: path point", FormatError)
                              for p in path])
    out = _ensure_out(args.out or "output")
    print(_write_svg(os.path.join(out, "render.svg"), env, query, paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathbench",
        description="2D path planning benchmarks: tree search vs particle swarm.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, planner_help=None):
        p.add_argument("--config", help="scenario config (JSON)")
        p.add_argument("--seed", type=int, help="override the base seed")
        p.add_argument("--out", help="output directory")
        if planner_help:
            p.add_argument("--planner", choices=list(_PLANNERS), help=planner_help)

    p_plan = sub.add_parser("plan", help="run one planner on one query")
    common(p_plan, "the planner to run (default %(default)s)")
    p_plan.set_defaults(func=cmd_plan, planner=next(iter(_PLANNERS)))

    p_bench = sub.add_parser("bench", help="run seeded trial batches")
    common(p_bench, "restrict to one planner (default: every planner)")
    p_bench.add_argument("--trials", type=int, help="number of trials per planner")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes, at most one per trial "
                              "and one per CPU (default 1)")
    p_bench.set_defaults(func=cmd_bench)

    p_t1 = sub.add_parser("table1", help="run the built-in ten-case suite")
    common(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_render = sub.add_parser("render", help="draw an environment file as SVG")
    p_render.add_argument("env", help="environment JSON file")
    p_render.add_argument("--results", help="plan result JSON to overlay")
    p_render.add_argument("--out", help="output directory")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PathbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
