"""Command-line interface: plan, bench, table1, and render.

Exit codes: 0 on success (for `plan`, a feasible path), 1 when `plan`
finishes without a feasible path, 2 for configuration or input errors.

A scenario config is a JSON object; every field is optional::

    {
      "environment": {"kind": "preset", "name": "irregular-a"}
                   | {"kind": "file", "path": "env.json"}
                   | {"kind": "inline", "bounds": ..., "obstacles": ..., "query": ...}
                   | {"kind": "random", "seed": 7, "n_obstacles": 12,
                      "radius_range": [2.0, 6.0], "bounds": [...], "clearance": 1.0},
      "query": {"start": [x, y], "target": [x, y]},
      "rrtstar": {"iterations_num": 2000, "step_size": 2.0, ...},
      "pso": {"max_iterations": 2000, "population": 50, ...},
      "trials": 50,
      "base_seed": 0,
      "out": "output"
    }

Unknown keys anywhere are an error. The seed precedence is config
base_seed, then the PATHBENCH_SEED environment variable, then --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .benchmark import (RandomEnvFactory, plan_once, result_record,
                        run_trials, summarize, table1_suite,
                        write_results_csv, write_summary, write_table1_csv)
from .environment import (DEFAULT_BOUNDS, Environment, Query,
                          _reject_unknown, environment_from_dict,
                          environment_to_dict, irregular_preset,
                          load_environment, preset_names, validate_query)
from .errors import FormatError, InvalidQueryError, PathbenchError
from .geometry import Bounds, Point2
from .pso import PsoParams
from .render import environment_svg
from .result import PlanResult
from .rrtstar import RrtParams

SEED_ENV_VAR = "PATHBENCH_SEED"


@dataclass(frozen=True)
class EnvSpec:
    kind: str  # "preset" | "file" | "inline" | "random"
    name: str = "irregular-a"
    path: str = ""
    inline_env: Optional[Environment] = None
    inline_query: Optional[Query] = None
    seed: Optional[int] = None
    n_obstacles: int = 12
    radius_range: tuple[float, float] = (2.0, 6.0)
    bounds: Bounds = DEFAULT_BOUNDS
    clearance: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    env_spec: EnvSpec = EnvSpec(kind="preset")
    query: Optional[Query] = None
    rrtstar: RrtParams = RrtParams()
    pso: PsoParams = PsoParams()
    trials: int = 50
    base_seed: int = 0
    out: str = "output"


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def _as_num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where} must be a number, got {value!r}")
    return float(value)


def _parse_query(doc, where: str) -> Query:
    if not isinstance(doc, dict):
        raise FormatError(f"{where} must be an object")
    _reject_unknown(doc, {"start", "target"}, where)
    try:
        start, target = doc["start"], doc["target"]
    except KeyError as exc:
        raise FormatError(f"{where} is missing {exc}") from None
    for name, p in (("start", start), ("target", target)):
        if not (isinstance(p, list) and len(p) == 2):
            raise FormatError(f"{where}.{name} must be [x, y]")
    return Query(Point2(_as_num(start[0], where), _as_num(start[1], where)),
                 Point2(_as_num(target[0], where), _as_num(target[1], where)))


def _parse_env_spec(doc) -> EnvSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("environment must be an object with a 'kind'")
    kind = doc["kind"]
    if kind == "preset":
        _reject_unknown(doc, {"kind", "name"}, "environment")
        name = doc.get("name", "irregular-a")
        if name not in preset_names():
            raise FormatError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
        return EnvSpec(kind="preset", name=name)
    if kind == "file":
        _reject_unknown(doc, {"kind", "path"}, "environment")
        if not doc.get("path"):
            raise FormatError("environment kind 'file' needs a 'path'")
        return EnvSpec(kind="file", path=str(doc["path"]))
    if kind == "inline":
        body = {k: v for k, v in doc.items() if k != "kind"}
        env, query = environment_from_dict(body)
        return EnvSpec(kind="inline", inline_env=env, inline_query=query)
    if kind == "random":
        _reject_unknown(doc, {"kind", "seed", "n_obstacles", "radius_range",
                              "bounds", "clearance"}, "environment")
        seed = _as_int(doc["seed"], "environment.seed") if "seed" in doc else None
        n = _as_int(doc.get("n_obstacles", 12), "environment.n_obstacles")
        rr = doc.get("radius_range", [2.0, 6.0])
        if not (isinstance(rr, list) and len(rr) == 2):
            raise FormatError("environment.radius_range must be [lo, hi]")
        bounds_doc = doc.get("bounds", list(DEFAULT_BOUNDS))
        if not (isinstance(bounds_doc, list) and len(bounds_doc) == 4):
            raise FormatError("environment.bounds must be [x_min, x_max, y_min, y_max]")
        return EnvSpec(kind="random", seed=seed, n_obstacles=n,
                       radius_range=(_as_num(rr[0], "radius_range"),
                                     _as_num(rr[1], "radius_range")),
                       bounds=Bounds(*(_as_num(v, "bounds") for v in bounds_doc)),
                       clearance=_as_num(doc.get("clearance", 1.0), "environment.clearance"))
    raise FormatError(f"unknown environment kind {kind!r}")


def _parse_params(doc, defaults, where: str):
    if not isinstance(doc, dict):
        raise FormatError(f"{where} must be an object")
    fields = {f.name: f for f in dataclasses.fields(defaults)}
    allowed = set(fields) - {"rng_seed"}
    _reject_unknown(doc, allowed, where)
    kwargs = {}
    for key, value in doc.items():
        want = fields[key].type
        if want == "int":
            kwargs[key] = _as_int(value, f"{where}.{key}")
        else:
            kwargs[key] = _as_num(value, f"{where}.{key}")
    try:
        return dataclasses.replace(defaults, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def parse_config(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise FormatError("config must be a JSON object")
    _reject_unknown(doc, {"environment", "query", "rrtstar", "pso",
                          "trials", "base_seed", "out"}, "config")
    spec = _parse_env_spec(doc["environment"]) if "environment" in doc else EnvSpec(kind="preset")
    query = _parse_query(doc["query"], "query") if "query" in doc else None
    rrt = _parse_params(doc.get("rrtstar", {}), RrtParams(), "rrtstar")
    pso = _parse_params(doc.get("pso", {}), PsoParams(), "pso")
    trials = _as_int(doc.get("trials", 50), "trials")
    if trials < 1:
        raise FormatError(f"trials must be >= 1, got {trials}")
    base_seed = _as_int(doc.get("base_seed", 0), "base_seed")
    out = doc.get("out", "output")
    if not isinstance(out, str):
        raise FormatError(f"out must be a string, got {out!r}")
    return ScenarioConfig(env_spec=spec, query=query, rrtstar=rrt, pso=pso,
                          trials=trials, base_seed=base_seed, out=out)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Serialize a config to its canonical JSON object (full round-trip)."""
    spec = cfg.env_spec
    if spec.kind == "preset":
        env_doc: dict = {"kind": "preset", "name": spec.name}
    elif spec.kind == "file":
        env_doc = {"kind": "file", "path": spec.path}
    elif spec.kind == "inline":
        env_doc = {"kind": "inline",
                   **environment_to_dict(spec.inline_env, spec.inline_query)}
    else:
        env_doc = {"kind": "random", "n_obstacles": spec.n_obstacles,
                   "radius_range": list(spec.radius_range),
                   "bounds": list(spec.bounds), "clearance": spec.clearance}
        if spec.seed is not None:
            env_doc["seed"] = spec.seed
    doc: dict = {"environment": env_doc}
    if cfg.query is not None:
        doc["query"] = {"start": [cfg.query.start.x, cfg.query.start.y],
                        "target": [cfg.query.target.x, cfg.query.target.y]}
    rrt_doc = dataclasses.asdict(cfg.rrtstar)
    pso_doc = dataclasses.asdict(cfg.pso)
    rrt_doc.pop("rng_seed")
    pso_doc.pop("rng_seed")
    doc["rrtstar"] = rrt_doc
    doc["pso"] = pso_doc
    doc["trials"] = cfg.trials
    doc["base_seed"] = cfg.base_seed
    doc["out"] = cfg.out
    return doc


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from None
    return parse_config(doc)


def _effective_seed(cfg: ScenarioConfig, flag_seed: Optional[int]) -> int:
    seed = cfg.base_seed
    env_value = os.environ.get(SEED_ENV_VAR)
    if env_value is not None:
        try:
            seed = int(env_value)
        except ValueError:
            raise FormatError(f"{SEED_ENV_VAR} must be an integer, got {env_value!r}")
    if flag_seed is not None:
        seed = flag_seed
    return seed


def _resolve_environment(cfg: ScenarioConfig):
    """Return (env_source, query); env_source may be a per-seed factory."""
    spec = cfg.env_spec
    if spec.kind == "preset":
        env, preset_query = irregular_preset(spec.name)
        return env, cfg.query or preset_query
    if spec.kind == "file":
        env, file_query = load_environment(spec.path)
        query = cfg.query or file_query
        if query is None:
            raise FormatError(f"{spec.path} has no query and the config gives none")
        return env, query
    if spec.kind == "inline":
        query = cfg.query or spec.inline_query
        if query is None:
            raise FormatError("inline environment has no query and the config gives none")
        return spec.inline_env, query
    # random
    if cfg.query is None:
        raise FormatError("a random environment needs an explicit query")
    factory = RandomEnvFactory(query=cfg.query, n_obstacles=spec.n_obstacles,
                               bounds=spec.bounds, radius_range=spec.radius_range,
                               clearance=spec.clearance)
    return factory, cfg.query


def _plan_json(result: PlanResult) -> dict:
    return {
        "planner": result.planner_id,
        "seed": result.seed,
        "feasible": result.feasible,
        "length": result.length,
        "elapsed_s": result.elapsed,
        "iterations_used": result.iterations_used,
        "closest_approach": result.closest_approach,
        "path": [[p.x, p.y] for p in result.path] if result.path else None,
        "params": result.params,
    }


def _ensure_out(cfg: ScenarioConfig, flag_out: Optional[str]) -> str:
    out = flag_out or cfg.out
    os.makedirs(out, exist_ok=True)
    return out


def _check_query(env: Environment, query: Query) -> None:
    # A bad query is a configuration error (exit 2), not a failed plan.
    bad = validate_query(env, query)
    if bad:
        raise InvalidQueryError("; ".join(v.reason for v in bad))


def cmd_plan(args) -> int:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    seed = _effective_seed(cfg, args.seed)
    env_source, query = _resolve_environment(cfg)
    if callable(env_source):
        env = env_source(cfg.env_spec.seed if cfg.env_spec.seed is not None else seed)
    else:
        env = env_source
    _check_query(env, query)
    planner = args.planner or "rrtstar"
    result = plan_once(env, query, planner,
                       cfg.rrtstar if planner == "rrtstar" else cfg.pso, seed)
    out = _ensure_out(cfg, args.out)
    write_results_csv(os.path.join(out, "result.csv"), [result_record(result)])
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_plan_json(result), indent=2) + "\n")
    paths = [result.path] if result.path else []
    with open(os.path.join(out, "plan.svg"), "w", encoding="utf-8") as fh:
        fh.write(environment_svg(env, query=query, paths=paths))
    if result.feasible:
        print(f"{planner}: feasible, length {result.length:.4f} "
              f"({result.iterations_used} iterations, {result.elapsed:.2f}s)")
        return 0
    print(f"{planner}: no feasible path (closest approach "
          f"{result.closest_approach:.4f}, {result.elapsed:.2f}s)")
    return 1


def cmd_bench(args) -> int:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    seed = _effective_seed(cfg, args.seed)
    trials = args.trials if args.trials is not None else cfg.trials
    env_source, query = _resolve_environment(cfg)
    if not callable(env_source):
        _check_query(env_source, query)
    planners = [args.planner] if args.planner else ["rrtstar", "pso"]
    records = []
    report = {}
    for planner in planners:
        params = cfg.rrtstar if planner == "rrtstar" else cfg.pso
        stats = run_trials(env_source, query, planner, params, trials, seed,
                           jobs=args.jobs)
        records.extend(result_record(r) for r in stats.results)
        report[planner] = summarize(stats)
        feas = f"{stats.n_feasible}/{stats.n_trials}"
        print(f"{planner}: {feas} feasible, mean length {stats.mean_length:.4f}, "
              f"median time {stats.median_time:.2f}s")
    out = _ensure_out(cfg, args.out)
    write_results_csv(os.path.join(out, "results.csv"), records)
    write_summary(os.path.join(out, "summary.json"), report)
    return 0


def cmd_table1(args) -> int:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    seed = _effective_seed(cfg, args.seed)
    if cfg.env_spec.kind == "random":
        raise FormatError("the ten-case suite needs a fixed environment, not 'random'")
    env_source, _ = _resolve_environment(cfg)
    rows = table1_suite(env=env_source,
                        specs=[("rrtstar", cfg.rrtstar), ("pso", cfg.pso)],
                        seed=seed)
    out = _ensure_out(cfg, args.out)
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
        with open(args.results, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{args.results}: not valid JSON ({exc})") from None
        entries = doc if isinstance(doc, list) else [doc]
        for entry in entries:
            if not isinstance(entry, dict) or "path" not in entry:
                raise FormatError(f"{args.results}: expected result records with a 'path'")
            if entry["path"]:
                paths.append([(float(p[0]), float(p[1])) for p in entry["path"]])
    out = args.out or "output"
    os.makedirs(out, exist_ok=True)
    target = os.path.join(out, "render.svg")
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(environment_svg(env, query=query, paths=paths))
    print(target)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathbench",
        description="2D path planning benchmarks: tree search vs particle swarm.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, planner=True):
        p.add_argument("--config", help="scenario config (JSON)")
        p.add_argument("--seed", type=int, help="override the base seed")
        p.add_argument("--out", help="output directory")
        if planner:
            p.add_argument("--planner", choices=["rrtstar", "pso"],
                           help="restrict to one planner")

    p_plan = sub.add_parser("plan", help="run one planner on one query")
    common(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_bench = sub.add_parser("bench", help="run seeded trial batches")
    common(p_bench)
    p_bench.add_argument("--trials", type=int, help="number of trials per planner")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes (default 1)")
    p_bench.set_defaults(func=cmd_bench)

    p_t1 = sub.add_parser("table1", help="run the built-in ten-case suite")
    common(p_t1, planner=False)
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
    except PathbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
