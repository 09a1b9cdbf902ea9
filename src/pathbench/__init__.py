"""Seeded 2D path-planning benchmarks: RRT* against particle swarms.

The package plans collision-free paths through rectangular worlds of
circular and polygonal obstacles, with two planners behind a common
result type, a trial harness with an independent grid oracle, and a
small CLI (``pathbench plan|bench|table1|render``).

Everything that draws random numbers takes an integer seed and is
reproducible bit-for-bit from it.

``import pathbench`` loads each public name's module the first time the
name is used (PEP 562), so a caller who only plans never loads the trial
harness or the renderer.
"""

import importlib

__version__ = "0.1.0"

#: Every public name, under the module that defines it.
_PUBLIC = {
    "geometry": ("Point2", "Bounds", "Circle", "Polygon", "dist", "path_length",
                 "segments_intersect", "point_in_polygon", "segment_circle_collides",
                 "segment_polygon_collides", "point_free", "edge_free", "audit_path",
                 "CollisionField"),
    "environment": ("DEFAULT_BOUNDS", "Environment", "Query", "validate_query",
                    "generate_random_env", "RandomEnvFactory", "environment_to_dict",
                    "environment_from_dict", "save_environment", "load_environment",
                    "irregular_preset", "preset_names"),
    "rrtstar": ("RrtParams", "RrtTree", "RrtStarRun", "plan_rrt_star"),
    "pso": ("PsoParams", "PsoRun", "plan_pso"),
    "result": ("PlanResult",),
    "benchmark": ("TABLE1_CASES", "FIELD_QUERY", "FIELD_SEEDS",
                  "CaseRow", "TrialStats", "plan_once", "plan_grid", "run_trials",
                  "table1_suite", "grid_oracle", "summarize", "result_record",
                  "write_results_csv", "read_results_csv", "write_table1_csv",
                  "write_summary"),
    "render": ("environment_svg",),
    "errors": ("PathbenchError", "InvalidObstacleError", "InvalidPathError",
               "InvalidQueryError", "FormatError", "EnvironmentGenerationError",
               "InvalidStateError", "PresetLookupError"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import a submodule, or a public name from its module, on first use."""
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return [*__all__, *_PUBLIC]
