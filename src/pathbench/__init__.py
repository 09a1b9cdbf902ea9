"""Seeded 2D path-planning benchmarks: RRT* against particle swarms.

The package plans collision-free paths through rectangular worlds of
circular and polygonal obstacles, with two planners behind a common
result type, a trial harness with an independent grid oracle, and a
small CLI (``pathbench plan|bench|table1|render``).

Everything that draws random numbers takes an integer seed and is
reproducible bit-for-bit from it.
"""

from .benchmark import (FIELD_QUERY, FIELD_SEEDS, TABLE1_CASES, TIME_HISTOGRAM_BIN,
                        CaseRow, RandomEnvFactory, TrialStats, audit_path,
                        grid_oracle, plan_once, read_results_csv,
                        result_record, run_trials, summarize, table1_suite,
                        write_results_csv, write_summary, write_table1_csv)
from .environment import (DEFAULT_BOUNDS, Environment, Query, environment_from_dict,
                          environment_to_dict, generate_random_env, irregular_preset,
                          load_environment, preset_names, save_environment,
                          validate_query)
from .errors import (EnvironmentGenerationError, FormatError,
                     InvalidObstacleError, InvalidPathError,
                     InvalidQueryError, InvalidStateError, PathbenchError,
                     PresetLookupError)
from .geometry import (Bounds, Circle, CollisionField, Point2, Polygon,
                       dist, edge_free, path_length, point_free, point_in_polygon,
                       segment_circle_collides, segment_polygon_collides,
                       segments_intersect)
from .pso import PsoParams, PsoRun, plan_pso
from .render import environment_svg
from .result import PlanResult
from .rrtstar import RrtParams, RrtStarRun, RrtTree, plan_rrt_star

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "Point2", "Bounds", "Circle", "Polygon", "dist", "path_length",
    "segments_intersect", "point_in_polygon",
    "segment_circle_collides", "segment_polygon_collides", "point_free",
    "edge_free", "CollisionField",
    # environment
    "DEFAULT_BOUNDS", "Environment", "Query", "validate_query",
    "generate_random_env", "environment_to_dict", "environment_from_dict",
    "save_environment", "load_environment", "irregular_preset", "preset_names",
    # planners
    "RrtParams", "RrtTree", "RrtStarRun", "plan_rrt_star",
    "PsoParams", "PsoRun", "plan_pso", "PlanResult",
    # benchmarks and records
    "TABLE1_CASES", "FIELD_QUERY", "FIELD_SEEDS", "TIME_HISTOGRAM_BIN", "CaseRow", "TrialStats",
    "RandomEnvFactory", "plan_once", "run_trials", "table1_suite",
    "grid_oracle", "summarize", "audit_path", "result_record",
    "write_results_csv", "read_results_csv", "write_table1_csv",
    "write_summary",
    # rendering
    "environment_svg",
    # errors
    "PathbenchError", "InvalidObstacleError", "InvalidPathError",
    "InvalidQueryError", "FormatError", "EnvironmentGenerationError",
    "InvalidStateError", "PresetLookupError",
]
