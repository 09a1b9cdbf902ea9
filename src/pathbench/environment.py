"""Workspace construction: bounds, obstacles, queries, random fields, presets, and files.

An environment document (a file on disk, or a preset in `presets/`)
is JSON with exactly these fields::

    {
      "bounds": [x_min, x_max, y_min, y_max],
      "obstacles": [
        {"kind": "circle", "center": [x, y], "radius": r},
        {"kind": "polygon", "vertices": [[x, y], ...]}
      ],
      "query": {"start": [x, y], "target": [x, y]}   // optional
    }

Unknown fields are rejected rather than ignored. JSON files are read by
`read_json` and written by `write_json`, as strict JSON: no NaN or Infinity
either way. `Circle`, `Polygon`, `Query` and `Environment` check the values
in a document, and each error is a FormatError that names the obstacle
("obstacle i: ...") and, from `load_environment`, the file.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from importlib import resources
from typing import Optional

import numpy as np

from .errors import (EnvironmentGenerationError, FormatError,
                     InvalidObstacleError, InvalidQueryError, PresetLookupError)
from .geometry import (Bounds, Circle, CollisionField, Obstacle, Point2, Polygon,
                       _plain_point, check_integer, check_real, dist,
                       point_free, point_in_polygon, segments_intersect)

#: Workspace used by the default generator and the shipped presets.
DEFAULT_BOUNDS = Bounds(-40.0, 40.0, -40.0, 20.0)

#: Rejection-sampling budget per obstacle before generation gives up.
MAX_PLACEMENT_ATTEMPTS = 10_000

#: Largest obstacle count a random field may ask for.
MAX_OBSTACLES = 10_000


def _check_bounds(bounds) -> Bounds:
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 4:
        raise FormatError(f"bounds must be [x_min, x_max, y_min, y_max], got {bounds!r}")
    b = Bounds(*(check_real("bounds", v, FormatError) for v in bounds))
    # Samplers draw low + (high - low) * u, and RRT*'s scans square the
    # differences of coordinates, which overflow to inf or underflow to 0
    # unless the squared diagonal is a finite normal float.
    diagonal2 = b.width * b.width + b.height * b.height
    if not (math.isfinite(diagonal2) and diagonal2 >= sys.float_info.min):
        raise FormatError("width**2 + height**2 of bounds must be a finite normal float, "
                          f"got {diagonal2!r} from {bounds!r}")
    if not (b.x_min < b.x_max and b.y_min < b.y_max):
        raise FormatError(f"bounds must satisfy min < max, got {bounds!r}")
    return b


def _obstacle_touches_rect(obs: Obstacle, b: Bounds) -> bool:
    if isinstance(obs, Circle):
        cx = min(max(obs.center.x, b.x_min), b.x_max)
        cy = min(max(obs.center.y, b.y_min), b.y_max)
        return dist((cx, cy), obs.center) <= obs.radius
    # The closed test, so a polygon that only touches the bounds is kept. With
    # no vertex inside and no edge meeting theirs, the bounds lie wholly
    # inside the polygon or wholly outside, and one corner tells which.
    corners = [(b.x_min, b.y_min), (b.x_max, b.y_min),
               (b.x_max, b.y_max), (b.x_min, b.y_max)]
    vs = obs.vertices
    return (any(b.contains(v) for v in vs)
            or point_in_polygon(corners[0], vs)
            or any(segments_intersect(c, d, v, w)
                   for c, d in zip(corners, corners[1:] + corners[:1])
                   for v, w in zip(vs, vs[1:] + vs[:1])))


@dataclass(frozen=True)
class Environment:
    """Static 2D workspace: rectangular bounds plus a tuple of obstacles,
    each a Circle or Polygon that meets the bounds (else InvalidObstacleError)."""

    bounds: Bounds
    obstacles: tuple[Obstacle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bounds", _check_bounds(self.bounds))
        try:
            object.__setattr__(self, "obstacles", tuple(self.obstacles))
        except TypeError:
            raise InvalidObstacleError(
                f"obstacles must be an iterable, got {self.obstacles!r}") from None
        for i, obs in enumerate(self.obstacles):
            if not isinstance(obs, Obstacle):
                raise InvalidObstacleError(f"obstacle {i} is not a Circle or Polygon: {obs!r}")
            if not _obstacle_touches_rect(obs, self.bounds):
                raise InvalidObstacleError(f"obstacle {i}: {type(obs).__name__.lower()} "
                                           "lies entirely outside the bounds")

    @cached_property
    def collision_field(self) -> CollisionField:
        """The collision tests over these obstacles, built on first use."""
        return CollisionField(self)


@dataclass(frozen=True)
class Query:
    """A planning request: free start point to free target point."""

    start: Point2
    target: Point2

    def __post_init__(self):
        object.__setattr__(self, "start",
                           _plain_point(self.start, "query start", InvalidQueryError))
        object.__setattr__(self, "target",
                           _plain_point(self.target, "query target", InvalidQueryError))


def validate_query(env: Environment, query: Query) -> None:
    """Raise InvalidQueryError unless both query endpoints are in free space.

    The message gives one reason per offending endpoint, joined by "; ".
    """
    reasons = []
    for name, p in (("start", query.start), ("target", query.target)):
        if not env.bounds.contains(p):
            reasons.append(f"{name} {tuple(p)} outside bounds")
        elif not point_free(p, env):
            reasons.append(f"{name} {tuple(p)} inside an obstacle")
    if reasons:
        raise InvalidQueryError("; ".join(reasons))


@dataclass(frozen=True)
class RandomEnvFactory:
    """Picklable seed -> Environment callable that rejection-samples circular
    obstacles keeping the query endpoints clear; `query` may be None.

    Identical fields and seed always produce the identical environment (the
    generator is a seeded PCG64 stream, consumed in a fixed order: center
    x, center y, radius per attempt). Obstacles are accepted when neither
    query endpoint lies within `clearance` of the inflated disk. Raises
    FormatError naming the first bad field on construction, or a bad seed
    (an integer in [0, sys.maxsize]) on a call; EnvironmentGenerationError
    when an obstacle cannot be placed within MAX_PLACEMENT_ATTEMPTS
    attempts; and InvalidQueryError for a query `validate_query` refuses on
    the drawn field, so every field returned passes it for its query.
    """

    query: Optional[Query]
    n_obstacles: int = 12
    bounds: Bounds = DEFAULT_BOUNDS
    radius_range: tuple[float, float] = (2.0, 6.0)
    clearance: float = 1.0

    def __post_init__(self):
        store = partial(object.__setattr__, self)
        store("n_obstacles", check_integer("n_obstacles", self.n_obstacles, 0, MAX_OBSTACLES,
                                           FormatError))
        store("bounds", _check_bounds(self.bounds))
        rr = self.radius_range
        if not (isinstance(rr, (list, tuple)) and len(rr) == 2):
            raise FormatError(f"radius_range must be [lo, hi], got {rr!r}")
        lo, hi = (check_real("radius_range", v, FormatError) for v in rr)
        if not 0 < lo <= hi:
            raise FormatError(f"radius_range must satisfy 0 < lo <= hi, got {rr!r}")
        store("radius_range", (lo, hi))
        store("clearance", check_real("clearance", self.clearance, FormatError, at_least=0))

    def __call__(self, seed: int) -> Environment:
        rng = np.random.default_rng(check_integer("seed", seed, 0, error=FormatError))
        b, (r_lo, r_hi), query = self.bounds, self.radius_range, self.query
        obstacles: list[Obstacle] = []
        for _ in range(self.n_obstacles):
            for attempt in range(MAX_PLACEMENT_ATTEMPTS):
                cx = float(rng.uniform(b.x_min, b.x_max))
                cy = float(rng.uniform(b.y_min, b.y_max))
                r = float(rng.uniform(r_lo, r_hi))
                if query is not None:
                    keep_out = r + self.clearance
                    if dist((cx, cy), query.start) < keep_out:
                        continue
                    if dist((cx, cy), query.target) < keep_out:
                        continue
                obstacles.append(Circle(Point2(cx, cy), r))
                break
            else:
                raise EnvironmentGenerationError(
                    f"could not place obstacle {len(obstacles) + 1} of {self.n_obstacles} "
                    f"after {MAX_PLACEMENT_ATTEMPTS} attempts")
        env = Environment(b, tuple(obstacles))
        if query is not None:
            validate_query(env, query)
        return env


def generate_random_env(seed: int,
                        n_obstacles: int = 12,
                        bounds: Bounds = DEFAULT_BOUNDS,
                        radius_range: tuple[float, float] = (2.0, 6.0),
                        query: Optional[Query] = None,
                        clearance: float = 1.0) -> Environment:
    """The field that `RandomEnvFactory` with these arguments draws for `seed`."""
    return RandomEnvFactory(query, n_obstacles, bounds, radius_range, clearance)(seed)


def environment_to_dict(env: Environment, query: Optional[Query] = None) -> dict:
    """Serialize to the documented environment-document shape."""
    obstacles = []
    for obs in env.obstacles:
        if isinstance(obs, Circle):
            obstacles.append({"kind": "circle",
                              "center": [obs.center.x, obs.center.y],
                              "radius": obs.radius})
        else:
            obstacles.append({"kind": "polygon",
                              "vertices": [[v.x, v.y] for v in obs.vertices]})
    doc = {"bounds": list(env.bounds), "obstacles": obstacles}
    if query is not None:
        doc["query"] = {"start": [query.start.x, query.start.y],
                        "target": [query.target.x, query.target.y]}
    return doc


def _object(doc, where: str, allowed, required=()) -> dict:
    """Return `doc` if it is an object with no field outside `allowed` and all of `required`.

    An object whose fields depend on its kind passes itself as `allowed` to read the kind.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise FormatError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = [name for name in required if name not in doc]
    if missing:
        raise FormatError(f"{where} is missing field(s) {missing}")
    return doc


def query_from_dict(doc) -> Query:
    """Parse a {"start": [x, y], "target": [x, y]} query object."""
    doc = _object(doc, "query", ("start", "target"), ("start", "target"))
    try:
        return Query(doc["start"], doc["target"])
    except InvalidQueryError as exc:
        raise FormatError(str(exc)) from None


def environment_from_dict(doc: dict) -> tuple[Environment, Optional[Query]]:
    """Parse an environment document; unknown fields are an error."""
    _object(doc, "environment document", ("bounds", "obstacles", "query"), ("bounds",))
    entries = doc.get("obstacles", [])
    if not isinstance(entries, (list, tuple)):
        raise FormatError(f"obstacles must be a list, got {entries!r}")

    obstacles: list[Obstacle] = []
    for i, entry in enumerate(entries):
        where = f"obstacle {i}"
        kind = _object(entry, where, entry, ("kind",))["kind"]
        try:
            if kind == "circle":
                _object(entry, where, ("kind", "center", "radius"), ("center", "radius"))
                obstacles.append(Circle(entry["center"], entry["radius"]))
            elif kind == "polygon":
                verts = _object(entry, where, ("kind", "vertices"), ("vertices",))["vertices"]
                if not isinstance(verts, list):
                    raise FormatError(f"{where} needs a 'vertices' list")
                obstacles.append(Polygon(verts))
            else:
                raise FormatError(f"{where} has unknown kind {kind!r}")
        except InvalidObstacleError as exc:
            raise FormatError(f"{where}: {exc}") from None
    try:  # the one obstacle error left names its obstacle already
        env = Environment(doc["bounds"], tuple(obstacles))
    except InvalidObstacleError as exc:
        raise FormatError(str(exc)) from None
    return env, query_from_dict(doc["query"]) if "query" in doc else None


def save_environment(path, env: Environment, query: Optional[Query] = None) -> None:
    write_json(path, environment_to_dict(env, query))


def read_json(path):
    """The document in the JSON file at `path`; invalid JSON is a FormatError.

    So are NaN, Infinity and -Infinity, which `json.load` would accept.
    """
    def refuse(constant):
        raise FormatError(f"{path}: not valid JSON ({constant} is not a JSON number)")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=refuse)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from None


def _write_text(path, text: str) -> None:
    """Write `text`, built whole by the caller, to `path` as UTF-8 with Unix line
    ends on every platform: the one place pathbench opens a file to write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_json(path, doc) -> None:
    """Write `doc` to `path` as strict JSON: NaN and infinities are a
    ValueError, raised before the file is opened."""
    _write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def load_environment(path) -> tuple[Environment, Optional[Query]]:
    doc = read_json(path)
    try:
        return environment_from_dict(doc)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def preset_names() -> tuple[str, ...]:
    shipped = (resources.files("pathbench") / "presets").iterdir()
    return tuple(sorted(f.name[:-len(".json")] for f in shipped if f.name.endswith(".json")))


def irregular_preset(name: str) -> tuple[Environment, Query]:
    """Load a shipped scenario by name.

    "empty" is an obstacle-free workspace; "irregular-a" is a fixed wall
    maze whose two offset gaps force an S-shaped route between the default
    start and target. Raises PresetLookupError for a name not in preset_names().
    """
    if name not in preset_names():
        raise PresetLookupError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return load_environment(resources.files("pathbench") / "presets" / f"{name}.json")
