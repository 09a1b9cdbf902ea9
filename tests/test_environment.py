"""Environment generation, presets, validation, and the file format."""

import ast
import hashlib
import json
import math
import pickle
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import pathbench
from pathbench import environment
from pathbench.benchmark import FIELD_QUERY
from pathbench.cli import main
from pathbench.environment import (DEFAULT_BOUNDS, MAX_OBSTACLES, Environment,
                                   Query, RandomEnvFactory, environment_from_dict,
                                   environment_to_dict, generate_random_env, irregular_preset,
                                   load_environment, preset_names,
                                   save_environment, validate_query, write_json)
from pathbench.errors import (EnvironmentGenerationError, FormatError,
                              InvalidObstacleError, InvalidQueryError,
                              PresetLookupError)
from pathbench.geometry import (Bounds, Circle, Point2, Polygon, dist,
                                edge_free, point_free,
                                segment_polygon_collides)

# The shipped maze is a versioned constant; geometry changes must be
# deliberate and show up here.
IRREGULAR_A_SHA256 = "4e1dd1ec2685bda741b12756d0c61e804868aefefed38c2413cadf75d6a303d7"


def test_generator_empty():
    env = generate_random_env(1, n_obstacles=0)
    assert env.obstacles == ()
    assert env.bounds == DEFAULT_BOUNDS


def test_generator_postconditions():
    env = generate_random_env(42, n_obstacles=12, radius_range=(2, 6),
                              query=FIELD_QUERY, clearance=1.0)
    assert len(env.obstacles) == 12
    for obs in env.obstacles:
        assert isinstance(obs, Circle)
        assert 2.0 <= obs.radius <= 6.0
        assert env.bounds.contains(obs.center)
        # Clearance: neither endpoint within radius + 1 of the center.
        assert dist(obs.center, FIELD_QUERY.start) >= obs.radius + 1.0
        assert dist(obs.center, FIELD_QUERY.target) >= obs.radius + 1.0
    assert point_free(FIELD_QUERY.start, env)
    assert point_free(FIELD_QUERY.target, env)


def test_generator_determinism():
    a = generate_random_env(7, query=FIELD_QUERY)
    b = generate_random_env(7, query=FIELD_QUERY)
    assert a == b
    c = generate_random_env(8, query=FIELD_QUERY)
    assert a != c


def test_generator_gives_up_when_there_is_no_room():
    # Radii bigger than the whole box while a query pins both endpoints:
    # every placement attempt violates the clearance and the budget runs out.
    tiny = Bounds(0.0, 4.0, 0.0, 4.0)
    q = Query(Point2(1.0, 1.0), Point2(3.0, 3.0))
    with pytest.raises(EnvironmentGenerationError):
        generate_random_env(0, n_obstacles=1, bounds=tiny,
                            radius_range=(50.0, 60.0), query=q)


def test_generator_argument_validation():
    with pytest.raises(FormatError):
        generate_random_env(0, radius_range=(0.0, 2.0))
    with pytest.raises(FormatError):
        generate_random_env(0, radius_range=(3.0, 2.0))
    with pytest.raises(FormatError):
        generate_random_env(0, n_obstacles=-1)
    with pytest.raises(FormatError):
        generate_random_env(0, clearance=-0.1)
    with pytest.raises(InvalidQueryError):
        generate_random_env(0, query=Query(Point2(500, 0), Point2(0, 0)))


@pytest.mark.parametrize("bad", [
    {"n_obstacles": 2.5}, {"n_obstacles": "3"}, {"n_obstacles": True},
    {"bounds": (-40.0, "40", -40.0, 20.0)}, {"radius_range": (2.0,)},
    {"clearance": math.nan}, {"clearance": math.inf},
    {"n_obstacles": 10**12}, {"n_obstacles": MAX_OBSTACLES + 1},
])
def test_random_field_arguments_are_checked_once(bad):
    # The generator and the factory share one check; the factory runs it
    # at construction, before any trial.
    with pytest.raises(FormatError):
        generate_random_env(0, query=FIELD_QUERY, **bad)
    with pytest.raises(FormatError):
        RandomEnvFactory(FIELD_QUERY, **bad)


def test_random_env_factory_stores_normalised_fields():
    factory = RandomEnvFactory(FIELD_QUERY, n_obstacles=np.int64(3),
                               bounds=[-40, 40, -40, 20], radius_range=[2, 6],
                               clearance=1)
    assert factory == RandomEnvFactory(FIELD_QUERY, n_obstacles=3)
    assert type(factory.bounds) is Bounds
    assert type(factory.radius_range) is tuple
    assert type(factory.clearance) is float


def test_random_env_factory_checks_its_fields_once(monkeypatch):
    # Building the factory checks its bounds; each field it draws checks them
    # once more, in the Environment it returns, and not the factory's fields.
    calls, check = [], environment._check_bounds
    monkeypatch.setattr(environment, "_check_bounds", lambda b: calls.append(b) or check(b))
    for query in (None, FIELD_QUERY):
        fields = dict(query=query, n_obstacles=3, radius_range=(1.0, 3.0), clearance=0.5)
        calls.clear()
        factory = RandomEnvFactory(**fields)
        assert len(calls) == 1
        drawn = [factory(s) for s in range(3)]
        assert len(calls) == 1 + 3
        assert [generate_random_env(s, **fields) for s in range(3)] == drawn
        assert [pickle.loads(pickle.dumps(factory))(s) for s in range(3)] == drawn


def test_environment_rejects_outside_obstacles():
    with pytest.raises(InvalidObstacleError):
        Environment(Bounds(0, 10, 0, 10), (Circle(Point2(50, 50), 2.0),))
    # Touching the border rectangle is enough to be kept.
    Environment(Bounds(0, 10, 0, 10), (Circle(Point2(11, 5), 2.0),))


BOX_0_10 = Bounds(0.0, 10.0, 0.0, 10.0)


@pytest.mark.parametrize("vertices, kept", [
    (((20, 20), (22, 20), (22, 22), (20, 22)), False),
    # Its box overlaps the bounds; its outline passes just outside (10, 10).
    (((8.5, 12), (12, 8.5), (12, 12)), False),
    (((-5, -5), (15, -5), (15, 15), (-5, 15)), True),
    (((-5, 4), (15, 4), (15, 6), (-5, 6)), True),
    (((10, 10), (12, 11), (11, 12)), True),
    (((8, 12), (12, 8), (12, 12)), True),
    (((5, 5), (15, 4), (15, 6)), True),
], ids=["wholly-outside", "diagonal-miss", "contains-the-bounds", "crossing-bar",
        "vertex-on-a-corner", "edge-through-a-corner", "one-vertex-inside"])
def test_environment_keeps_polygons_that_touch_the_bounds(vertices, kept):
    polygon = Polygon(tuple(Point2(*v) for v in vertices))
    if kept:
        assert Environment(BOX_0_10, (polygon,)).obstacles == (polygon,)
    else:
        with pytest.raises(InvalidObstacleError):
            Environment(BOX_0_10, (polygon,))


def test_collision_field_is_built_once_per_environment():
    env = Environment(BOX_0_10, (Circle(Point2(5, 5), 1.0),))
    field = env.collision_field
    assert point_free((0, 0), env) and not point_free((5, 5), env)
    assert env.collision_field is field


def test_preset_names():
    # The presets are the shipped documents, each with its own query.
    shipped = resources.files("pathbench").joinpath("presets").iterdir()
    assert preset_names() == ("empty", "irregular-a")
    assert sorted(f.name for f in shipped) == [f"{name}.json" for name in preset_names()]
    for name in preset_names():
        env, query = irregular_preset(name)
        assert env.bounds == DEFAULT_BOUNDS and isinstance(query, Query)
        validate_query(env, query)
    assert irregular_preset("empty") == (Environment(DEFAULT_BOUNDS, ()),
                                         Query(Point2(12.0, -35.0), Point2(-15.0, 10.0)))
    # A name is looked up, never made into a path, so no other file is reachable.
    for name in ("nope", "../presets/empty", "irregular-a.json", None):
        with pytest.raises(PresetLookupError) as refused:
            irregular_preset(name)
        assert str(refused.value) == f"unknown preset {name!r}; available: empty, irregular-a"


def test_empty_preset():
    env, query = irregular_preset("empty")
    assert env.obstacles == ()
    assert validate_query(env, query) is None


def test_irregular_preset_shape():
    env, query = irregular_preset("irregular-a")
    assert query == Query(Point2(12.0, -35.0), Point2(-15.0, 10.0))
    assert env.bounds == Bounds(-40.0, 40.0, -40.0, 20.0)
    assert len(env.obstacles) == 4
    assert all(isinstance(o, Polygon) for o in env.obstacles)
    assert point_free(query.start, env)
    assert point_free(query.target, env)


def test_irregular_preset_blocks_the_straight_line():
    env, query = irregular_preset("irregular-a")
    hits = [segment_polygon_collides((query.start, query.target), obs.vertices)
            for obs in env.obstacles]
    assert any(hits)
    assert not edge_free(query.start, query.target, env)


def test_irregular_preset_polygons_are_concave():
    env, _ = irregular_preset("irregular-a")
    for obs in env.obstacles:
        vs = obs.vertices
        n = len(vs)
        cross = []
        for i in range(n):
            a, b, c = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
            cross.append((b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x))
        assert any(v > 0 for v in cross) and any(v < 0 for v in cross)


def test_irregular_preset_file_is_pinned():
    data = resources.files("pathbench").joinpath("presets/irregular-a.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == IRREGULAR_A_SHA256


def test_validate_query():
    env, _ = irregular_preset("empty")
    assert validate_query(env, Query(Point2(0, 0), Point2(1, 1))) is None

    blocked = generate_random_env(0, n_obstacles=0)
    blocked = Environment(blocked.bounds, (Circle(Point2(0, 0), 3.0),))
    with pytest.raises(InvalidQueryError) as report:
        validate_query(blocked, Query(Point2(0, 0), Point2(10, 10)))
    assert str(report.value) == "start (0.0, 0.0) inside an obstacle"

    with pytest.raises(InvalidQueryError) as report:
        validate_query(blocked, Query(Point2(10, 10), Point2(99, 0)))
    assert str(report.value) == "target (99.0, 0.0) outside bounds"


def test_file_round_trip(tmp_path):
    env = generate_random_env(5, query=FIELD_QUERY)
    env = Environment(env.bounds, env.obstacles + (
        Polygon((Point2(-30, 10), Point2(-28, 10), Point2(-28, 14), Point2(-30, 14))),))
    target = tmp_path / "env.json"
    save_environment(target, env, FIELD_QUERY)
    loaded, loaded_query = load_environment(target)
    assert loaded == env
    assert loaded_query == FIELD_QUERY


def test_save_without_query(tmp_path):
    env = generate_random_env(5, n_obstacles=3)
    target = tmp_path / "env.json"
    save_environment(target, env)
    loaded, loaded_query = load_environment(target)
    assert loaded == env
    assert loaded_query is None


def test_dict_round_trip_is_stable():
    env, query = irregular_preset("irregular-a")
    doc = environment_to_dict(env, query)
    env2, query2 = environment_from_dict(doc)
    assert env2 == env and query2 == query
    assert environment_to_dict(env2, query2) == doc


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d["obstacles"][0].update(color="red"),
    lambda d: d["query"].update(weight=2),
])
def test_unknown_fields_are_rejected(mutate):
    env, query = irregular_preset("irregular-a")
    doc = environment_to_dict(env, query)
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    with pytest.raises(FormatError):
        environment_from_dict(doc)


def test_malformed_documents():
    with pytest.raises(FormatError):
        environment_from_dict({"obstacles": []})  # missing bounds
    with pytest.raises(FormatError):
        environment_from_dict({"bounds": [0, 1, 0]})
    with pytest.raises(FormatError):
        environment_from_dict({"bounds": [1, 0, 0, 1]})  # min >= max
    with pytest.raises(FormatError):
        environment_from_dict({"bounds": [0, 1, -1e308, 1e308]})  # height overflows
    with pytest.raises(FormatError):
        environment_from_dict({"bounds": [0, 1, 0, 1],
                               "obstacles": [{"kind": "blob"}]})
    with pytest.raises(FormatError):
        environment_from_dict({"bounds": [0, 1, 0, 1],
                               "obstacles": [{"kind": "circle", "center": [0, 0]}]})
    with pytest.raises(FormatError):
        environment_from_dict({"bounds": [0, 1, 0, 1], "query": {"start": [0, 0]}})
    for obstacles in (5, None):  # each was a TypeError
        with pytest.raises(FormatError):
            environment_from_dict({"bounds": [0, 1, 0, 1], "obstacles": obstacles})
    for entry, message in [(5, "obstacle 0 must be an object, got int"),
                           ({"kind": "polygon", "vertices": "0,0 1,0 1,1"},
                            "obstacle 0 needs a 'vertices' list"),
                           ({"kind": "polygon", "vertices": {"0": [0, 0]}},
                            "obstacle 0 needs a 'vertices' list")]:
        with pytest.raises(FormatError, match=f"^{message}$"):
            environment_from_dict({"bounds": [0, 10, 0, 10], "obstacles": [entry]})


#: (obstacle 1 of a document, its type's message): each is refused by the type.
BAD_OBSTACLES = {
    "radius-0": ({"kind": "circle", "center": [5.0, 5.0], "radius": 0},
                 "circle radius must be > 0, got 0.0"),
    "radius-minus-1": ({"kind": "circle", "center": [5.0, 5.0], "radius": -1},
                       "circle radius must be > 0, got -1.0"),
    "two-vertices": ({"kind": "polygon", "vertices": [[1.0, 1.0], [2.0, 1.0]]},
                     "polygon needs at least 3 vertices"),
    "repeated-vertex": ({"kind": "polygon",
                         "vertices": [[1.0, 1.0], [2.0, 1.0], [2.0, 1.0], [1.0, 2.0]]},
                        "degenerate polygon: repeated consecutive vertex (2.0, 1.0)"),
    "bowtie": ({"kind": "polygon", "vertices": [[1.0, 1.0], [2.0, 2.0], [2.0, 1.0], [1.0, 2.0]]},
               "polygon is self-intersecting"),
    "outside": ({"kind": "circle", "center": [50.0, 50.0], "radius": 1.0},
                "circle lies entirely outside the bounds"),
    "bad-centre": ({"kind": "circle", "center": [5.0, "5"], "radius": 1.0},
                   "circle center must be a finite number, got '5'"),
    "bad-vertex": ({"kind": "polygon", "vertices": [[1.0, 1.0], [2.0], [1.0, 2.0]]},
                   "polygon vertex must be a [x, y] pair, got [2.0]"),
}


@pytest.mark.parametrize("entry, message", BAD_OBSTACLES.values(), ids=BAD_OBSTACLES)
def test_a_bad_obstacle_is_a_format_error_naming_the_obstacle_and_file(
        tmp_path, capsys, entry, message):
    doc = {"bounds": [0.0, 10.0, 0.0, 10.0],
           "obstacles": [{"kind": "circle", "center": [5.0, 5.0], "radius": 1.0}, entry]}
    path = tmp_path / "env.json"
    write_json(path, doc)
    for load, source, where in ((environment_from_dict, doc, ""),
                                (load_environment, path, f"{path}: ")):
        with pytest.raises(FormatError) as refused:
            load(source)
        assert refused.type is FormatError
        assert str(refused.value) == f"{where}obstacle 1: {message}"
    assert main(["render", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: obstacle 1: {message}\n"


@pytest.mark.parametrize("bounds, valid", [
    # Every squared distance overflowed to inf, or underflowed to 0, so
    # RRT*'s nearest-node scan always answered the root.
    ((-1e200, 1e200, -1e200, 1e200), False),
    ((-1e-200, 1e-200, -1e-200, 1e-200), False),
    ((-1e154, 1e154, 0.0, 1.0), False),  # width**2 alone overflows
    ((0.0, 1e-155, 0.0, 1e-155), False),  # a subnormal squared diagonal
    ((-4e153, 4e153, -4e153, 4e153), True),
    ((0.0, 1e-150, 0.0, 1e-150), True),
], ids=["wide", "narrow", "wide-x", "subnormal", "widest", "narrowest"])
def test_bounds_keep_the_squared_diagonal_finite_and_normal(bounds, valid):
    for make in (lambda: Environment(Bounds(*bounds)),
                 lambda: environment_from_dict({"bounds": list(bounds)})[0],
                 lambda: generate_random_env(0, 0, bounds=bounds)):
        if valid:
            assert make().bounds == Bounds(*bounds)
        else:
            with pytest.raises(FormatError, match="must be a finite normal float"):
                make()


def test_boolean_coordinates_are_rejected():
    # JSON true is an int to Python; a coordinate must be a real number.
    with pytest.raises(FormatError):
        environment_from_dict({"bounds": [0, 1, 0, 1],
                               "query": {"start": [True, 0], "target": [1, 1]}})
    with pytest.raises(FormatError):
        environment_from_dict({"bounds": [0, 1, 0, 1],
                               "obstacles": [{"kind": "circle", "center": [0.5, False],
                                              "radius": 0.1}]})


def test_non_numeric_bounds_and_radius_are_rejected():
    for bounds in ([True, 5, 0, 1], [0, "5", 0, 1], [0, 1, None, 1]):
        with pytest.raises(FormatError):
            environment_from_dict({"bounds": bounds})
    for radius in (True, "0.2", None):
        with pytest.raises(FormatError):
            environment_from_dict({"bounds": [0, 1, 0, 1],
                                   "obstacles": [{"kind": "circle", "center": [0.5, 0.5],
                                                  "radius": radius}]})
    # An integer too large for a float is not a number either.
    huge = 10**400
    for doc in ({"bounds": [0, huge, 0, 1]},
                {"bounds": [0, 1, 0, 1],
                 "obstacles": [{"kind": "circle", "center": [0.5, 0.5], "radius": huge}]},
                {"bounds": [0, 1, 0, 1],
                 "obstacles": [{"kind": "circle", "center": [-huge, 0.5], "radius": 0.1}]},
                {"bounds": [0, 1, 0, 1], "query": {"start": [0, 0], "target": [huge, 1]}}):
        with pytest.raises(FormatError):
            environment_from_dict(json.loads(json.dumps(doc)))
    env, _ = environment_from_dict({"bounds": [0, 5, 0, 1.5],
                                    "obstacles": [{"kind": "circle", "center": [1, 1],
                                                   "radius": 1}]})
    assert env.bounds == Bounds(0.0, 5.0, 0.0, 1.5)
    assert type(env.obstacles[0].radius) is float


def test_load_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_environment(bad)


def test_write_json_leaves_the_file_as_it_was_when_it_refuses(tmp_path):
    # It used to open the file first, and a NaN left it empty.
    target = tmp_path / "doc.json"
    write_json(target, {"a": 1.0})
    before = target.read_bytes()
    with pytest.raises(ValueError):
        write_json(target, {"a": float("nan")})
    assert target.read_bytes() == before


def test_each_file_format_has_one_reader_and_one_writer():
    # A second JSON writer is how result.json came to hold a bare NaN. Only
    # these functions may call the json and csv codecs.
    owners = {"read_json", "write_json", "_write_csv"}
    codecs = {"json": {"dump", "dumps", "load", "loads"}, "csv": {"writer"}}
    strays = []
    for source in sorted(Path(pathbench.__file__).parent.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        owned = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name in owners
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in codecs:
                strays.append(f"{source.name}:{node.lineno}: from {node.module} import")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and node.func.attr in codecs.get(node.func.value.id, ())
                  and id(node) not in owned):
                strays.append(f"{source.name}:{node.lineno}: "
                              f"{node.func.value.id}.{node.func.attr}")
    assert strays == []
