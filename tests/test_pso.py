"""Swarm planner: encoding, fitness, update rules, and run behavior."""

import copy
import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathbench import pso
from pathbench.benchmark import FIELD_QUERY, audit_path
from pathbench.environment import (Environment, Query, generate_random_env,
                                   irregular_preset)
from pathbench.errors import InvalidPathError, InvalidQueryError
from pathbench.geometry import (Bounds, Circle, CollisionField, Point2, Polygon,
                                path_length)
from pathbench.pso import (PsoParams, PsoRun, decode, fitness, path_violation,
                           plan_pso, update_inertia)

EMPTY = Environment(Bounds(-40.0, 40.0, -40.0, 20.0), ())
Q_EAST = Query(Point2(0.0, 0.0), Point2(10.0, 0.0))


def update_velocity(velocity, position, pbest, gbest, omega, c1, c2, rng,
                    v_max):
    """Scalar oracle for one particle's velocity update in PsoRun.step."""
    r1 = rng.random()
    r2 = rng.random()
    v = omega * velocity + c1 * r1 * (pbest - position) + c2 * r2 * (gbest - position)
    return np.clip(v, -v_max, v_max)


def update_position(position, velocity, lo, hi):
    """Scalar oracle: apply the velocity, clamping every coordinate to the bounds."""
    return np.clip(position + velocity, lo, hi)


class StubRng:
    """Fixed-value stand-in for a Generator in single-update tests."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def uniform(self, lo, hi):
        return self.value


def test_params_validation():
    PsoParams()
    for bad in (dict(max_iterations=0), dict(population=0),
                dict(n_waypoints=0), dict(omega_start=0.3, omega_end=0.4),
                dict(v_max=0.0), dict(penalty_lambda=-1.0),
                dict(stop_epsilon=-1e-9), dict(stagnation_window=0),
                # Integer fields take integers only, not floats or bools.
                dict(max_iterations=2.5), dict(population=True),
                dict(n_waypoints=2.0), dict(stagnation_window=False),
                dict(rng_seed=1.5), dict(rng_seed=-1),
                # Real fields must be finite numbers.
                dict(c1=math.nan), dict(c2=math.inf), dict(penalty_lambda=math.nan),
                dict(stop_epsilon=math.nan), dict(v_max=math.inf),
                dict(omega_start=math.nan), dict(omega_end=-math.inf),
                dict(c1=True), dict(v_max="4"),
                # An integer too large for a float is not a number here.
                dict(v_max=10**400), dict(penalty_lambda=-10**400)):
        with pytest.raises(ValueError):
            PsoParams(**bad)
    # numpy integers are accepted and stored as int, so the snapshot in
    # a result stays JSON-serialisable.
    params = PsoParams(max_iterations=np.int64(7), rng_seed=np.uint32(3), c1=np.float64(1.5))
    assert type(params.max_iterations) is int and type(params.rng_seed) is int
    assert params.max_iterations == 7 and params.rng_seed == 3 and params.c1 == 1.5
    # Real fields are stored as float, so an int given for one is
    # snapshotted as 2.0 and not 2.
    assert type(params.c1) is float and type(PsoParams(c1=2).c1) is float


def test_params_reject_an_integer_above_maxsize():
    # numpy died on this size with "Maximum allowed dimension exceeded".
    with pytest.raises(ValueError, match=f"population must be <= {sys.maxsize}"):
        PsoParams(population=10**400)
    assert PsoParams(rng_seed=sys.maxsize).rng_seed == sys.maxsize


def test_params_cap_the_swarm_size():
    # Each of these died in numpy or in building the bounds rows, as a
    # MemoryError or "array is too big", not as a refused parameter.
    # Only records are built here: no swarm near the cap is run.
    assert pso.MAX_SWARM_WAYPOINTS == 1_000_000
    PsoParams(population=1000, n_waypoints=1000)
    PsoParams(population=1_000_000, n_waypoints=1)
    for bad in (dict(population=1001, n_waypoints=1000), dict(population=10**15),
                dict(population=sys.maxsize), dict(n_waypoints=2**62)):
        with pytest.raises(ValueError, match="population \\* n_waypoints must be <= 1,000,000"):
            PsoParams(**bad)


def test_decode():
    path = decode((1.0, 2.0, 3.0, 4.0), Q_EAST)
    assert path == (Point2(0, 0), Point2(1, 2), Point2(3, 4), Point2(10, 0))
    with pytest.raises(ValueError):
        decode((1.0, 2.0, 3.0), Q_EAST)
    with pytest.raises(ValueError):
        decode((), Q_EAST)


def _decoded(position):
    """decode's path on Q_EAST as its repr, or its ValueError's text."""
    try:
        return repr(decode(position, Q_EAST))
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("values", [
    [1.0, 2.0, 3.0, 4.0], [-0.0, 5e-324, -1e308, 1e308],
    [math.nan, 1.0], [1.0, 2.0, math.inf, math.nan], [-math.inf, 2.0],
    [1.0, 2.0, 3.0], [], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
    [[1.0], [2.0], [3.0]], [[1.0, 2.0], [3.0, -math.inf]],
], ids=["plain", "extremes", "nan", "inf-then-nan", "minus-inf", "odd", "empty",
        "2-d", "2-d-odd", "2-d-minus-inf"])
def test_decode_of_a_float64_array_is_that_of_its_list(values):
    # A float64 array takes one finiteness test in place of a check per
    # entry; the path, or the first bad entry's message, is the list's.
    array = np.array(values, dtype=np.float64)
    assert _decoded(array) == _decoded(values)
    assert _decoded(array.T) == _decoded(array.T.tolist())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=9))
def test_decode_of_any_float64_array_is_that_of_its_list(values):
    assert _decoded(np.array(values)) == _decoded(values)


def test_fitness_and_update_inertia_keep_the_params_ranges():
    # The number rule itself is in test_geometry's ENTRY_SLOTS table; these
    # are the ranges PsoParams also enforces.
    with pytest.raises(ValueError, match="penalty_lambda"):
        fitness((1.0, 0.0), Q_EAST, EMPTY, -5.0)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            update_inertia(0, budget, 0.9, 0.4, False, np.random.default_rng(0))


def test_fitness_worked_example():
    # One waypoint at the circle center: both legs cross the full disc,
    # so the blocked length is 10 and the penalty dominates.
    env = Environment(Bounds(-40, 40, -40, 20), (Circle(Point2(5.0, 0.0), 5.0),))
    assert fitness((5.0, 0.0), Q_EAST, env, 100.0) == pytest.approx(1010.0, abs=1e-9)
    # Lambda 0 reduces the same vector to plain length.
    assert fitness((5.0, 0.0), Q_EAST, env, 0.0) == pytest.approx(10.0, abs=1e-9)


def test_path_violation():
    # Radius 2 disc centered mid-route: the through-the-middle path is
    # blocked over x in (3, 7), 4 units, while a high detour clears it.
    env = Environment(Bounds(-40, 40, -40, 20), (Circle(Point2(5.0, 0.0), 2.0),))
    blocked = decode((5.0, 0.0), Q_EAST)
    assert path_violation(blocked, env) == pytest.approx(4.0, abs=1e-9)
    detour = decode((5.0, 8.0), Q_EAST)
    assert path_violation(detour, env) == 0.0


def test_path_violation_needs_two_waypoints():
    # As in path_length: no empty path, and no lone point inside the disk
    # read as 0.0.
    env = Environment(Bounds(-40, 40, -40, 20), (Circle(Point2(5.0, 0.0), 2.0),))
    for path in ([], [(5.0, 0.0)]):
        with pytest.raises(InvalidPathError, match="at least 2 waypoints"):
            path_violation(path, env)


def test_fitness_lambda_zero_matches_length():
    env = generate_random_env(3, query=Q_EAST)
    rng = np.random.default_rng(11)
    for _ in range(40):
        vec = rng.uniform(-20, 20, size=10)
        f = fitness(vec, Q_EAST, env, 0.0)
        assert f == pytest.approx(path_length(decode(vec, Q_EAST)), abs=1e-9)


def test_update_velocity_worked_example():
    v = update_velocity(np.array([1.0, 0.0]), np.array([0.0, 0.0]),
                        np.array([2.0, 2.0]), np.array([0.0, 4.0]),
                        0.5, 2.0, 2.0, StubRng(0.5), 10.0)
    assert v.tolist() == [2.5, 6.0]
    # The default clamp cuts the y component.
    v = update_velocity(np.array([1.0, 0.0]), np.array([0.0, 0.0]),
                        np.array([2.0, 2.0]), np.array([0.0, 4.0]),
                        0.5, 2.0, 2.0, StubRng(0.5), 4.0)
    assert v.tolist() == [2.5, 4.0]


def test_update_position_clamps_to_bounds():
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    p = update_position(np.array([0.5, 0.0]), np.array([2.0, -0.5]), lo, hi)
    assert p.tolist() == [1.0, -0.5]


def test_update_inertia_schedule():
    rng = np.random.default_rng(0)
    assert update_inertia(0, 2000, 0.9, 0.4, False, rng) == pytest.approx(0.9)
    assert update_inertia(2000, 2000, 0.9, 0.4, False, rng) == pytest.approx(0.4)
    assert update_inertia(1000, 2000, 0.9, 0.4, False, rng) == pytest.approx(0.65)


def test_update_inertia_stagnation_jolt():
    perturbed = update_inertia(1000, 2000, 0.9, 0.4, True, StubRng(0.07))
    assert perturbed == pytest.approx(0.72)
    # Clamped at both rails.
    assert update_inertia(0, 2000, 0.9, 0.4, True, StubRng(0.09)) == pytest.approx(0.9)
    assert update_inertia(2000, 2000, 0.9, 0.4, True, StubRng(-0.09)) == pytest.approx(0.4)


def test_the_run_takes_its_inertia_from_update_inertia(monkeypatch):
    calls = []

    def spy(iteration, *args):
        calls.append(iteration)
        return update_inertia(iteration, *args)

    monkeypatch.setattr(pso, "update_inertia", spy)
    result = plan_pso(EMPTY, Q_EAST, PsoParams(max_iterations=40))
    assert result.iterations_used > 0
    assert calls == list(range(result.iterations_used))


def test_anchor_particle_sits_on_the_straight_line():
    run = PsoRun(EMPTY, Q_EAST, PsoParams(n_waypoints=5, rng_seed=4))
    expected_x = [10 * k / 6 for k in range(1, 6)]
    assert run.positions[0, 0::2].tolist() == pytest.approx(expected_x)
    assert run.positions[0, 1::2].tolist() == pytest.approx([0.0] * 5)
    assert np.all(run.velocities == 0.0)


@pytest.mark.parametrize("bounds", [
    Bounds(-40.0, 40.0, -40.0, 20.0), Bounds(-1e150, 1e150, -1e150, 1e150),
    Bounds(1e150, 1.5e150, -3e150, -1e150),
], ids=["default", "wide-1e150", "offset-1e150"])
@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1])
def test_the_first_swarm_is_numpys_uniform_draw(bounds, seed):
    # Set-up draws the swarm in place by numpy's own uniform formula: the
    # same doubles, and the generator left where `uniform` leaves it.
    # Particle 0 is then moved onto the straight line.
    b = bounds
    query = Query(Point2(b.x_min, b.y_min), Point2(b.x_max, b.y_max))
    params = PsoParams(rng_seed=seed)
    run = PsoRun(Environment(b, ()), query, params)
    lo = np.tile((b.x_min, b.y_min), params.n_waypoints)
    hi = np.tile((b.x_max, b.y_max), params.n_waypoints)
    rng = np.random.default_rng(seed)
    want = rng.uniform(lo, hi, size=(params.population, 2 * params.n_waypoints))
    assert run.positions[1:].tobytes() == want[1:].tobytes()
    assert run.rng.bit_generator.state == rng.bit_generator.state
    assert run._lo.tobytes() == lo.tobytes() and run._hi.tobytes() == hi.tobytes()


def test_step_matches_per_particle_updates():
    # The swarm consumes the generator exactly as sequential per-particle
    # draws would, so one vectorized step must replay bit for bit.
    params = PsoParams(population=4, n_waypoints=2, rng_seed=123)
    env = generate_random_env(6, query=Q_EAST)
    run = PsoRun(env, Q_EAST, params)

    pos0 = run.positions.copy()
    vel0 = run.velocities.copy()
    pbest0 = run.pbest_positions.copy()
    gbest0 = run.gbest_position.copy()
    lo, hi = run._lo.copy(), run._hi.copy()

    replay = np.random.default_rng(123)
    replay.uniform(lo, hi, size=(4, 4))  # swarm init draw
    omega = update_inertia(0, params.max_iterations, params.omega_start,
                           params.omega_end, False, replay)
    expected_v = np.empty_like(vel0)
    expected_p = np.empty_like(pos0)
    for i in range(4):
        expected_v[i] = update_velocity(vel0[i], pos0[i], pbest0[i], gbest0,
                                        omega, params.c1, params.c2,
                                        replay, params.v_max)
        expected_p[i] = update_position(pos0[i], expected_v[i], lo, hi)

    run.step()
    assert np.array_equal(run.velocities, expected_v)
    assert np.array_equal(run.positions, expected_p)


def test_invariants_over_a_short_run():
    params = PsoParams(max_iterations=60, population=16, n_waypoints=3,
                       rng_seed=2)
    env = generate_random_env(9, query=Q_EAST)
    run = PsoRun(env, Q_EAST, params)
    last = run.gbest_fitness
    while not run.should_stop:
        run.step()
        assert run.gbest_fitness <= last + 1e-12
        last = run.gbest_fitness
        assert np.all(np.abs(run.velocities) <= params.v_max + 1e-12)
        assert np.all(run.positions[:, 0::2] >= env.bounds.x_min)
        assert np.all(run.positions[:, 0::2] <= env.bounds.x_max)
        assert np.all(run.positions[:, 1::2] >= env.bounds.y_min)
        assert np.all(run.positions[:, 1::2] <= env.bounds.y_max)


def test_early_stop_needs_a_full_flat_window():
    params = PsoParams(max_iterations=500, population=10, n_waypoints=2,
                       stagnation_window=12, rng_seed=8)
    env = generate_random_env(14, query=Q_EAST)
    run = PsoRun(env, Q_EAST, params)
    history = [run.gbest_fitness]
    while not run.should_stop:
        run.step()
        history.append(run.gbest_fitness)
    if run.stopped:
        deltas = [history[i - 1] - history[i] for i in range(1, len(history))]
        streak = 0
        stop_at = None
        for i, d in enumerate(deltas, start=1):
            streak = streak + 1 if d < params.stop_epsilon else 0
            if streak >= params.stagnation_window:
                stop_at = i
                break
        assert stop_at == run.iteration
        assert all(d < params.stop_epsilon
                   for d in deltas[stop_at - params.stagnation_window:stop_at])
    else:
        assert run.iteration == params.max_iterations


def test_empty_env_converges_to_the_straight_line():
    for seed in range(30):
        res = plan_pso(EMPTY, Q_EAST, PsoParams(rng_seed=seed))
        assert res.feasible, f"seed {seed}"
        assert 10.0 - 1e-9 <= res.length <= 10.5, f"seed {seed}: {res.length}"
        # The anchor makes the very first evaluation optimal, so the run
        # stops as soon as one stagnation window has elapsed.
        assert res.iterations_used == 30
        assert res.path[0] == Q_EAST.start and res.path[-1] == Q_EAST.target


def test_determinism():
    env = generate_random_env(33, query=Q_EAST)
    params = PsoParams(max_iterations=80, rng_seed=5)
    a = plan_pso(env, Q_EAST, params)
    b = plan_pso(env, Q_EAST, params)
    assert a.path == b.path
    assert a.length == b.length
    assert a.iterations_used == b.iterations_used


def test_feasible_result_is_audit_clean():
    env = generate_random_env(12, query=Q_EAST)
    res = plan_pso(env, Q_EAST, PsoParams(max_iterations=300, rng_seed=0))
    assert res.feasible
    assert audit_path(res.path, env)
    assert res.length == pytest.approx(path_length(res.path))
    assert len(res.path) == 7
    assert res.params["penalty_lambda"] == 1000.0


def test_infeasible_reports_blocked_length():
    # A wall spans the whole workspace height, so no path is clear.
    wall = Polygon((Point2(4.0, -41.0), Point2(6.0, -41.0),
                    Point2(6.0, 21.0), Point2(4.0, 21.0)))
    env = Environment(EMPTY.bounds, (wall,))
    run = PsoRun(env, Q_EAST, PsoParams(max_iterations=40, population=10,
                                        rng_seed=1))
    while not run.should_stop:
        run.step()
    res = run.result(0.0)
    assert not res.feasible and res.path is None
    assert res.closest_approach >= 2.0
    assert res.closest_approach == path_violation(
        decode(run.gbest_position, Q_EAST), env)


def test_a_generated_field_and_its_first_plan_build_one_collision_field(monkeypatch):
    # The generator checks its query on the field it returns, so the plan
    # reuses that field's cached CollisionField.
    built = []
    init = CollisionField.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CollisionField, "__init__", counted)
    env = generate_random_env(1000, query=FIELD_QUERY)
    plan_pso(env, FIELD_QUERY, PsoParams(max_iterations=5))
    assert len(built) == 1 and built[0] is env.collision_field


def _pinned_case(name):
    if name == "field-1000":
        return generate_random_env(1000, query=FIELD_QUERY), FIELD_QUERY
    return irregular_preset(name)


# Seeded runs at default params, recorded before the collision kernel
# learned to skip segments that reach no disk: the length, a sha256 of
# repr((path, length)), the iteration count and a sha256 of the final
# personal-best fitnesses, which sees a one-ulp change in any particle's
# blocked length even when the best path stays put.
@pytest.mark.parametrize("name, length, path_digest, iterations, pbest_digest", [
    ("empty", 52.4785670536077,
     "ac99fbe718123f65b7f786b01f47d537097feeb54e5c0b2de1c68cd79dbf4131", 30,
     "fea8ecfeb58fcc8e01f63f18ba9bc64a108052340c4b46f80668ded5f8054819"),
    ("field-1000", 55.4436374473847,
     "4e6ae8e9e028003bffb2972ff171088c95c40a9a7d9e75937d46fcbe69e02384", 146,
     "a7d16852454a81b8de8f96ccf98d9b0c7f161270abbc3f10ba85877918c9e360"),
    ("irregular-a", 53.49041874636115,
     "0b802888fb065d175761f474f76a0f24c8b8bb77c9bc58f23cc0aeabef646862", 265,
     "0db53d7b474b900a4f4917560f36205240563f30b8d1ccb81edac5020f743b19"),
], ids=["empty", "field-1000", "irregular-a"])
def test_seeded_runs_are_pinned(name, length, path_digest, iterations, pbest_digest):
    env, query = _pinned_case(name)
    run = PsoRun(env, query, PsoParams())
    while not run.should_stop:
        run.step()
    res = run.result(0.0)
    assert res.length == length
    assert hashlib.sha256(repr((res.path, res.length)).encode()).hexdigest() == path_digest
    assert res.iterations_used == iterations
    assert hashlib.sha256(run.pbest_fitnesses.tobytes()).hexdigest() == pbest_digest


@pytest.mark.parametrize("name", ["empty", "field-1000", "irregular-a"])
def test_construction_scores_the_first_swarm_in_full(name):
    # The first swarm is scored against +inf personal bests, so nothing is
    # pruned: the state is that of scoring every particle with `fitness`.
    env, query = _pinned_case(name)
    params = PsoParams()
    run = PsoRun(env, query, params)
    full = np.array([fitness(x, query, env, params.penalty_lambda) for x in run.positions])
    assert run.fitnesses.tobytes() == full.tobytes()
    assert run.pbest_positions.tobytes() == run.positions.tobytes()
    assert run.pbest_fitnesses.tobytes() == run.fitnesses.tobytes()
    g = int(np.argmin(full))
    assert run.gbest_position.tobytes() == run.positions[g].tobytes()
    assert run.gbest_fitness == full[g]


def test_the_field_run_sends_only_open_particles_to_the_kernel(monkeypatch):
    # A particle whose length is not below its personal best skips the
    # collision kernel, which the fitness enters at its column entry.
    # Every particle of every step would be 300 + 146 * 300 = 44,100 rows
    # here (construction, steps); the feasible result sends none, as only
    # an infeasible one is measured.
    rows = []
    kernel = CollisionField._blocked_measure

    def counted(self, ax, ay, ex, ey):
        rows.append(len(ax))
        return kernel(self, ax, ay, ex, ey)

    monkeypatch.setattr(CollisionField, "_blocked_measure", counted)
    env, query = _pinned_case("field-1000")
    res = plan_pso(env, query, PsoParams())
    assert res.iterations_used == 146
    assert (len(rows), sum(rows)) == (147, 22_896)


def full_step(run):
    """Scalar oracle for PsoRun.step: per-particle updates, in index order,
    and every particle's full `fitness`."""
    p = run.params
    run.omega = update_inertia(run.iteration, p.max_iterations, p.omega_start,
                               p.omega_end, run.stagnant, run.rng)
    for i in range(p.population):
        run.velocities[i] = update_velocity(run.velocities[i], run.positions[i],
                                            run.pbest_positions[i], run.gbest_position,
                                            run.omega, p.c1, p.c2, run.rng, p.v_max)
        run.positions[i] = update_position(run.positions[i], run.velocities[i],
                                           run._lo, run._hi)
        run.fitnesses[i] = fitness(run.positions[i], run.query, run.env, p.penalty_lambda)
        if run.fitnesses[i] < run.pbest_fitnesses[i]:
            run.pbest_positions[i] = run.positions[i]
            run.pbest_fitnesses[i] = run.fitnesses[i]
            run._last_improvement = run.iteration + 1
    previous = run.gbest_fitness
    g = int(np.argmin(run.pbest_fitnesses))
    if run.pbest_fitnesses[g] < run.gbest_fitness:
        run.gbest_fitness = float(run.pbest_fitnesses[g])
        run.gbest_position = run.pbest_positions[g].copy()
    run.iteration += 1
    run._flat_streak = run._flat_streak + 1 if previous - run.gbest_fitness < p.stop_epsilon else 0
    if run._flat_streak >= p.stagnation_window:
        run.stopped = True


def drawn_cases(draw):
    """A random 12-disk field, irregular-a or the empty map, with its query."""
    kind = draw(st.sampled_from(("disks", "irregular-a", "empty")))
    if kind == "disks":
        return generate_random_env(draw(st.integers(0, 10**6)), query=FIELD_QUERY), FIELD_QUERY
    if kind == "irregular-a":
        return irregular_preset("irregular-a")
    return EMPTY, Q_EAST


@st.composite
def mid_run_swarms(draw):
    """A PsoRun on a random 12-disk field, irregular-a or the empty map,
    after 0 to 40 steps."""
    env, query = drawn_cases(draw)
    params = PsoParams(population=draw(st.integers(1, 24)), n_waypoints=draw(st.integers(1, 6)),
                       penalty_lambda=draw(st.sampled_from((0.0, 1.0, 1000.0))),
                       rng_seed=draw(st.integers(0, 2**32 - 1)))
    run = PsoRun(env, query, params)
    for _ in range(draw(st.integers(0, 40))):
        run.step()
    return run


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(run=mid_run_swarms())
def test_a_pruned_step_equals_a_full_one(run):
    pbest = run.pbest_fitnesses.copy()
    full = copy.deepcopy(run)
    full_step(full)
    run.step()
    for name in ("positions", "velocities", "pbest_positions", "pbest_fitnesses",
                 "gbest_position"):
        assert getattr(run, name).tobytes() == getattr(full, name).tobytes(), name
    for name in ("gbest_fitness", "omega", "iteration", "_last_improvement",
                 "_flat_streak", "stopped"):
        assert getattr(run, name) == getattr(full, name), name
    # A particle below its personal best was evaluated in full; every other
    # one cannot improve on it.
    below = run.fitnesses < pbest
    assert run.fitnesses[below].tobytes() == full.fitnesses[below].tobytes()
    assert (full.fitnesses[~below] >= pbest[~below]).all()
    assert (run.fitnesses <= full.fitnesses).all()


@st.composite
def scored_swarms(draw):
    """Random waypoint vectors in the bounds of a drawn case, each with a
    personal best that leaves it open (+inf, or one ulp above its length)
    or prunes it (its length, -inf, nan)."""
    env, query = drawn_cases(draw)
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    b = env.bounds
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.uniform(np.tile((b.x_min, b.y_min), n), np.tile((b.x_max, b.y_max), n),
                            size=(m, 2 * n))
    paths = np.array([decode(x, query) for x in positions])
    seg = np.diff(paths, axis=1)
    lengths = np.hypot(seg[:, :, 0], seg[:, :, 1]).sum(axis=1)
    bests = np.array([draw(st.sampled_from((math.inf, math.nextafter(length, math.inf),
                                            length, -math.inf, math.nan)))
                      for length in lengths.tolist()])
    return env, query, positions, paths, lengths, bests, draw(st.sampled_from((0.0, 1.0, 1000.0)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(swarm=scored_swarms())
def test_an_open_particles_penalty_is_its_path_violation_bit_for_bit(swarm):
    # The swarm's one pass scales each segment's blocked measure by the
    # segment length it summed; that equals `path_violation` on the decoded
    # path, which measures the segments again through `blocked_lengths`.
    env, query, positions, paths, lengths, bests, penalty_lambda = swarm
    scores = pso._scores(paths, env.collision_field, penalty_lambda, bests)
    for x, length, best, score in zip(positions, lengths, bests, scores):
        if length < best:
            want = length + penalty_lambda * path_violation(decode(x, query), env)
        else:
            want = length
        assert score.hex() == want.hex()


# Endpoints from the bounds' inside and outside, and non-finite ones.
COORDINATES = st.one_of(st.floats(-60.0, 60.0), st.sampled_from(
    (math.nan, math.inf, -math.inf, 0.0, -40.0, 20.0, 1e308, -1e308)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_blocked_lengths_is_the_column_entry_times_hypot(data):
    env, _ = drawn_cases(data.draw)
    points = st.tuples(COORDINATES, COORDINATES)
    starts = data.draw(st.lists(points, max_size=12))
    # Each row ends at a new point or at its start (zero length).
    ends = [data.draw(st.one_of(points, st.just(a))) for a in starts]
    starts, ends = np.array(starts).reshape(-1, 2), np.array(ends).reshape(-1, 2)
    field = env.collision_field
    (ax, ay), (ex, ey) = starts.T.copy(), ends.T.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        want = field._blocked_measure(ax, ay, ex, ey) * np.hypot(ex - ax, ey - ay)
    assert field.blocked_lengths(starts, ends).tobytes() == want.tobytes()
    assert field.blocked_lengths(np.empty((0, 2)), np.empty((0, 2))).shape == (0,)


def test_rejects_bad_query():
    env = Environment(EMPTY.bounds, (Circle(Point2(0.0, 0.0), 3.0),))
    with pytest.raises(InvalidQueryError):
        plan_pso(env, Query(Point2(0, 0), Point2(10, 10)))
