"""RRT* primitives against hand-worked cases, then whole-run behavior."""

import copy
import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from pathbench import rrtstar
from pathbench.benchmark import FIELD_QUERY, audit_path
from pathbench.clearance import Clearance
from pathbench.environment import Environment, Query, generate_random_env, irregular_preset
from pathbench.errors import InvalidQueryError, InvalidStateError
from pathbench.geometry import (Bounds, Circle, Point2, Polygon, dist, edge_free,
                                path_length)
from pathbench.rrtstar import (RrtParams, RrtStarRun, RrtTree, choose_parent,
                               find_nearest, get_neighbors,
                               get_optimized_path, plan_rrt_star,
                               random_sample, rewire, steering)
from kernel_corpus import EMPTY, _pinned_case


def test_params_validation():
    RrtParams()
    with pytest.raises(ValueError):
        RrtParams(iterations_num=0)
    with pytest.raises(ValueError):
        RrtParams(step_size=0.0)
    with pytest.raises(ValueError):
        RrtParams(step_size=math.inf)
    with pytest.raises(ValueError):
        RrtParams(min_threshold=-1.0)
    with pytest.raises(ValueError):
        RrtParams(step_size=2.0, neighbor_radius=1.0)
    # NaN fails every comparison, so it would find no neighbours at all.
    with pytest.raises(ValueError):
        RrtParams(neighbor_radius=math.nan)
    with pytest.raises(ValueError):
        RrtParams(iterations_num=2.5)
    with pytest.raises(ValueError):
        RrtParams(iterations_num=True)
    # A float seed used to pass here and fail later inside numpy.
    for bad in (dict(rng_seed=1.5), dict(rng_seed=True), dict(rng_seed="0"),
                dict(rng_seed=-1),
                dict(step_size=True), dict(min_threshold=math.nan),
                dict(neighbor_radius=math.inf), dict(step_size="2"),
                # An integer too large for a float is not a number here.
                dict(step_size=10**400), dict(neighbor_radius=-10**400)):
        with pytest.raises(ValueError):
            RrtParams(**bad)
    params = RrtParams(iterations_num=np.int64(5), rng_seed=np.int32(2))
    assert type(params.iterations_num) is int and type(params.rng_seed) is int


def test_params_reject_an_integer_above_maxsize():
    # Accepted before, and the planner would have looped for ever.
    with pytest.raises(ValueError, match=f"iterations_num must be <= {sys.maxsize}"):
        RrtParams(iterations_num=10**400)


def test_steering():
    assert steering((10, 0), (0, 0), 2.0) == Point2(2.0, 0.0)
    # Sample closer than one step: take it exactly.
    assert steering((1, 0), (0, 0), 2.0) == Point2(1.0, 0.0)
    p = steering((3, 4), (0, 0), 2.5)
    assert p.x == pytest.approx(1.5, abs=1e-12)
    assert p.y == pytest.approx(2.0, abs=1e-12)


def test_tree_add_and_cost():
    tree = RrtTree((0.0, 0.0))
    a = tree.add((3.0, 4.0), 0)
    b = tree.add((3.0, 6.0), a)
    assert len(tree) == 3
    assert tree.parent(0) is None
    assert tree.parent(b) == a
    assert tree.cost_to_come(a) == pytest.approx(5.0)
    assert tree.cost_to_come(b) == pytest.approx(7.0)
    assert tree.children(0) == (a,)


# A negative index read a node from the end; one past the end raised a bare
# "list index out of range". `add` checks its parent index the same way.
@pytest.mark.parametrize("accessor", ["position", "parent", "cost_to_come", "children", "add"])
@pytest.mark.parametrize("where", ["before", "past"])
def test_tree_accessors_check_the_node_index(accessor, where):
    tree = RrtTree((0.0, 0.0))
    tree.add((1.0, 0.0), 0)
    index = -1 if where == "before" else len(tree)
    call = (lambda i: tree.add((2.0, 0.0), i)) if accessor == "add" else getattr(tree, accessor)
    with pytest.raises(IndexError, match=f"^node index {index} out of range$"):
        call(index)
    assert len(tree) == 2


def test_find_nearest_tie_goes_low():
    tree = RrtTree((0.0, 0.0))
    tree.add((2.0, 0.0), 0)
    tree.add((-2.0, 0.0), 0)
    # (0, 1) is 1 from the root and sqrt(5) from both others.
    assert find_nearest(tree, (0.0, 1.0)) == 0
    assert find_nearest(tree, (2.0, 3.0)) == 1
    # (0, 7) is as far from both nodes: the tie goes to index 0.
    tree2 = RrtTree((1.0, 0.0))
    tree2.add((-1.0, 0.0), 0)
    assert find_nearest(tree2, (0.0, 7.0)) == 0


def test_get_neighbors():
    tree = RrtTree((0.0, 0.0))
    tree.add((1.0, 0.0), 0)
    tree.add((10.0, 0.0), 0)
    assert get_neighbors(tree, (0.5, 0.0), 2.0) == [0, 1]
    # Radius is inclusive.
    assert get_neighbors(tree, (8.0, 0.0), 2.0) == [2]
    assert get_neighbors(tree, (30.0, 30.0), 2.0) == []


# Brute-force scalar scans, the reference for the tree's array scans.
# Squares are products: `d ** 2` goes through libm's pow, which rounded
# about one square in 1,200 differently from d * d with glibc 2.36.
def nearest_oracle(points, p):
    best, best_d = 0, math.inf
    for i, (x, y) in enumerate(points):
        d = (x - p[0]) * (x - p[0]) + (y - p[1]) * (y - p[1])
        if d < best_d:
            best, best_d = i, d
    return best


def neighbors_oracle(points, p, radius):
    rr = radius * radius
    return [i for i, (x, y) in enumerate(points)
            if (x - p[0]) * (x - p[0]) + (y - p[1]) * (y - p[1]) <= rr]


# A 13x13 integer lattice gives duplicates, exact distance ties and points
# exactly on integer radii; taking up to 169 of its points grows the tree
# past its initial array capacity.
LATTICE = [(float(i % 13 - 6), float(i // 13 - 6)) for i in range(169)]


def scan_points(rng, size, k=6, lo=-50.0, hi=50.0):
    """size points, each coordinate an integer in [-k, k] or uniform in [lo, hi]."""
    return list(map(tuple, np.where(rng.random((size, 2)) < 0.5, rng.integers(-k, k + 1, (size, 2)),
                                    rng.uniform(lo, hi, (size, 2))).tolist()))


def test_scans_match_scalar_oracle():
    # One point, found at radius 0; the lattice, with points at an integer
    # radius and a four-way tie; then 300 drawn trees of 1-40 points and a
    # lattice prefix, with an integer radius in [0, 9] or one in [0, 80].
    rng = np.random.default_rng(43)
    draws = [(scan_points(rng, int(rng.integers(1, 41))), int(rng.integers(len(LATTICE) + 1)),
              scan_points(rng, 1)[0], float(rng.integers(10)) if rng.random() < 0.5
              else rng.uniform(0.0, 80.0)) for _ in range(300)]
    for drawn, n_lattice, p, radius in [([(0.0, 0.0)], 0, (0.0, 0.0), 0.0),
                                        ([(3.0, 4.0)], 169, (0.0, 0.0), 5.0),
                                        ([(0.5, -0.5)], 169, (0.5, 0.5), 1.0), *draws]:
        points = drawn + LATTICE[:n_lattice]
        tree = RrtTree(points[0])
        for q in points[1:]:
            tree.add(q, 0)
        assert len(tree) == len(points)
        for i in (0, len(points) // 2, len(points) - 1):
            pos = tree.position(i)
            assert pos == points[i] and type(pos.x) is float and type(pos.y) is float
        nearest = find_nearest(tree, p)
        assert type(nearest) is int
        assert nearest == nearest_oracle(points, p)
        found = get_neighbors(tree, p, radius)
        assert all(type(i) is int for i in found)
        assert found == neighbors_oracle(points, p, radius)


def test_scan_memo_sees_new_nodes():
    tree = RrtTree((0.0, 0.0))
    tree.add((10.0, 0.0), 0)
    p = (6.0, 0.0)
    assert find_nearest(tree, p) == 1
    assert get_neighbors(tree, p, 3.0) == []
    # A node added after a scan at p must show in the next scans at p.
    new = tree.add((6.5, 0.0), 1)
    assert find_nearest(tree, p) == new
    assert get_neighbors(tree, p, 3.0) == [new]


def test_tree_grows_past_its_initial_capacity():
    tree = RrtTree((0.0, 0.0))
    n = 5 * RrtTree._INITIAL_CAPACITY
    for k in range(1, n):
        tree.add((float(k), 0.0), k - 1)
    assert len(tree) == n
    assert tree.position(n - 1) == Point2(float(n - 1), 0.0)
    assert tree.cost_to_come(n - 1) == float(n - 1)
    assert find_nearest(tree, (n + 5.0, 0.0)) == n - 1
    assert get_neighbors(tree, (n - 1.0, 0.0), 1.0) == [n - 2, n - 1]
    with pytest.raises(IndexError):
        tree.position(n)


def rebuilt_costs(tree):
    """Costs from the parent links alone: the parent's cost plus one hypot."""
    costs = {0: 0.0}

    def cost(i):
        if i not in costs:
            p = tree.parent(i)
            (x, y), (px, py) = tree.position(i), tree.position(p)
            costs[i] = cost(p) + math.hypot(x - px, y - py)
        return costs[i]

    return [cost(i) for i in range(len(tree))]


def test_costs_follow_the_parent_links_after_adds_and_rewires():
    # Each step adds a node under a drawn parent, then rewires a drawn set
    # of nodes, in drawn order, through it. A node on the root; a chain whose
    # middle is rewired with its subtree; then 150 drawn runs of 1-60 steps.
    rng = np.random.default_rng(43)
    draws = [[(p, int(rng.integers(10**6)), rng.integers(10**6, size=rng.integers(13)).tolist())
              for p in scan_points(rng, rng.integers(1, 61), 4, -30.0, 15.0)] for _ in range(150)]
    chain = [((-2.0, 0.0), 0, []), ((-2.0, 2.0), 1, []), ((0.0, 2.0), 2, []), ((2.0, 2.0), 3, []),
             ((0.0, 1.0), 0, [2])]
    for steps in [[((0.0, 0.0), 0, [])], chain, *draws]:
        tree = RrtTree((0.0, 0.0))
        for p, parent, picks in steps:
            new = tree.add(p, parent % len(tree))
            nb = list(dict.fromkeys(k % len(tree) for k in picks))
            rewire(tree, nb, edge_lengths(tree, nb, tree.position(new)), new, EMPTY, 0.0)
            assert tree.all_costs() == rebuilt_costs(tree)
        for i in range(len(tree)):
            assert get_optimized_path(tree, i)[0] == (0.0, 0.0)
            assert all(tree.parent(c) == i for c in tree.children(i))


# A 20x20 lattice, to grow the tree past three doublings of its arrays.
GRID = [(float(i % 20 - 10), float(i // 20 - 10)) for i in range(400)]


def test_squared_distances_match_the_scalar_oracle_as_the_tree_grows():
    # Two points and no grid; one point and the whole grid; then 40 drawn
    # trees of 1-10 points and a grid prefix, probed at 1-4 points.
    rng = np.random.default_rng(43)
    draws = [(scan_points(rng, int(rng.integers(1, 11))), int(rng.integers(len(GRID) + 1)),
              scan_points(rng, int(rng.integers(1, 5)))) for _ in range(40)]
    for drawn, n_grid, probes in [([(0.0, 0.0), (1.0, 1.0)], 0, [(0.5, 0.5)]),
                                  ([(0.0, 0.0)], len(GRID), [(0.0, 0.0), (3.0, 4.0)]), *draws]:
        points = drawn + GRID[:n_grid]
        tree = RrtTree(points[0])
        for n, q in enumerate(points[1:], 2):
            tree.add(q, 0)
            # Every 29th size, so a scan follows each doubling, and the last:
            # successive scans at other points, then the first one again.
            if n % 29 == 0 or n == len(points):
                for p in probes + probes[:1]:
                    want = [(x - p[0]) * (x - p[0]) + (y - p[1]) * (y - p[1])
                            for x, y in points[:n]]
                    assert tree.squared_distances(p).tolist() == want


def edge_lengths(tree, neighbors, p):
    """The lengths RrtStarRun.step hands choose_parent and rewire: one hypot per edge."""
    return [dist(tree.position(i), p) for i in neighbors]


def test_choose_parent_prefers_cheapest_total():
    tree = RrtTree((0.0, 0.0))
    a = tree.add((2.0, 0.0), 0)   # cost 2
    b = tree.add((4.0, 0.0), a)   # cost 4
    p_new = (4.0, 3.0)
    # Totals: root 5.0, a 2+sqrt(13)=5.606.., b 4+3=7.0 -> root wins.
    nb = [0, a, b]
    lengths = edge_lengths(tree, nb, p_new)
    parent = choose_parent(tree, nb, lengths, a, p_new, EMPTY, 0.0)
    assert parent == 0
    # A disc at (2, 1.5) r=0.9 blocks the root edge (passes through the
    # center) and the edge from a (clearance 3/sqrt(13) ~ 0.83), leaving
    # only b's vertical edge free. The nearest node's edge is free, as
    # step has checked it, so here the nearest is b.
    wall = Environment(EMPTY.bounds, (Circle(Point2(2.0, 1.5), 0.9),))
    parent = choose_parent(tree, nb, lengths, b, p_new, wall, 0.0)
    assert parent == b
    # No neighbour reachable, and the nearest node (a, out of the
    # neighbour radius here) is the fallback.
    boxed = Environment(EMPTY.bounds, (Circle(Point2(4.0, 1.5), 1.2),
                                       Circle(Point2(2.0, 1.5), 1.2)))
    assert choose_parent(tree, [0, b], [lengths[0], lengths[2]], a, p_new, boxed, 0.0) == a


def test_choose_parent_ties_go_to_the_lower_index():
    tree = RrtTree((0.0, 0.0))
    a = tree.add((2.0, 0.0), 0)    # cost 2
    b = tree.add((-2.0, 0.0), 0)   # cost 2, the mirror image of a
    p_new = (0.0, 3.0)
    # a and b tie at 2 + sqrt(13) exactly; the root is cheaper at 3.
    nb = [b, a, 0]
    lengths = edge_lengths(tree, nb, p_new)
    assert choose_parent(tree, nb[:2], lengths[:2], 0, p_new, EMPTY, 0.0) == a
    assert choose_parent(tree, nb, lengths, a, p_new, EMPTY, 0.0) == 0
    # A disc on the root edge, clear of both slanted edges (3/sqrt(13)
    # ~ 0.83 away), blocks the cheapest candidate; the tie then decides.
    wall = Environment(EMPTY.bounds, (Circle(Point2(0.0, 1.5), 0.5),))
    assert choose_parent(tree, nb, lengths, b, p_new, wall, 0.0) == a
    # With a's edge blocked as well, b is the one left.
    walls = Environment(EMPTY.bounds, (Circle(Point2(0.0, 1.5), 0.5),
                                       Circle(Point2(1.0, 1.5), 0.3)))
    assert choose_parent(tree, nb, lengths, b, p_new, walls, 0.0) == b


def test_choose_parent_without_neighbours_falls_back_to_the_nearest():
    tree = RrtTree((0.0, 0.0))
    a = tree.add((2.0, 0.0), 0)
    assert choose_parent(tree, [], [], a, (3.0, 0.0), EMPTY, 0.0) == a


def test_rewire_lowers_cost_and_propagates():
    # Hand case: a detour node whose cost drops from 10 to 8 when routed
    # through the freshly inserted shortcut, dragging its child along.
    tree = RrtTree((0.0, 0.0))
    a = tree.add((0.0, 6.0), 0)        # cost 6
    b = tree.add((4.0, 6.0), a)        # cost 10 via the detour
    c = tree.add((4.0, 8.0), b)        # cost 12
    new = tree.add((4.0, 3.0), 0)      # cost 5
    rewire(tree, [a, b], edge_lengths(tree, [a, b], tree.position(new)), new, EMPTY, 0.0)
    assert tree.parent(b) == new
    assert tree.cost_to_come(b) == pytest.approx(8.0)
    assert tree.cost_to_come(c) == pytest.approx(10.0)
    # a itself stays put: 5 + dist((4,3),(0,6)) = 10 > 6.
    assert tree.parent(a) == 0
    assert tree.cost_to_come(a) == pytest.approx(6.0)


def test_rewire_leaves_the_new_node_where_it_is():
    # Given as its own neighbour, at length 0, it does not undercut itself.
    tree = RrtTree((0.0, 0.0))
    a = tree.add((0.0, 6.0), 0)
    c = tree.add((2.0, 7.0), tree.add((5.0, 0.0), 0))  # cost 5 + sqrt(58)
    new = tree.add((1.0, 6.0), a)                       # cost 7
    nodes = [0, a, c, new]
    rewire(tree, nodes, edge_lengths(tree, nodes, tree.position(new)), new, EMPTY, 0.0)
    assert tree.parent(new) == a and tree.children(new) == (c,)
    assert tree.cost_to_come(new) == pytest.approx(7.0)
    assert tree.cost_to_come(c) == pytest.approx(7.0 + math.sqrt(2.0))


def test_rewire_respects_obstacles():
    tree = RrtTree((0.0, 0.0))
    a = tree.add((0.0, 6.0), 0)
    b = tree.add((4.0, 6.0), a)
    new = tree.add((4.0, 3.0), 0)
    blocked = Environment(EMPTY.bounds, (Circle(Point2(4.0, 4.5), 0.5),))
    rewire(tree, [a, b], edge_lengths(tree, [a, b], tree.position(new)), new, blocked, 0.0)
    assert tree.parent(b) == a
    assert tree.cost_to_come(b) == pytest.approx(10.0)


def _checks(monkeypatch, answer=None):
    """The (a, b) ends of each edge_free call the helpers make once this
    returns; each call answers `answer`, or edge_free's answer if None."""
    checked = []
    edge_free = rrtstar.edge_free

    def spy(a, b, env):
        checked.append((tuple(a), tuple(b)))
        return edge_free(a, b, env) if answer is None else answer

    monkeypatch.setattr(rrtstar, "edge_free", spy)
    return checked


def _parent_case():
    # Three neighbours of p_new = (10, 0) ranked a, b, c by total, so by
    # falling edge length (4, sqrt(5), sqrt(1.25)), and a nearest node d that
    # is no neighbour.
    tree = RrtTree((0.0, 0.0))
    a, b, c = (tree.add(p, 0) for p in [(6.0, 0.0), (8.0, 1.0), (9.5, 1.0)])
    d = tree.add((-5.0, 0.0), 0)
    p_new = (10.0, 0.0)
    return tree, [c, a, b], edge_lengths(tree, [c, a, b], p_new), d, p_new


# Every edge refused: choose_parent takes the first candidate, by total,
# shorter than clear without a check, after checking each one before it.
@pytest.mark.parametrize("clear, checked, parent", [
    (0.0, "abc", "d"), (3.0, "a", "b"), (math.sqrt(5.0), "ab", "c"), (math.inf, "", "a"),
])
def test_choose_parent_checks_only_the_edges_not_shorter_than_clear(monkeypatch, clear,
                                                                   checked, parent):
    tree, nb, lengths, d, p_new = _parent_case()
    node = dict(zip("abcd", [*sorted(nb), d]))
    calls = _checks(monkeypatch, False)
    assert choose_parent(tree, nb, lengths, d, p_new, EMPTY, clear) == node[parent]
    assert calls == [(tree.position(node[k]), p_new) for k in checked]


def test_choose_parent_refuses_a_blocked_edge_as_long_as_clear(monkeypatch):
    # A disc on a's edge; its length 4 is the clearance, so it is checked.
    tree, (c, a, b), lengths, d, p_new = _parent_case()
    wall = Environment(EMPTY.bounds, (Circle(Point2(8.0, 0.0), 0.3),))
    calls = _checks(monkeypatch)
    assert choose_parent(tree, [c, a, b], lengths, d, p_new, wall, 4.0) == b
    assert calls == [(tree.position(a), p_new)]


def _rewire_case():
    # A new node n at cost 1 and, behind a detour of cost 10, the neighbours
    # p, q and r at lengths 0.5, 1 and 2 from n, all three undercut by n. The
    # root is a neighbour that n does not undercut.
    tree = RrtTree((0.0, 0.0))
    new = tree.add((0.0, 1.0), 0)
    detour = tree.add((0.0, -10.0), 0)
    p, q, r = (tree.add(x, detour) for x in [(0.0, 1.5), (1.0, 1.0), (-2.0, 1.0)])
    nb = [0, p, q, r]
    return tree, nb, edge_lengths(tree, nb, tree.position(new)), new


# Every edge refused: rewire reroutes the undercut neighbours whose edges are
# shorter than clear without a check, and checks the others.
@pytest.mark.parametrize("clear, checked, rewired", [
    (0.0, "pqr", ""), (1.0, "qr", "p"), (math.inf, "", "pqr"),
])
def test_rewire_checks_only_the_edges_not_shorter_than_clear(monkeypatch, clear, checked,
                                                            rewired):
    tree, nb, lengths, new = _rewire_case()
    node = dict(zip("pqr", nb[1:]))
    calls = _checks(monkeypatch, False)
    rewire(tree, nb, lengths, new, EMPTY, clear)
    assert calls == [(tree.position(new), tree.position(node[k])) for k in checked]
    assert [k for k in "pqr" if tree.parent(node[k]) == new] == list(rewired)


def test_rewire_refuses_a_blocked_edge_as_long_as_clear(monkeypatch):
    # A disc on r's edge; its length 2 is the clearance, so it is checked.
    tree, nb, lengths, new = _rewire_case()
    wall = Environment(EMPTY.bounds, (Circle(Point2(-1.0, 1.0), 0.2),))
    calls = _checks(monkeypatch)
    rewire(tree, nb, lengths, new, wall, 2.0)
    assert calls == [(tree.position(new), tree.position(nb[3]))]
    assert [tree.parent(i) == new for i in nb] == [False, True, True, False]


def test_get_optimized_path():
    tree = RrtTree((0.0, 0.0))
    a = tree.add((3.0, 0.0), 0)
    b = tree.add((3.0, 1.0), a)
    path = get_optimized_path(tree, b)
    assert path == (Point2(0, 0), Point2(3, 0), Point2(3, 1))
    assert path_length(path) == pytest.approx(4.0)
    assert get_optimized_path(tree, 0) == (Point2(0, 0),)
    with pytest.raises(InvalidStateError):
        get_optimized_path(tree, 99)
    tree._parent[a] = b  # a and b now lead to each other, never to the root
    with pytest.raises(InvalidStateError, match="does not terminate at the root"):
        get_optimized_path(tree, b)


def test_a_sample_on_a_node_inserts_nothing(monkeypatch):
    run = RrtStarRun(EMPTY, Query((0.0, 0.0), (10.0, 0.0)), RrtParams())
    monkeypatch.setattr(rrtstar, "random_sample", lambda env, rng: Point2(0.0, 0.0))
    assert run.step() is None
    assert len(run.tree) == 1 and run.iteration == 1


def test_a_new_node_without_neighbours_hangs_from_the_nearest(monkeypatch):
    run = RrtStarRun(EMPTY, Query((0.0, 0.0), (10.0, 0.0)), RrtParams(step_size=2.0))
    for _ in range(30):
        run.step()
    sample = Point2(-30.0, 10.0)
    near = find_nearest(run.tree, sample)
    monkeypatch.setattr(rrtstar, "random_sample", lambda env, rng: sample)
    monkeypatch.setattr(rrtstar, "get_neighbors", lambda tree, p, radius: [])
    idx = run.step()
    assert run.tree.parent(idx) == near
    p_new, p_near = run.tree.position(idx), run.tree.position(near)
    assert run.tree.cost_to_come(idx) == run.tree.cost_to_come(near) + dist(p_near, p_new)


def test_random_sample_stays_in_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = random_sample(EMPTY, rng)
        assert EMPTY.bounds.contains(p)


def test_random_sample_draws_what_numpy_uniform_draws():
    # Bounds ends from wide, narrow and offset ranges: the sampler must give
    # numpy's uniform doubles at every scale a valid Bounds allows, which
    # keeps width**2 + height**2 a finite normal float. The ranges' ends and
    # a subnormal width, then 300 bounds mixing the ranges, and any seed.
    source = np.random.default_rng(43)
    ranges = np.array([(-4e153, 4e153), (-1e-3, 1e-3), (1e9, 1e9 + 1.0)])
    cases = [(0, (-4e153, 4e153), (-4e153, 4e153)), (2**64 - 1, (-1e-3, 1e-3), (1e9, 1e9 + 1.0)),
             (1, (0.0, 5e-324), (-1e-3, 1e-3))]
    while len(cases) < 303:
        ends = source.uniform(*ranges[source.integers(3, size=4)].T)
        (x0, x1), (y0, y1) = np.sort(ends.reshape(2, 2)).tolist()
        if x0 < x1 and y0 < y1 and (x1 - x0) ** 2 + (y1 - y0) ** 2 >= sys.float_info.min:
            cases.append((int(source.integers(2**64, dtype=np.uint64)), (x0, x1), (y0, y1)))
    for seed, (x_min, x_max), (y_min, y_max) in cases:
        env = Environment(Bounds(x_min, x_max, y_min, y_max), ())
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            p = random_sample(env, rng)
            want = (twin.uniform(x_min, x_max), twin.uniform(y_min, y_max))
            assert [float(v).hex() for v in p] == [float(v).hex() for v in want]
        assert rng.bit_generator.state == twin.bit_generator.state


def test_rejects_bad_query():
    env = Environment(EMPTY.bounds, (Circle(Point2(0.0, 0.0), 3.0),))
    with pytest.raises(InvalidQueryError):
        plan_rrt_star(env, Query(Point2(0, 0), Point2(10, 10)))


def test_start_already_in_goal_region():
    q = Query(Point2(0.0, 0.0), Point2(2.0, 0.0))
    res = plan_rrt_star(EMPTY, q, RrtParams(iterations_num=1, rng_seed=5))
    assert res.feasible
    assert res.path[0] == q.start and res.path[-1] == q.target
    assert res.length == pytest.approx(2.0)
    assert res.iterations_used == 1


def test_empty_env_paths_are_near_straight():
    # Tight bounds keep the sample density high enough that 600
    # iterations always reach the goal disc.
    env = Environment(Bounds(-15.0, 15.0, -15.0, 15.0), ())
    q = Query(Point2(0.0, 0.0), Point2(10.0, 0.0))
    for seed in (0, 1, 2, 3, 4):
        res = plan_rrt_star(env, q, RrtParams(iterations_num=600, rng_seed=seed))
        assert res.feasible, f"seed {seed}"
        assert res.path[-1] == q.target
        assert res.closest_approach == 0.0
        assert 10.0 <= res.length <= 13.0, f"seed {seed}: {res.length}"
        assert res.length == pytest.approx(path_length(res.path))


def test_determinism():
    env = generate_random_env(21, query=FIELD_QUERY)
    a = plan_rrt_star(env, FIELD_QUERY, RrtParams(iterations_num=300, rng_seed=9))
    b = plan_rrt_star(env, FIELD_QUERY, RrtParams(iterations_num=300, rng_seed=9))
    assert a.path == b.path
    assert a.length == b.length
    assert a.iterations_used == b.iterations_used == 300


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# Seeded runs recorded on the pure-Python list tree that the array tree
# replaced: the length, a sha256 of repr((path, length)) and a sha256 of
# repr(all_costs()). A drifted cost rarely moves the path, so the cost
# digest is what catches a one-ulp change in the tree's edge arithmetic.
@pytest.mark.parametrize("name, iterations, length, path_digest, cost_digest", [
    ("empty", 600, 59.923765086818655,
     "0188e79c53f1177030d130d90c0767195352bc052f182af5b4e36c6b4fd8678c",
     "1bc550c5d730ac4f6036fba8251af50293a79bac529b12c759f4a53a78611861"),
    ("field-1000", 2000, 60.23338395584719,
     "abb333335d1567f9ac406ee01a94f61646f64ee828aecf36a6a7991de2ff63da",
     "4ae8f572b379fc302a325fd84d8cbed8839554ce7080b3ccabe114b7b69f8b01"),
    ("irregular-a", 2000, 56.73317797074336,
     "94f531f5bbb72fcfa255ebd7a125909c0f6237ac5691f0b0c089dbd20157a346",
     "e0d4fe7fd0d77674866b27d09114b87f9740cfe5a2649fd186622a884589745f"),
], ids=["empty", "field-1000", "irregular-a"])
def test_seeded_runs_are_pinned(name, iterations, length, path_digest, cost_digest):
    env, query = _pinned_case(name)
    run = RrtStarRun(env, query, RrtParams(iterations_num=iterations))
    for _ in range(iterations):
        run.step()
    res = run.result(0.0)
    assert res.length == length
    assert _sha((res.path, res.length)) == path_digest
    assert _sha(run.tree.all_costs()) == cost_digest


# A neighbour radius equal to the step size rounds p_near out of the
# neighbour set now and then (167 of this run's 600 iterations), so
# this run takes choose_parent's and rewire's empty-list paths. Recorded
# when step still skipped both calls for an empty set.
def test_a_run_with_empty_neighbour_sets_is_pinned():
    env, query = _pinned_case("empty")
    run = RrtStarRun(env, query, RrtParams(iterations_num=600, neighbor_radius=2.0))
    for _ in range(600):
        run.step()
    res = run.result(0.0)
    assert res.length == 71.18320440437176
    assert _sha((res.path, res.length)) == (
        "a0e1cc4be1f4e93b4ccd336f78bec94e64f6027b5bb8bf0196200d7c7d69aba4")
    assert _sha(run.tree.all_costs()) == (
        "c418a96dd84a6b89fe8f9a4fccde862619d7e157962d04e8ccf5ff900e25d851")


def _clear_nowhere(m, env):
    """Give env a clearance grid that clears no cell, through m, a monkeypatch
    context: a run built while it holds checks every edge."""
    field, grid = env.collision_field, env.collision_field.clearance
    m.setattr(field, "clearance", Clearance(grid.bounds, grid.scale, grid.stride,
                                            [0.0] * len(grid.cells)))


def _edge_record(monkeypatch, name, iterations, forced):
    """(caller, a, b, answer) per collision check of a seeded run on a pinned
    map, in call order; caller is the function that asked (step,
    choose_parent or rewire). A forced run's map clears nowhere, so it
    checks every edge."""
    record = []
    edge_free = rrtstar.edge_free

    def recording(a, b, env):
        caller = sys._getframe(1).f_code.co_name
        record.append((caller, tuple(a), tuple(b), edge_free(a, b, env)))
        return record[-1][-1]

    env, query = _pinned_case(name)
    with monkeypatch.context() as m:
        m.setattr(rrtstar, "edge_free", recording)
        if forced:
            _clear_nowhere(m, env)
        run = RrtStarRun(env, query, RrtParams(iterations_num=iterations))
        for _ in range(iterations):
            run.step()
    return record


# The collision checks of seeded runs, recorded before the tree kept
# float mirrors and a scan memo: their number and a sha256 of the
# repr of their (a, b) endpoints in call order. The record was then
# cut by the calls in which choose_parent repeated step's own check of
# p_near -> p_new (135 and 235 of them), which it now skips. Each run is
# forced to check every edge; a default run checks fewer
# (`test_a_default_run_skips_only_edges_that_are_free`).
@pytest.mark.parametrize("name, iterations, calls, edge_digest", [
    ("empty", 600, 1247,
     "b555d50e7e3216bad295a1fc217a666fc9d10fe868beb4ff8ff39d2e877a2bf3"),
    ("field-1000", 2000, 5188,
     "a1bb280afce83866583e0ae2f9114cbad34002cfa4db58e25054fb5d6dc0ee36"),
], ids=["empty", "field-1000"])
def test_seeded_edge_checks_are_pinned(monkeypatch, name, iterations, calls,
                                       edge_digest):
    checked = [(a, b) for _, a, b, _ in _edge_record(monkeypatch, name, iterations, True)]
    assert len(checked) == calls
    assert _sha(checked) == edge_digest


# The answers of the same collision checks, recorded before edge_free
# skipped obstacles by their boxes: the number of calls and a sha256 of
# the repr of the list of booleans returned, in call order, cut by the
# same repeats (135, 235 and 220 of them). irregular-a is the polygon case.
@pytest.mark.parametrize("name, iterations, calls, answer_digest", [
    ("empty", 600, 1247,
     "54c80683f078ee8b8d8d1f90ed403295152b565285b4b12ef3d198e56eadb4c3"),
    ("field-1000", 2000, 5188,
     "2efddbadb39c144921486084c6284f484805e7ef83487ff34902436c6a97a4cb"),
    ("irregular-a", 2000, 5006,
     "cde8f22b606c613117ca4293c74b3c9900b63c09dc49f1def7dcf874e1c1535a"),
], ids=["empty", "field-1000", "irregular-a"])
def test_seeded_edge_answers_are_pinned(monkeypatch, name, iterations, calls,
                                        answer_digest):
    answers = [answer for *_, answer in _edge_record(monkeypatch, name, iterations, True)]
    assert len(answers) == calls
    assert _sha(answers) == answer_digest


# A default run skips the checks its clearance grid answers: its record is
# the forced record of the pins above without calls that all answered True.
# On a map with no obstacle it checks no edge.
@pytest.mark.parametrize("name, iterations, calls, edge_digest", [
    ("empty", 600, 0,
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("field-1000", 2000, 1450,
     "2102f56a7792280c968fd7a4e82cd4891afde2c2d46cb67c6cb517ef38ac13c3"),
    ("irregular-a", 2000, 1782,
     "4c8db343d18b4dfbd95042b40bf7ffeb1ee7b82d9d639fa3e2ad4f390dcb42a1"),
], ids=["empty", "field-1000", "irregular-a"])
def test_a_default_run_skips_only_edges_that_are_free(monkeypatch, name, iterations, calls,
                                                      edge_digest):
    forced = _edge_record(monkeypatch, name, iterations, True)
    record = _edge_record(monkeypatch, name, iterations, False)
    assert len(record) == calls
    assert _sha(record) == edge_digest
    kept = iter(record)
    want = next(kept, None)
    for r in forced:
        if r == want:
            want = next(kept, None)
        else:
            assert r[-1], r
    assert want is None


# A default run checks no edge its clearance grid clears, which is exact: it
# grows, bit for bit, the tree of a run forced to check them all, on the
# empty preset, on a narrow map whose nodes crowd its bounds, on field 1000,
# on the polygon map, and on a map so small that squared distances round at
# subnormal spacing.
@pytest.mark.parametrize("env, query, params", [
    (*irregular_preset("empty"), RrtParams(iterations_num=400)),
    (Environment(Bounds(0.5, 7.0, -3.0, 30.0), ()), Query(Point2(1.0, -2.0), Point2(6.5, 29.0)),
     RrtParams(iterations_num=400)),
    (*_pinned_case("field-1000"), RrtParams(iterations_num=800)),
    (*_pinned_case("irregular-a"), RrtParams(iterations_num=1600)),
    (Environment(Bounds(0.0, 1e-150, 0.0, 1e-150), ()),
     Query(Point2(5e-151, 5e-151), Point2(9e-151, 9e-151)),
     RrtParams(iterations_num=2000, step_size=2e-162, neighbor_radius=3e-162)),
], ids=["empty", "narrow", "field-1000", "irregular-a", "subnormal-squares"])
def test_a_default_run_is_the_run_that_checks_every_edge(monkeypatch, env, query, params):
    def finish(run):
        while not run.should_stop:
            run.step()
        res, tree = run.result(0.0), run.tree
        # repr keeps every float exactly.
        return repr((tree.all_costs(), [tree.parent(i) for i in range(len(tree))],
                     res.path, res.length, res.iterations_used))

    # Seed 5's neighbour radius is the step size, so some sets are empty.
    cases = [replace(params, rng_seed=seed) for seed in range(5)]
    cases.append(replace(params, neighbor_radius=params.step_size, rng_seed=5))
    for params in cases:
        with monkeypatch.context() as m:
            _clear_nowhere(m, env)
            forced = RrtStarRun(env, query, params)
        run = RrtStarRun(env, query, params)
        for _ in range(150):
            run.step()
        copied = copy.deepcopy(run)
        want = finish(forced)
        assert finish(run) == want
        assert finish(copied) == want
        assert forced.result(0.0).feasible


# The growth loop hands edge_free plain (x, y) tuples of the tree's floats
# and builds a Point2 only where the API returns one: random_sample and
# steering, once each per iteration. A later edit that builds a point per
# node read would slow RRT* without failing any other test.
@pytest.mark.parametrize("name", ["empty", "field-1000"])
def test_an_iteration_builds_at_most_two_points(monkeypatch, name):
    built = 0
    point = rrtstar.Point2

    def counting(*args):
        nonlocal built
        built += 1
        return point(*args)

    env, query = _pinned_case(name)
    run = RrtStarRun(env, query, RrtParams(iterations_num=200))
    monkeypatch.setattr(rrtstar, "Point2", counting)
    for _ in range(200):
        run.step()
    assert built <= 2 * 200


def _ring_case():
    # Target inside a ring of circles the step cannot thread.
    ring = []
    for k in range(14):
        ang = 2 * math.pi * k / 14
        ring.append(Circle(Point2(8 * math.cos(ang), 8 * math.sin(ang)), 2.2))
    env = Environment(Bounds(-40, 40, -40, 20), tuple(ring))
    return env, Query(Point2(30.0, -30.0), Point2(0.0, 0.0))


def test_infeasible_reports_closest_approach():
    env, q = _ring_case()
    res = plan_rrt_star(env, q, RrtParams(iterations_num=200, rng_seed=1))
    assert not res.feasible
    assert res.path is None
    assert math.isnan(res.length)
    assert math.isfinite(res.closest_approach)
    assert res.closest_approach > 3.0


def test_full_budget_is_spent():
    q = Query(Point2(0.0, 0.0), Point2(10.0, 0.0))
    res = plan_rrt_star(EMPTY, q, RrtParams(iterations_num=150, rng_seed=2))
    assert res.iterations_used == 150


def test_result_params_snapshot():
    q = Query(Point2(0.0, 0.0), Point2(4.0, 0.0))
    params = RrtParams(iterations_num=50, rng_seed=17)
    res = plan_rrt_star(EMPTY, q, params)
    assert res.planner_id == "rrtstar"
    assert res.seed == 17
    assert res.params["iterations_num"] == 50
    assert res.params["step_size"] == 2.0


@pytest.mark.parametrize("iterations", [1, 5])
def test_should_stop_turns_true_after_the_last_iteration(iterations):
    run = RrtStarRun(EMPTY, Query(Point2(0.0, 0.0), Point2(10.0, 0.0)),
                     RrtParams(iterations_num=iterations))
    seen = [run.should_stop]
    for _ in range(iterations):
        run.step()
        seen.append(run.should_stop)
    assert seen == [False] * iterations + [True]
    assert run.iteration == iterations


def test_a_goal_node_behind_a_wall_is_not_a_path():
    # The start lies within min_threshold of the target, with a thin wall
    # between them: the root is the cheapest goal-region node by cost plus
    # straight-line distance, but its segment to the target is blocked.
    wall = Polygon((Point2(0.9, -5.0), Point2(1.1, -5.0), Point2(1.1, 5.0),
                    Point2(0.9, 5.0)))
    env = Environment(Bounds(-10.0, 10.0, -10.0, 10.0), (wall,))
    q = Query(Point2(0.0, 0.0), Point2(2.0, 0.0))
    res = plan_rrt_star(env, q, RrtParams(iterations_num=300, rng_seed=0))
    assert res.feasible
    assert res.path[0] == q.start and res.path[-1] == q.target
    assert len(res.path) > 2
    assert audit_path(res.path, env)
    assert res.length == path_length(res.path)
    assert res.closest_approach == 0.0


# The run keeps no goal bookkeeping and reads it off the tree. The oracle
# keeps it the incremental way, from the indices step() returns: the goal
# set, the closest approach, and the best node as the cheapest goal node
# on the target or with a free segment to it (ties to the lower index).
@pytest.mark.parametrize("name", ["empty", "field-1000", "irregular-a", "ring"])
def test_goal_state_read_off_the_tree_matches_an_incremental_oracle(name):
    if name == "ring":
        (env, query), params = _ring_case(), RrtParams(iterations_num=200, rng_seed=1)
    else:
        env, query = _pinned_case(name)
        params = RrtParams(iterations_num=600 if name == "empty" else 2000)
    run = RrtStarRun(env, query, params)
    tree, target = run.tree, query.target

    def oracle_best():
        best = None
        for i in goal:
            p = tree.position(i)
            if p == target or edge_free(p, target, env):
                total = tree.cost_to_come(i) + dist(p, target)
                if best is None or total < best[1]:
                    best = (i, total)
        return best

    closest = dist(query.start, target)
    goal = [0] if closest <= params.min_threshold else []
    while not run.should_stop:
        idx = run.step()
        if idx is not None:
            d = dist(tree.position(idx), target)
            closest = min(closest, d)
            if d <= params.min_threshold:
                goal.append(idx)
        if run.iteration % 250 == 0 or run.should_stop:
            assert run.best_goal() == oracle_best()
    assert goal == [i for i in range(len(tree))
                    if dist(tree.position(i), target) <= params.min_threshold]
    res = run.result(0.0)
    if res.feasible:
        assert res.closest_approach == 0.0 and res.path[-1] == target
    else:
        assert oracle_best() is None
        assert res.closest_approach == closest
    assert (name == "ring") != res.feasible
