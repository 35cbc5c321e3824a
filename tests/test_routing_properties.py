"""A* over the contracted road graph against the per-cell-callable A*
that the package first had, kept here as the oracle: every route must
cost what the oracle's costs. Also the graph's structure, the per-step
path memo, the unit-cost twin that shares a router's component labels
once the router has them, when a router computes its labels, and the
router's reachability rule. Its labels come from the graph: free nodes
joined along chains with no blocked cell, and a free chain cell labelled
by an end node it reaches, or on its own when blocked cells cut it off
from both. Where scipy is installed, the rule is checked against the one
the package had over `ndimage.label`'s 4-connected grid labels."""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop import mobility as mob
from floodloop.config import WorldConfig
from floodloop.rng import pystream
from floodloop.world import build_world

Cell = tuple[int, int]


def callable_plan_path(
    origin: Cell,
    destination: Cell,
    passable: Callable[[Cell], bool],
    shape: tuple[int, int],
    step_cost: Callable[[Cell], float] | None = None,
) -> list[Cell] | None:
    """The first A* of the package, over per-cell callables, kept verbatim as an oracle."""
    if origin == destination:
        return [origin]
    h_rows, h_cols = shape

    def heuristic(cell: Cell) -> int:
        return abs(cell[0] - destination[0]) + abs(cell[1] - destination[1])

    g_score: dict[Cell, float] = {origin: 0.0}
    came_from: dict[Cell, Cell] = {}
    open_heap: list[tuple[float, int, int]] = [(float(heuristic(origin)), origin[0], origin[1])]
    closed: set[Cell] = set()

    while open_heap:
        _, r, c = heapq.heappop(open_heap)
        current = (r, c)
        if current in closed:
            continue
        closed.add(current)
        if current == destination:
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            path.reverse()
            return path
        base_g = g_score[current]
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nb = (r + dr, c + dc)
            if not (0 <= nb[0] < h_rows and 0 <= nb[1] < h_cols):
                continue
            if nb in closed or not passable(nb):
                continue
            cost = 1.0 if step_cost is None else step_cost(nb)
            tentative = base_g + cost
            if tentative < g_score.get(nb, float("inf")):
                g_score[nb] = tentative
                came_from[nb] = current
                heapq.heappush(open_heap, (tentative + heuristic(nb), nb[0], nb[1]))
    return None


@st.composite
def routing_cases(draw, cost_values=st.integers(1, 4), n_pairs=1):
    """A random mask, costs >= 1 (or none), and `n_pairs` (origin, destination) pairs.

    Small integer costs make equal-cost routes plentiful. Origin and
    destination may be blocked.
    """
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    mask = np.array(draw(st.lists(st.booleans() | st.just(True), min_size=h * w, max_size=h * w))).reshape(h, w)
    cost = None
    if draw(st.booleans()):
        values = draw(st.lists(cost_values, min_size=h * w, max_size=h * w))
        cost = np.array(values, dtype=np.float64).reshape(h, w)
    pairs = draw(st.lists(st.tuples(cells, cells), min_size=n_pairs, max_size=n_pairs))
    return mask, cost, pairs


def routed(mask, graph, cost=None):
    """A Router over `graph` with the costs of the grid `cost`, unit when None."""
    return mob.Router(mask, graph, None if cost is None else mob.RouteCosts(graph, cost))


def make_router(mask, cost=None, origins=()):
    """A Router over the road graph of the passable cells and `origins`: as
    in the engine, whose graph is the unflooded road, an origin lies on the
    graph even where it has flooded."""
    road = mask.copy()
    for cell in origins:
        road[cell] = True
    return routed(mask, mob.road_graph(road), cost)


def oracle(mask, cost, origin, destination):
    step_cost = None if cost is None else (lambda cell: float(cost[cell]))
    return callable_plan_path(origin, destination, lambda cell: bool(mask[cell]), mask.shape, step_cost)


def path_cost(path, cost) -> float:
    return sum(1.0 if cost is None else float(cost[cell]) for cell in path[1:])


def assert_same_route_cost(got, expected, mask, cost, origin, destination, rel=0.0):
    """`got` is found exactly when `expected` is, costs what it costs, and is
    a 4-connected walk from origin to destination over passable cells."""
    assert (got is None) == (expected is None)
    if got is None:
        return
    assert got[0] == origin and got[-1] == destination
    for a, b in zip(got, got[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        assert mask[b]
    assert path_cost(got, cost) == pytest.approx(path_cost(expected, cost), rel=rel, abs=0.0)


@settings(deadline=None, max_examples=400)
@given(routing_cases())
def test_contracted_path_costs_what_cell_astar_finds(case):
    mask, cost, [(origin, destination)] = case
    got = mob.plan_path(origin, destination, make_router(mask, cost, [origin]))
    assert_same_route_cost(got, oracle(mask, cost, origin, destination), mask, cost, origin, destination)


@settings(deadline=None, max_examples=200)
@given(routing_cases(cost_values=st.sampled_from([1.0, 1.1, 1.7, 3.3, 5.0])))
def test_fractional_costs_accumulate_like_the_callable_astar(case):
    # edge costs are summed in another order than cell-level g, so they
    # agree to rounding, and a near-tie may pick another route
    mask, cost, [(origin, destination)] = case
    got = mob.plan_path(origin, destination, make_router(mask, cost, [origin]))
    assert_same_route_cost(got, oracle(mask, cost, origin, destination), mask, cost, origin, destination, rel=1e-12)


@settings(deadline=None, max_examples=100)
@given(routing_cases(n_pairs=4), st.data())
def test_route_memo_returns_the_planned_path(case, data):
    # repeated and overlapping pairs: shared origins or destinations must not collide
    mask, cost, pairs = case
    origins = [o for o, _ in pairs]
    router = make_router(mask, cost, origins)
    for origin, destination in pairs + data.draw(st.permutations(pairs)):
        got = router.route(origin, destination)
        assert got == mob.plan_path(origin, destination, make_router(mask, cost, origins))
        assert_same_route_cost(got, oracle(mask, cost, origin, destination), mask, cost, origin, destination)


@settings(deadline=None, max_examples=200)
@given(routing_cases(n_pairs=4), st.data())
def test_unit_cost_twin_routes_like_a_fresh_router(case, data):
    # the spawn router of a step with routing penalties shares the costed
    # router's labels once computed; its answers and memo must be those of
    # its own router
    mask, cost, pairs = case
    origins = [o for o, _ in pairs]
    costed = make_router(mask, cost, origins)
    costed.labels
    twin = costed.with_unit_cost()
    fresh = make_router(mask, None, origins)
    assert twin.labels is costed.labels and twin.blocked is costed.blocked
    for origin, destination in pairs + data.draw(st.permutations(pairs)):
        assert twin.route(origin, destination) == fresh.route(origin, destination)
        got = costed.route(origin, destination)
        assert_same_route_cost(got, oracle(mask, cost, origin, destination), mask, cost, origin, destination)
    assert twin._paths == fresh._paths


def test_open_grid_ties_break_on_row_then_column():
    # all monotone routes tie at f = 4, and nodes expand in (f, index) order:
    # (0, 1) goes before (1, 0) and is the first to reach (1, 2), which is
    # expanded before (2, 1) and so is the first to offer the goal
    mask = np.ones((3, 3), dtype=bool)
    path = mob.plan_path((0, 0), (2, 2), make_router(mask))
    assert_same_route_cost(path, oracle(mask, None, (0, 0), (2, 2)), mask, None, (0, 0), (2, 2))
    assert path == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]


# --- the contracted graph -----------------------------------------------------------

def padded(cell, graph) -> int:
    return (cell[0] + 1) * graph.width + cell[1] + 1


def unpadded(i, graph) -> Cell:
    return graph.rows[i] - 1, graph.cols[i] - 1


def nodes_of(graph) -> set[Cell]:
    return {unpadded(i, graph) for i, edges in enumerate(graph.out) if edges is not None}


@settings(deadline=None, max_examples=200)
@given(routing_cases())
def test_graph_covers_the_road_in_chains_between_nodes(case):
    mask = case[0]
    graph = mob.RoadGraph(mask)
    road = {(int(r), int(c)) for r, c in zip(*np.nonzero(mask))}
    nodes = nodes_of(graph)
    inner = {unpadded(i, graph) for i in graph.interior}
    assert nodes | inner == road and not nodes & inner
    for e, (lo, hi) in enumerate(zip(graph.offsets, graph.offsets[1:])):
        cells = [unpadded(graph.tail[e], graph)] + [unpadded(i, graph) for i in graph.chain[lo:hi]]
        assert cells[0] in nodes and cells[-1] in nodes and set(cells[1:-1]) <= inner
        assert all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 for a, b in zip(cells, cells[1:]))
        assert (e, graph.chain[hi - 1]) in graph.out[graph.tail[e]]
    for i, sides in graph.interior.items():
        for lo, index, hi in sides:
            assert graph.chain[index] == i and lo <= index < hi - 1
        # the two sides run the same chain in opposite directions
        (lo_a, i_a, hi_a), (lo_b, i_b, hi_b) = sides
        assert graph.chain[lo_a:hi_a - 1] == graph.chain[lo_b:hi_b - 1][::-1]


def test_lattice_contracts_to_its_junctions_and_dead_ends():
    # 16 road rows and 16 road columns: 256 junctions, 32 dead ends at the
    # far edges, and the corner (0, 0), of degree 2, inside a chain
    world = build_world(WorldConfig(64, 64), 7)
    graph = mob.road_graph(world.is_road)
    assert int(world.is_road.sum()) == 1792
    assert len(nodes_of(graph)) == 287 and len(graph.tail) == 1022
    assert (0, 0) not in nodes_of(graph)
    assert mob.road_graph(world.is_road.copy()) is graph  # one build per road mask


def test_spacing_one_makes_every_cell_but_the_corners_a_node():
    world = build_world(WorldConfig(8, 6, 4, road_spacing=1), 1)
    graph = mob.road_graph(world.is_road)
    corners = {(0, 0), (0, 7), (5, 0), (5, 7)}
    assert nodes_of(graph) == {(r, c) for r in range(6) for c in range(8)} - corners
    assert max(hi - lo for lo, hi in zip(graph.offsets, graph.offsets[1:])) == 2


@pytest.mark.parametrize("spacing", [1, 2, 3])
def test_small_spacings_route_like_cell_astar(spacing):
    world = build_world(WorldConfig(13, 11, 1, road_spacing=spacing), spacing)
    rng = np.random.default_rng(spacing)
    road = world.road_cells()
    mask = world.is_road.copy()
    for k in rng.choice(len(road), len(road) // 6, replace=False):
        mask[road[k]] = False  # flooded cells
    cost = rng.integers(1, 4, world.shape).astype(np.float64)
    for c in (None, cost):
        router = routed(mask, mob.road_graph(world.is_road), c)
        for a, b in rng.choice(len(road), (60, 2)):
            o, d = road[a], road[b]
            got = mob.plan_path(o, d, router)
            assert_same_route_cost(got, oracle(mask, c, o, d), mask, c, o, d)


def lattice_router(blocked=(), cost=None):
    world = build_world(WorldConfig(16, 16, 4), 3)
    mask = world.is_road.copy()
    for cell in blocked:
        mask[cell] = False
    return mask, routed(mask, mob.road_graph(world.is_road), cost)


def test_mid_chain_and_same_chain_pairs():
    # (0, 3)..(0, 1), the corner (0, 0) and (1, 0)..(3, 0) make up the
    # chain from junction (0, 4) to junction (4, 0); every pair among some
    # of them, in both directions, and to and from cells of other chains
    mask, router = lattice_router()
    cells = [(0, 1), (0, 2), (0, 3), (2, 4), (4, 6), (7, 0), (0, 0)]
    for o in cells:
        for d in cells:
            assert_same_route_cost(mob.plan_path(o, d, router), oracle(mask, None, o, d), mask, None, o, d)
    assert mob.plan_path((0, 1), (0, 3), router) == [(0, 1), (0, 2), (0, 3)]
    assert mob.plan_path((0, 3), (0, 1), router) == [(0, 3), (0, 2), (0, 1)]


def test_same_chain_pair_goes_around_a_block_between_them():
    cost = np.ones((16, 16))
    cost[5:8, :] = 2.0
    mask, router = lattice_router(blocked=[(4, 2)], cost=cost)
    for o, d in (((4, 1), (4, 3)), ((4, 3), (4, 1)), ((4, 1), (4, 2)), ((1, 4), (3, 4))):
        assert_same_route_cost(mob.plan_path(o, d, router), oracle(mask, cost, o, d), mask, cost, o, d)
    assert mob.plan_path((4, 1), (4, 2), router) is None


@pytest.mark.parametrize("origin", [(4, 2), (4, 4), (0, 0)])
def test_blocked_origin_leaves_through_its_open_neighbours(origin):
    # an agent may stand on a cell that has since flooded: inside a chain,
    # on a junction, and on the lattice corner
    mask, router = lattice_router(blocked=[origin])
    for d in [(4, 0), (4, 3), (12, 9), (0, 15), origin]:
        assert_same_route_cost(mob.plan_path(origin, d, router), oracle(mask, None, origin, d), mask, None, origin, d)


def test_nodeless_loop_gets_one_node_at_its_lowest_index():
    ring = np.zeros((5, 6), dtype=bool)
    ring[1, 1:5] = ring[3, 1:5] = ring[1:4, 1] = ring[1:4, 4] = True
    graph = mob.RoadGraph(ring)
    assert nodes_of(graph) == {(1, 1)}
    assert len(graph.tail) == 2 and graph.tail == [padded((1, 1), graph)] * 2
    cells = [(int(r), int(c)) for r, c in zip(*np.nonzero(ring))]
    router = make_router(ring)
    for o in cells:
        for d in cells:
            assert_same_route_cost(mob.plan_path(o, d, router), oracle(ring, None, o, d), ring, None, o, d)


def test_router_rejects_a_graph_that_misses_a_passable_cell():
    mask = np.ones((4, 4), dtype=bool)
    with pytest.raises(ValueError):
        mob.Router(mask, mob.road_graph(np.eye(4, dtype=bool)))


# --- memo and reachability -------------------------------------------------------------

def count_plans(monkeypatch) -> list[tuple[Cell, Cell]]:
    calls = []
    plan = mob.plan_path

    def counting(origin, destination, router):
        calls.append((origin, destination))
        return plan(origin, destination, router)

    monkeypatch.setattr(mob, "plan_path", counting)
    return calls


def test_repeat_query_in_one_step_is_served_from_the_memo(monkeypatch):
    calls = count_plans(monkeypatch)
    router = make_router(np.ones((6, 6), dtype=bool))
    first = router.route((0, 0), (5, 5))
    expected = list(first)
    first.append((9, 9))  # callers own the list they get
    assert router.route((0, 0), (5, 5)) == expected
    router.route((5, 5), (0, 0))  # another pair is planned afresh
    assert calls == [((0, 0), (5, 5)), ((5, 5), (0, 0))]


def test_unreachable_result_is_memoised(monkeypatch):
    calls = count_plans(monkeypatch)
    mask = np.ones((3, 3), dtype=bool)
    mask[:, 1] = False
    router = make_router(mask)
    router.labels
    assert router.route((0, 0), (0, 2)) is None
    assert router.route((0, 0), (0, 2)) is None
    assert calls == []  # the component labels answer without a search
    assert router._paths == {((0, 0), (0, 2)): None}


@settings(deadline=None, max_examples=300)
@given(routing_cases(n_pairs=4))
def test_route_searches_exactly_the_pairs_astar_can_join(case):
    # blocked origins and destinations included: A* may leave a blocked
    # origin, so its open neighbours' components count as reachable
    mask, cost, pairs = case
    plan = mob.plan_path
    with pytest.MonkeyPatch.context() as mp:
        calls = count_plans(mp)
        for origin, destination in pairs:
            found = plan(origin, destination, make_router(mask, cost, [origin])) is not None
            router = make_router(mask, cost, [origin])
            router.labels
            calls.clear()
            assert (router.route(origin, destination) is not None) == found
            assert calls == ([(origin, destination)] if found else [])


def test_router_whose_routes_all_succeed_never_labels(monkeypatch):
    calls = count_plans(monkeypatch)
    mask = np.ones((5, 5), dtype=bool)
    mask[2, 1:4] = False
    router = make_router(mask)
    twin = router.with_unit_cost()
    for o, d in (((0, 0), (4, 4)), ((4, 0), (0, 2)), ((1, 2), (3, 2)), ((0, 0), (4, 4))):
        assert router.route(o, d) is not None and twin.route(o, d) is not None
    assert len(calls) == 6  # each pair searched once per router, the repeat from the memo
    assert router._labels is None and twin._labels is None


@settings(deadline=None, max_examples=200)
@given(routing_cases(n_pairs=4))
def test_failed_search_labels_and_the_next_refused_pair_costs_none(case):
    mask, cost, pairs = case
    router = make_router(mask, cost, [o for o, _ in pairs])
    labelled = make_router(mask, cost, [o for o, _ in pairs])
    labelled.labels
    with pytest.MonkeyPatch.context() as mp:
        calls = count_plans(mp)
        failed = 0
        for origin, destination in pairs:
            searched = len(calls)
            path = router.route(origin, destination)
            assert path == labelled.route(origin, destination)
            if path is None and len(calls) > searched:
                failed += 1
            assert (router._labels is None) == (failed == 0)
        assert failed <= 1  # once the labels exist, no search fails


def test_replan_labels_before_it_searches(monkeypatch):
    mask = np.ones((3, 5), dtype=bool)
    mask[:, 2] = False  # the middle column cuts the grid in two
    mask[1, 0] = False
    router = make_router(mask, origins=[(1, 0)])
    seen = []
    plan = mob.plan_path

    def recording(origin, destination, r):
        seen.append(r._labels is not None)
        return plan(origin, destination, r)

    monkeypatch.setattr(mob, "plan_path", recording)
    assert router.replan((1, 0), (2, 0)) is None  # standing on a blocked cell
    assert seen == [] and router._labels is None  # refused before the labels
    near = router.replan((0, 0), (2, 1))
    assert near[0] == (0, 0) and near[-1] == (2, 1)
    assert seen == [True]
    assert router.replan((0, 0), (0, 4)) is None
    assert seen == [True]  # the labels refuse the cut-off destination without a search
    assert router._paths == {((0, 0), (2, 1)): tuple(near), ((0, 0), (0, 4)): None}
    assert router.replan((0, 0), (2, 1)) == near and seen == [True]  # the second ask from the memo


def test_bus_replan_labels_before_it_searches(monkeypatch):
    # the bus's next cell (0, 1) is blocked and the middle column cuts its
    # next stop (0, 4) off; the replan must refuse that leg without a search
    world = build_world(WorldConfig(5, 3, 1, road_spacing=1), 0)
    mask = np.ones((3, 5), dtype=bool)
    mask[:, 2] = mask[0, 1] = False
    bus = mob.make_bus(1, [(0, 0), (0, 4), (2, 1)], 0, make_router(np.ones((3, 5), dtype=bool)))
    bus.status = mob.Status.ENROUTE
    router = mob.Router(mask, mob.road_graph(world.is_road))
    seen = []
    plan = mob.plan_path

    def recording(origin, destination, r):
        seen.append((destination, r._labels is not None))
        return plan(origin, destination, r)

    monkeypatch.setattr(mob, "plan_path", recording)
    events = mob.step_agent(bus, world, router, set(), pystream(0, "coin"), 1, mob.TripLog(), 0.0)
    assert events == ["replanned"] and bus.stops == [(0, 0), (2, 1)] and bus.pos == (1, 0)
    assert seen == [((2, 1), True)]


def test_new_step_router_recomputes(monkeypatch):
    calls = count_plans(monkeypatch)
    mask = np.ones((5, 5), dtype=bool)
    before = make_router(mask).route((0, 0), (0, 4))
    assert before == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
    mask = mask.copy()
    mask[0, 2] = False  # the next step closes a cell on that route
    after = make_router(mask).route((0, 0), (0, 4))
    assert (0, 2) not in after
    assert_same_route_cost(after, oracle(mask, None, (0, 0), (0, 4)), mask, None, (0, 0), (0, 4))
    assert len(calls) == 2


# --- reachability against the 4-connected grid labels -----------------------------------

def ndimage_reachable(router):
    """The reachability rule the package had before its labels came from the
    road graph, over `ndimage.label`'s 4-connected labels of the padded free
    cells, kept as the oracle."""
    ndimage = pytest.importorskip("scipy.ndimage")
    free = np.frombuffer(router.blocked, dtype=np.uint8).reshape(-1, router.width) == 0
    labels = ndimage.label(free, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])[0].ravel().tolist()
    width = router.width

    def reachable(origin: Cell, destination: Cell) -> bool:
        if origin == destination:
            return True
        label = labels[(destination[0] + 1) * width + destination[1] + 1]
        start = (origin[0] + 1) * width + origin[1] + 1
        return label != 0 and label in (
            labels[start], labels[start - width], labels[start + width], labels[start - 1], labels[start + 1]
        )

    return reachable


def assert_reachable_as_ndimage(router, origins, destinations):
    expected = ndimage_reachable(router)
    for o in origins:
        for d in destinations:
            assert router._reachable(o, d) == expected(o, d), (o, d)


@settings(deadline=None, max_examples=300)
@given(routing_cases(n_pairs=4))
def test_reachability_matches_ndimage_labels_on_random_masks(case):
    mask, cost, pairs = case
    origins = [o for o, _ in pairs]
    cells = [(r, c) for r in range(mask.shape[0]) for c in range(mask.shape[1])]
    assert_reachable_as_ndimage(make_router(mask, cost, origins), origins, cells)


@pytest.mark.parametrize(
    "blocked",
    [
        # the chain from junction (0, 4) round the corner to junction (4, 0),
        # and the one from (4, 4) to (4, 8), each cut on both sides
        [(0, 2), (2, 0), (4, 5), (4, 7)],
        [(4, 4)],  # a junction
        [(4, 2)],  # a chain interior
        [(0, 0)],  # the corner, inside a chain
        [(0, 4), (4, 0), (0, 0)],  # both end nodes of a chain and a cell between them
    ],
    ids=["chains-cut-on-both-sides", "junction", "interior", "corner", "ends-cut"],
)
def test_reachability_matches_ndimage_labels_on_lattice_cuts(blocked):
    # every road cell as origin, the blocked ones included, to every road cell
    _, router = lattice_router(blocked)
    road = [(int(r), int(c)) for r, c in zip(*np.nonzero(router.graph.road))]
    assert_reachable_as_ndimage(router, road, road)


_LATTICE = build_world(WorldConfig(24, 20, 4), 5)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_reachability_matches_ndimage_labels_on_lattices_with_random_blocks(data):
    # spacing 4: chains three cells long, so random blocks cut many on both sides
    road = _LATTICE.road_cells()
    blocked = data.draw(st.sets(st.sampled_from(road), max_size=len(road) // 2))
    mask = _LATTICE.is_road.copy()
    for cell in blocked:
        mask[cell] = False
    router = mob.Router(mask, mob.road_graph(_LATTICE.is_road))
    origins = sorted(blocked) + data.draw(st.lists(st.sampled_from(road), max_size=8)) + [(0, 0)]
    assert_reachable_as_ndimage(router, origins, road)


@pytest.mark.parametrize("blocked", [[], [(1, 1)], [(1, 3)], [(1, 2), (3, 3)], [(1, 1), (3, 4)]])
def test_reachability_matches_ndimage_labels_on_a_nodeless_loop(blocked):
    # the loop's one node, (1, 1), blocked or not, and cuts that split the loop
    ring = np.zeros((5, 6), dtype=bool)
    ring[1, 1:5] = ring[3, 1:5] = ring[1:4, 1] = ring[1:4, 4] = True
    mask = ring.copy()
    for cell in blocked:
        mask[cell] = False
    router = mob.Router(mask, mob.road_graph(ring))
    cells = [(int(r), int(c)) for r, c in zip(*np.nonzero(ring))]
    assert_reachable_as_ndimage(router, cells, cells)
