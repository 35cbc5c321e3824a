"""Flat-index A* against the callable A* it replaced, its bucket-queue
expansion order, the router's reachability rule, the per-step path memo
and the unit-cost twin that shares a router's component labels."""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop import mobility as mob

Cell = tuple[int, int]


def callable_plan_path(
    origin: Cell,
    destination: Cell,
    passable: Callable[[Cell], bool],
    shape: tuple[int, int],
    step_cost: Callable[[Cell], float] | None = None,
) -> list[Cell] | None:
    """The per-cell-callable A* that `mob.plan_path` replaced, kept verbatim as the oracle."""
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

    Small integer costs make equal-cost routes plentiful, so the tie-break
    order is what decides most paths. Origin and destination may be blocked.
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


def oracle(mask, cost, origin, destination):
    step_cost = None if cost is None else (lambda cell: float(cost[cell]))
    return callable_plan_path(origin, destination, lambda cell: bool(mask[cell]), mask.shape, step_cost)


@settings(deadline=None, max_examples=400)
@given(routing_cases())
def test_flat_astar_returns_the_callable_astar_path(case):
    mask, cost, [(origin, destination)] = case
    assert mob.plan_path(origin, destination, mob.Router(mask, cost)) == oracle(mask, cost, origin, destination)


@settings(deadline=None, max_examples=200)
@given(routing_cases(cost_values=st.sampled_from([1.0, 1.1, 1.7, 3.3, 5.0])))
def test_fractional_costs_accumulate_like_the_callable_astar(case):
    mask, cost, [(origin, destination)] = case
    assert mob.plan_path(origin, destination, mob.Router(mask, cost)) == oracle(mask, cost, origin, destination)


@settings(deadline=None, max_examples=100)
@given(routing_cases(n_pairs=4), st.data())
def test_route_memo_returns_the_planned_path(case, data):
    # repeated and overlapping pairs: shared origins or destinations must not collide
    mask, cost, pairs = case
    router = mob.Router(mask, cost)
    for origin, destination in pairs + data.draw(st.permutations(pairs)):
        assert router.route(origin, destination) == oracle(mask, cost, origin, destination)



@settings(deadline=None, max_examples=200)
@given(routing_cases(n_pairs=4), st.data())
def test_unit_cost_twin_routes_like_a_fresh_router(case, data):
    # the spawn router of a step with routing penalties shares the costed
    # router's labels; its answers and memo must be those of its own router
    mask, cost, pairs = case
    costed = mob.Router(mask, cost)
    twin = costed.with_unit_cost()
    fresh = mob.Router(mask)
    assert twin.labels is costed.labels and twin.blocked is costed.blocked
    for origin, destination in pairs + data.draw(st.permutations(pairs)):
        assert twin.route(origin, destination) == fresh.route(origin, destination)
        assert costed.route(origin, destination) == oracle(mask, cost, origin, destination)
    assert twin._paths == fresh._paths

def test_open_grid_ties_break_on_row_then_column():
    # all monotone routes tie at f = 4; (0, 1) is expanded before (1, 0) and
    # claims (0, 2) and (1, 1) first, and (0, 2) then claims (1, 2)
    path = mob.plan_path((0, 0), (2, 2), mob.Router(np.ones((3, 3), dtype=bool)))
    assert path == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]
    assert path == callable_plan_path((0, 0), (2, 2), lambda c: True, (3, 3))


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
    router = mob.Router(np.ones((6, 6), dtype=bool))
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
    router = mob.Router(mask)
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
            found = plan(origin, destination, mob.Router(mask, cost)) is not None
            calls.clear()
            assert (mob.Router(mask, cost).route(origin, destination) is not None) == found
            assert calls == ([(origin, destination)] if found else [])


class ReadLog(list):
    """A cost list that records the flat index of every read."""

    def __init__(self, values):
        super().__init__(values)
        self.reads: list[int] = []

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


def test_bucket_ties_expand_the_lower_index_first():
    # on the open 3x3 grid (0, 1) and (1, 0) both enter the f = 4 bucket;
    # (0, 1) has the lower flat index, so it is expanded first and its
    # neighbours (1, 1) and (0, 2) are relaxed before (1, 0)'s (2, 0)
    router = mob.Router(np.ones((3, 3), dtype=bool))
    router.cost = ReadLog(router.cost)
    mob.plan_path((0, 0), (2, 2), router)
    relaxed = [(i // router.width - 1, i % router.width - 1) for i in router.cost.reads]
    assert relaxed[:5] == [(1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    assert relaxed.index((0, 2)) < relaxed.index((2, 0))


def test_new_step_router_recomputes(monkeypatch):
    calls = count_plans(monkeypatch)
    mask = np.ones((5, 5), dtype=bool)
    before = mob.Router(mask).route((0, 0), (0, 4))
    assert before == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
    mask = mask.copy()
    mask[0, 2] = False  # the next step closes a cell on that route
    after = mob.Router(mask).route((0, 0), (0, 4))
    assert (0, 2) not in after
    assert after == oracle(mask, None, (0, 0), (0, 4))
    assert len(calls) == 2


def test_heuristic_is_added_to_g_in_one_piece():
    # f = g + (dr + dc) and (g + dr) + dc round differently on this grid, and
    # the two orders then expand a different route among near-equal ones
    third = 1.0 / 3.0 + 1.0
    mask = np.array(
        [
            [0, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1],
            [0, 1, 1, 0, 1, 1],
            [1, 1, 1, 1, 1, 1],
            [1, 1, 0, 1, 1, 1],
            [0, 0, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1],
        ],
        dtype=bool,
    )
    cost = np.array(
        [
            [1.1, third, 3.3, 1.1, 5.0, 1.1],
            [third, 1.1, 1.1, 1.3, 1.1, 3.3],
            [1.0, 3.3, 1.1, 5.0, 2.2, 5.0],
            [5.0, 1.0, 1.1, 1.7, 1.1, 2.2],
            [5.0, 5.0, 1.7, 1.0, 1.3, third],
            [1.1, 2.2, 1.7, 1.1, 5.0, 1.1],
            [1.3, 1.0, third, 1.0, 1.7, 2.2],
            [third, 5.0, third, 3.3, 2.2, 1.1],
        ]
    )
    expected = oracle(mask, cost, (0, 0), (7, 4))
    assert mob.plan_path((0, 0), (7, 4), mob.Router(mask, cost)) == expected
