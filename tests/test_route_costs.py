"""The routing costs that an engine shares between its routers, against the
per-router costs they replaced, and how much routing work a run does.

`oracle_weights` is the former `Router`'s cost handling, kept verbatim:
it padded the cost grid by a ring of ones when the router was built and,
on the router's first search, gathered the chain cells' costs and summed
them per edge. The engine now keeps one `RouteCosts` per penalty set and
builds its costs on the first search after the set changes; they must be
the oracle's, bit for bit. On the golden `ruled` run the work is pinned:
the costs are built at most once per penalty set, a refused resident
replan neither routes nor searches, and the run searches as often as it
did when every router built its own costs.
"""

from __future__ import annotations

import tempfile
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import golden_config

from floodloop import engine as engine_module
from floodloop import harness
from floodloop import mobility as mob
from floodloop.config import RunConfig
from floodloop.engine import SimulationEngine
from floodloop.translate import Instruction, InstructionBoard, Tag
from floodloop.world import ScenarioKind, generate_scenario

# the golden `ruled` run's searches, counted when every router built its own costs
GOLDEN_RULED_SEARCHES = 193


def oracle_weights(graph: mob.RoadGraph, cost: np.ndarray) -> tuple[list[float], list[float]]:
    """The cost of each chain cell and of each edge, as the former
    `Router.__init__` and `Router.weights` computed them."""
    free = np.zeros((graph.road.shape[0] + 2, graph.road.shape[1] + 2), dtype=bool)
    padded = np.ones(free.shape)
    padded[1:-1, 1:-1] = cost
    padded_cost = padded.ravel()
    cost = padded_cost[graph.chain_array]
    return cost.tolist(), np.add.reduceat(cost, graph.starts).tolist()


def small_engine(**mobility) -> SimulationEngine:
    cfg = RunConfig(seed=1, scenario="extreme", steps=12)
    cfg.world.width = cfg.world.height = 32
    cfg.world.n_regions = 16
    cfg.mobility.initial_population = 120
    cfg.mobility.initial_stagger = 4
    cfg.mobility.n_buses = 3
    for name, value in mobility.items():
        setattr(cfg.mobility, name, value)
    return SimulationEngine(cfg, generate_scenario(ScenarioKind.EXTREME, cfg.steps, cfg.seed))


def routing(region: int, penalty: float, window: tuple[int, int]) -> Instruction:
    return Instruction(Tag.ROUTING, region, None, (("penalty", penalty),), window)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def count_builds(monkeypatch) -> list[mob.RouteCosts]:
    """The `RouteCosts` whose costs were built, once per build."""
    built = []
    weights = mob.RouteCosts.weights

    def counting(self):
        if self._weights is None:
            built.append(self)
        return weights(self)

    monkeypatch.setattr(mob.RouteCosts, "weights", counting)
    return built


def count_searches(monkeypatch) -> list[mob.RouteCosts | None]:
    """The costs of each search's router, once per search."""
    calls = []
    plan = mob.plan_path

    def counting(origin, destination, router):
        calls.append(router.costs)
        return plan(origin, destination, router)

    monkeypatch.setattr(mob, "plan_path", counting)
    return calls


# penalties: fractional, whole, and the same region more than once, where the largest wins
penalty_sets = st.lists(
    st.tuples(st.integers(0, 15), st.sampled_from([0.3, 1.0, 1.7, 2.45, 4.0, 8.0]) | st.floats(0.01, 9.0)),
    max_size=6,
)


@settings(deadline=None, max_examples=40)
@given(penalty_sets)
def test_shared_costs_are_the_per_router_costs_bit_for_bit(penalties):
    engine = small_engine()
    engine.board.dispatch([routing(region, penalty, (0, 3)) for region, penalty in penalties])
    engine.step()
    expected = {}
    for region, penalty in penalties:
        expected[region] = max(expected.get(region, 0.0), penalty)
    assert engine.board.region_penalties(0) == expected
    if not expected:
        assert engine._costs is None
        return
    chain, edges = engine._costs.weights()
    want_chain, want_edges = oracle_weights(engine.graph, engine._cost_grid(expected))
    assert bits(chain) == bits(want_chain) and bits(edges) == bits(want_edges)
    assert type(edges[0]) is float  # a list of Python floats for A*
    router = mob.Router(engine.world.is_road, engine.graph, engine._costs)
    assert router.weights()[2] is chain and router.weights()[3] is edges


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 9), st.integers(1, 9), st.lists(st.floats(1.0, 20.0), min_size=81, max_size=81), st.data())
def test_costs_of_any_grid_match_the_oracle(height, width, values, data):
    road = np.array(data.draw(st.lists(st.booleans(), min_size=height * width, max_size=height * width)))
    graph = mob.RoadGraph(road.reshape(height, width))
    grid = np.array(values[: height * width]).reshape(height, width)
    chain, edges = mob.RouteCosts(graph, grid).weights()
    want_chain, want_edges = oracle_weights(graph, grid)
    assert bits(chain) == bits(want_chain) and bits(edges) == bits(want_edges)


def test_costs_follow_the_penalty_set_as_windows_open_and_close(monkeypatch):
    # this engine's costed routers first search at step 6, once the rain
    # has blocked cells; each window opens or closes on a step that searches
    engine = small_engine()
    engine.board.dispatch([routing(3, 2.5, (6, 8)), routing(7, 1.5, (8, 9)), routing(7, 1.5, (10, 10))])
    built = count_builds(monkeypatch)
    searches = count_searches(monkeypatch)
    costs, built_in_step, searched_in_step = [], [], []
    for _ in range(12):
        before, searched = len(built), len(searches)
        engine.step()
        costs.append(engine._costs)
        built_in_step.append(built[before:])
        searched_in_step.append([c for c in searches[searched:] if c is not None])
    # steps 0-5 {}, 6-7 {3: 2.5}, 8 {3: 2.5, 7: 1.5}, 9-10 {7: 1.5} (two windows back to back), 11 {}
    assert all(costs[k] is None for k in (0, 1, 2, 3, 4, 5, 11))
    a, b, c = costs[6], costs[8], costs[9]
    assert costs[7] is a and costs[10] is c and len({id(a), id(b), id(c)}) == 3
    for x, penalties in ((a, {3: 2.5}), (b, {3: 2.5, 7: 1.5}), (c, {7: 1.5})):
        assert bits(x.grid) == bits(engine._cost_grid(penalties))
    # each set's costs are built once, on the first search that reads them
    first_search = {}
    for step, searched in enumerate(searched_in_step):
        for x in searched:
            first_search.setdefault(id(x), step)
    assert [[id(x) for x in step] for step in built_in_step] == [
        [id(x) for x in (a, b, c) if first_search.get(id(x)) == step] for step in range(12)
    ]
    assert [bool(step) for step in built_in_step] == [False] * 6 + [True, False, True, True, False, False]


def test_a_run_that_never_searches_builds_no_costs(monkeypatch):
    engine = small_engine(initial_population=0, spawn_rate=0, n_buses=0)
    engine.board.dispatch([routing(3, 2.5, (1, 3)), routing(5, 4.0, (2, 5))])
    built = count_builds(monkeypatch)
    searches = count_searches(monkeypatch)
    for _ in range(7):
        engine.step()
        assert engine._costs is None or engine._costs._weights is None
    assert searches == [] and built == []


def test_golden_ruled_run_routes_once_per_change(monkeypatch):
    built = count_builds(monkeypatch)
    searches = count_searches(monkeypatch)
    penalties = []
    region_penalties = InstructionBoard.region_penalties

    def recording(self, step):
        out = region_penalties(self, step)
        penalties.append(dict(out))
        return out

    monkeypatch.setattr(InstructionBoard, "region_penalties", recording)
    routed = Counter()
    route = mob.Router.route

    def counting_route(self, origin, destination):
        routed["route"] += 1
        return route(self, origin, destination)

    monkeypatch.setattr(mob.Router, "route", counting_route)
    step_agent = engine_module.step_agent

    def refused_replans(agent, *args):
        before = routed["route"], len(searches)
        kinds = step_agent(agent, *args)
        if agent.role is mob.Role.RESIDENT and "blocked" in kinds:
            routed["refused"] += 1
            routed["refused routes"] += routed["route"] - before[0]
            routed["refused searches"] += len(searches) - before[1]
        return kinds

    monkeypatch.setattr(engine_module, "step_agent", refused_replans)
    with tempfile.TemporaryDirectory() as tmp:
        harness.run(golden_config("ruled", (), tmp))
    changes = sum(1 for prev, cur in zip([{}] + penalties, penalties) if cur and cur != prev)
    costed_steps = sum(1 for p in penalties if p)
    assert 0 < len(built) <= changes < costed_steps
    assert routed["refused"] > 0 and routed["refused routes"] == routed["refused searches"] == 0
    assert len(searches) == GOLDEN_RULED_SEARCHES
