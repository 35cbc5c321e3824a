"""Pruning expired instructions does not change any board query, and a
board whose windows have all closed acts on the engine like an empty one."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop import engine as engine_module
from floodloop import translate as tr
from floodloop.config import RunConfig
from floodloop.world import ScenarioKind, generate_scenario

N_REGIONS = 4
STEPS = 30
# the parameter each tag's directives carry
PARAMS = {tr.Tag.ROUTING: (("penalty", 8.0),), tr.Tag.RELIEF: (("multiplier", 2.0),)}


def instruction(tag, region, cell, start, length):
    return tr.Instruction(tag, region, cell, PARAMS.get(tag, ()), (start, start + length))


instructions = st.builds(
    instruction,
    st.sampled_from(list(tr.Tag)),
    st.integers(0, N_REGIONS - 1),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, STEPS),
    st.integers(0, 12),
)


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.integers(0, STEPS - 1), st.lists(instructions, max_size=4), max_size=12))
def test_pruned_board_answers_like_the_full_one(schedule):
    # the engine's order: active_regions(k) and dispatch at a cycle boundary,
    # then prune(k) and every effect of the step at k
    full = tr.InstructionBoard(N_REGIONS)
    pruned = tr.InstructionBoard(N_REGIONS)
    for k in range(STEPS):
        assert pruned.active_regions(k) == full.active_regions(k)
        full.dispatch(schedule.get(k, []))
        pruned.dispatch(schedule.get(k, []))
        pruned.prune(k)
        assert np.array_equal(pruned.drain_multipliers(k), full.drain_multipliers(k))
        assert pruned.closed_cells(k) == full.closed_cells(k)
        assert pruned.region_penalties(k) == full.region_penalties(k)
        assert pruned.bus_held(k) == full.bus_held(k)


def test_prune_keeps_current_and_future_windows():
    board = tr.InstructionBoard(N_REGIONS)
    past, current, future = (tr.Instruction(tr.Tag.OBSTACLE, 0, (r, 0), (), w) for r, w in ((0, (0, 4)), (1, (3, 5)), (2, (8, 9))))
    board.dispatch([past, current, future])
    board.prune(5)
    assert board.obstacles == [current, future]


ENGINE_SIDE = 16

engine_instructions = st.builds(
    instruction,
    st.sampled_from(list(tr.Tag)),
    st.integers(0, N_REGIONS - 1),
    st.tuples(st.integers(0, ENGINE_SIDE - 1), st.integers(0, ENGINE_SIDE - 1)),
    st.integers(0, 10),
    st.integers(0, 6),
)


def step_inputs(engine) -> tuple[list[tuple], object]:
    """The drain multiplier, masks and costs that one `engine.step` builds,
    in call order, read where `floodloop.engine` hands them on, and the
    world the hydrology step returned."""
    seen, worlds = [], []
    real_router, real_hydrology = engine_module.Router, engine_module.step_hydrology

    def router(passable, graph, cost=None):
        seen.append(("router", passable.copy(), cost))
        assert graph is engine.graph
        return real_router(passable, graph, cost)

    def hydrology(world, intensity, drain_multiplier=None):
        seen.append(("drain", drain_multiplier))
        worlds.append(real_hydrology(world, intensity, drain_multiplier))
        return worlds[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "Router", router)
        mp.setattr(engine_module, "step_hydrology", hydrology)
        engine.step()
    return seen, worlds[0]


@settings(deadline=None, max_examples=30)
@given(st.dictionaries(st.integers(0, 10), st.lists(engine_instructions, max_size=3), max_size=6))
def test_closed_windows_leave_the_engine_as_an_empty_board_does(schedule):
    cfg = RunConfig(seed=5, scenario="extreme", steps=20)
    cfg.world.width = cfg.world.height = ENGINE_SIDE
    cfg.world.n_regions = N_REGIONS
    cfg.mobility.initial_population = 20
    cfg.mobility.n_buses = 2
    engine = engine_module.SimulationEngine(cfg, generate_scenario(ScenarioKind.EXTREME, cfg.steps, cfg.seed))
    last_end = max((i.window[1] for batch in schedule.values() for i in batch), default=-1)
    while engine.world.step <= last_end:
        engine.board.dispatch(schedule.get(engine.world.step, []))
        engine.step()
    seen, world = step_inputs(engine)
    # an empty board: no pump, no penalty, and only water closes a road cell
    mc = cfg.mobility
    assert [entry[0] for entry in seen] == ["drain", "router", "router"]
    assert seen[0][1] is None
    for (_, mask, cost), limit in zip(seen[1:], (mc.resident_block_depth, mc.bus_block_depth)):
        assert np.array_equal(mask, world.is_road & (world.water_depth < limit))
        assert cost is None
