"""An instruction with window (s, e) is in force for exactly the executed
steps s..e, whatever its tag: the engine asks the board for every effect
at the index of the step it executes.

Each test runs on a window of several steps and on a one-step window
(s, s), the window of a one-step decision cycle. The instruction goes on
the board right before step s executes, as the decision loop dispatches
at a cycle boundary. Each effect is observed where the engine hands it
on, by wrapping the name where `floodloop.engine` looks it up: the drain
multiplier passed to `step_hydrology`, the mask and the costs passed to
`Router` (their cost grid), and the held-region set passed to `step_agent`. The world gets
no rain, so the closed road cell stays dry and only the closure can
block it.
"""

from __future__ import annotations

import pytest

from floodloop import engine as engine_module
from floodloop.config import RunConfig
from floodloop.engine import SimulationEngine
from floodloop.mobility import Role
from floodloop.translate import Instruction, Tag
from floodloop.world import RainfallScenario, ScenarioKind

STEPS = 10
WINDOWS = pytest.mark.parametrize("window", [(3, 6), (4, 4)], ids=["several-steps", "one-step"])


def dry_engine() -> SimulationEngine:
    cfg = RunConfig(seed=3, steps=STEPS)
    cfg.world.width = cfg.world.height = 16
    cfg.world.n_regions = 4
    cfg.mobility.initial_population = 20
    cfg.mobility.n_buses = 2
    return SimulationEngine(cfg, RainfallScenario(ScenarioKind.LIGHT, (0.0,) * STEPS, cfg.seed))


def steps_in_force(monkeypatch, window, tag, params, name, applied) -> list[int]:
    """Indices of the executed steps in which a call to `name` saw the effect.

    `applied(cell, region, *args)` tells from one call's arguments whether
    the instruction at `cell` in `region` was applied.
    """
    engine = dry_engine()
    road = engine.world.road_cells()
    cell = road[len(road) // 2]
    region = engine.world.region_of(cell)
    real = getattr(engine_module, name)
    seen = []

    def spy(*args, **kwargs):
        seen.append(applied(cell, region, *args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, name, spy)
    in_force = []
    for step in range(STEPS):
        if step == window[0]:
            engine.board.dispatch([Instruction(tag, region, cell, params, window)])
        seen.clear()
        engine.step()
        if any(seen):
            in_force.append(step)
    return in_force


def executed(window) -> list[int]:
    return list(range(window[0], window[1] + 1))


@WINDOWS
def test_relief_drains_for_every_step_of_its_window(monkeypatch, window):
    def applied(cell, region, world, intensity, drain_multiplier=None):
        return drain_multiplier is not None and drain_multiplier[region] == 5.0

    got = steps_in_force(monkeypatch, window, Tag.RELIEF, (("multiplier", 5.0),), "step_hydrology", applied)
    assert got == executed(window)


@WINDOWS
def test_obstacle_closes_for_every_step_of_its_window(monkeypatch, window):
    def applied(cell, region, passable, graph, cost=None):
        return not passable[cell]

    assert steps_in_force(monkeypatch, window, Tag.OBSTACLE, (), "Router", applied) == executed(window)


@WINDOWS
def test_routing_penalises_for_every_step_of_its_window(monkeypatch, window):
    def applied(cell, region, passable, graph, cost=None):
        return cost is not None and cost.grid[cell] == 1.0 + 8.0

    got = steps_in_force(monkeypatch, window, Tag.ROUTING, (("penalty", 8.0),), "Router", applied)
    assert got == executed(window)


@WINDOWS
def test_stop_holds_buses_for_every_step_of_its_window(monkeypatch, window):
    def applied(cell, region, agent, world, router, held_regions, *args, **kwargs):
        return agent.role is Role.BUS and region in held_regions

    assert steps_in_force(monkeypatch, window, Tag.STOP, (), "step_agent", applied) == executed(window)
