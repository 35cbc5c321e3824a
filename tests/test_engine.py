"""Per-step bookkeeping of the simulation engine against full scans."""

from __future__ import annotations

import numpy as np

from floodloop.config import RunConfig
from floodloop.engine import SimulationEngine
from floodloop.mobility import Status
from floodloop.world import ScenarioKind, generate_scenario


def small_engine() -> SimulationEngine:
    cfg = RunConfig(seed=1, scenario="extreme", steps=30)
    cfg.world.width = cfg.world.height = 32
    cfg.world.n_regions = 16
    cfg.mobility.initial_population = 120
    cfg.mobility.initial_stagger = 15
    return SimulationEngine(cfg, generate_scenario(ScenarioKind.EXTREME, cfg.steps, cfg.seed))


def scanned_flows(agents, shape):
    density = np.zeros(shape)
    for agent in agents:
        if agent.status is Status.ENROUTE:
            density[agent.pos] += 1.0
    return density


def assert_tallies_equal_scans(engine: SimulationEngine) -> None:
    spawned, arrived, cancelled, enroute = engine.trip_counts()
    assert enroute == sum(1 for a in engine.agents if a.status is Status.ENROUTE)
    assert spawned == len(engine.agents)
    assert np.array_equal(engine.world.car_density, scanned_flows(engine.agents, engine.world.shape))


def test_running_counts_equal_scans():
    engine = small_engine()
    # step 0: the initial residents and buses are spawned, none is enroute yet
    assert_tallies_equal_scans(engine)
    for _ in range(30):
        before = len(engine.agents)
        engine.step()
        assert len(engine.agents) > before  # the step ended with a spawn
        assert_tallies_equal_scans(engine)
    spawned, arrived, cancelled, enroute = engine.trip_counts()
    log = engine.trip_log
    assert log.arrived == sum(1 for r in log.records if r.outcome is Status.ARRIVED) > 0
    assert log.cancelled == sum(1 for r in log.records if r.outcome is Status.CANCELLED) > 0
    assert log.arrived_on_time == sum(1 for r in log.records if r.on_time) > 0
    assert (arrived, cancelled) == (log.arrived, log.cancelled)


def test_cost_grid_matches_per_cell_penalty_lookup():
    engine = small_engine()
    penalties = {0: 4.0, 5: 8.0, 15: 2.7}
    grid = engine._cost_grid(penalties)
    region_id = engine.world.region_id
    for cell in np.ndindex(region_id.shape):
        assert grid[cell] == 1.0 + penalties.get(int(region_id[cell]), 0.0)
    assert engine._cost_grid({}) is None


def test_active_list_holds_the_non_terminal_agents_in_id_order():
    engine = small_engine()
    for _ in range(30):
        engine.step()
        assert engine.active == [a for a in engine.agents if a.status not in (Status.ARRIVED, Status.CANCELLED)]
        assert [a.id for a in engine.agents] == list(range(len(engine.agents)))
        # `agents` still holds every agent ever spawned, terminal ones included
        assert len(engine.agents) == engine.trip_log.spawned
    assert 0 < len(engine.active) < len(engine.agents)
