"""Per-step simulation engine tying world, agents, and the instruction board.

The world is built from `RunConfig.world`, which it keeps as the
parameters of its hydrology. Step order: rain/drain/diffuse the water field, step every non-terminal
agent against the fresh snapshot (ids ascending), write the aggregated
car density back, then spawn new demand (newly spawned agents wait until
the next step). Passability is built as arrays once per step, since it
only depends on depth and closures; each role's `Router` holds them, and
every route planned in the step reads those arrays. Routing costs depend
on the penalties alone, which change far less often than every step: the
engine keeps the last penalty set with its `RouteCosts`, which both of a
step's routers share, and makes new ones only when the board's set
changes. Their per-chain-cell and per-edge costs are built on the first
search that reads them, so a penalty set that no search meets builds
nothing. A router labels its connected components over the road
graph (free nodes joined along chains with no blocked cell, chain cells
by the end nodes they reach) only when a replan or a failed search asks,
so a step whose routes all succeed, the spawns' included, labels
nothing. The road graph the routers search is contracted once, when the
engine is built, since roads never change during a run. The board is
asked once per step for each effect (drain, closures, penalties, held
regions), all at the index of the step being executed, so a window
(s, e) acts on exactly steps s..e; the post-step index labels the
record, dump and spawns and times departures. With no relief active the
board's drain multipliers are None, and the world drains at one rate.
Each non-terminal agent costs one `step_agent` call per step, with its
role's router, and the calls return event kinds, which the step counts
into `StepRecord.events`. The loop reads each agent's status once after
its call: terminal agents drop out of `active`, and the enroute ones are
tallied, so `trip_counts` reads the enroute count from the last step and
the trip log's running counts instead of scanning the agents (agents
spawn waiting, so a spawn leaves the tally as it is). The car density is
one `bincount` over the enroute agents' cells.
`agents` keeps every agent ever spawned; `active` keeps, in id order,
the ones not yet terminal, and only those are stepped and counted into
the car density.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .metrics import MetricsSnapshot, congestion_index, flood_index, objective_j, trip_rates
from .mobility import (
    BUS_STOPS,
    WAIT_PROBABILITY,
    AgentRecord,
    Poi,
    Role,
    RouteCosts,
    Router,
    Status,
    TripLog,
    aggregate_flows,
    default_pois,
    make_bus,
    road_graph,
    spawn_demand,
    step_agent,
)
from .rng import pystream
from .translate import InstructionBoard
from .world import RainfallScenario, build_world, step_hydrology


@dataclass
class StepRecord:
    step: int
    snapshot: MetricsSnapshot
    events: dict[str, int]


class SimulationEngine:
    def __init__(self, config: RunConfig, scenario: RainfallScenario):
        self.config = config
        self.scenario = scenario
        self.world = build_world(config.world, config.seed)
        self.graph = road_graph(self.world.is_road)
        self.board = InstructionBoard(config.world.n_regions)
        self.trip_log = TripLog()
        self.agents: list[AgentRecord] = []
        self.active: list[AgentRecord] = []
        self.enroute = 0  # agents spawn waiting, so none is enroute until a step
        # the last penalty set and its routing costs, None while it is empty
        self._penalties: dict[int, float] = {}
        self._costs: RouteCosts | None = None
        self._next_id = 0
        self._detour_rng = pystream(config.seed, "detour-coins")
        self.pois: list[Poi] = default_pois(self.world, config.mobility.n_pois, config.seed)
        self.step_records: list[StepRecord] = []
        self.density_dumps: dict[int, np.ndarray] = {}
        self._spawn_initial()

    # --- passability -----------------------------------------------------

    def _passable_mask(self, role: Role, closed: set[tuple[int, int]]) -> np.ndarray:
        mc = self.config.mobility
        depth_limit = mc.resident_block_depth if role is Role.RESIDENT else mc.bus_block_depth
        mask = self.world.is_road & (self.world.water_depth < depth_limit)
        for cell in closed:
            mask[cell] = False
        return mask

    def _cost_grid(self, penalties: dict[int, float]) -> np.ndarray | None:
        """1 + the routing penalty of each cell's region; None when no penalty is active."""
        if not penalties:
            return None
        penalty = np.zeros(self.world.n_regions)
        for region, value in penalties.items():
            penalty[region] = value
        return 1.0 + penalty[self.world.region_id]

    # --- population ------------------------------------------------------

    def _spawn_initial(self) -> None:
        mc = self.config.mobility
        if self.pois and mc.initial_population > 0:
            agents = spawn_demand(
                self.pois,
                mc.initial_population,
                self.config.seed,
                step=0,
                router=Router(self._passable_mask(Role.RESIDENT, set()), self.graph),
                id_start=self._next_id,
                stagger=mc.initial_stagger,
            )
            self._next_id += mc.initial_population
            self._admit(agents)
        bus_rng = pystream(self.config.seed, "bus-lines")
        road = self.world.road_cells()
        bus_router = Router(self._passable_mask(Role.BUS, set()), self.graph)
        for b in range(mc.n_buses):
            if len(road) < BUS_STOPS:
                break
            stops = bus_rng.sample(road, BUS_STOPS)
            bus = make_bus(self._next_id, stops, 0, bus_router)
            self._next_id += 1
            self._admit([bus])

    def _admit(self, agents: list[AgentRecord]) -> None:
        """Add newly spawned agents, in id order; they stay active until terminal."""
        self.agents.extend(agents)
        self.active.extend(agents)
        self.trip_log.note_spawn(len(agents))

    def trip_counts(self) -> tuple[int, int, int, int]:
        log = self.trip_log
        return (log.spawned, log.arrived, log.cancelled, self.enroute)

    # --- stepping ---------------------------------------------------------

    def run_steps(self, n: int) -> list[StepRecord]:
        return [self.step() for _ in range(n)]

    def step(self) -> StepRecord:
        step_idx = self.world.step
        intensity = self.scenario.curve[step_idx]
        self.board.prune(step_idx)
        self.world = step_hydrology(self.world, intensity, self.board.drain_multipliers(step_idx))

        now = self.world.step  # post-hydrology step index
        # this step's routing arrays; they stay fixed while the agents move
        closed = self.board.closed_cells(step_idx)
        penalties = self.board.region_penalties(step_idx)
        if penalties != self._penalties:
            grid = self._cost_grid(penalties)
            self._penalties, self._costs = penalties, None if grid is None else RouteCosts(self.graph, grid)
        costs = self._costs
        router_res = Router(self._passable_mask(Role.RESIDENT, closed), self.graph, costs)
        router_bus = Router(self._passable_mask(Role.BUS, closed), self.graph, costs)
        held = self.board.bus_held(step_idx)

        world, rng, trip_log = self.world, self._detour_rng, self.trip_log
        # enum members read once: a read through the class costs ~0.1 us
        bus, arrived, cancelled, enroute = Role.BUS, Status.ARRIVED, Status.CANCELLED, Status.ENROUTE
        kinds: list[str] = []
        still_active = []
        n_enroute = 0
        for agent in self.active:
            router = router_bus if agent.role is bus else router_res
            kinds += step_agent(agent, world, router, held, rng, now, trip_log, WAIT_PROBABILITY)
            status = agent.status
            if status is enroute:
                n_enroute += 1
                still_active.append(agent)
            elif status is not arrived and status is not cancelled:
                still_active.append(agent)
        self.active = still_active
        self.enroute = n_enroute

        density = aggregate_flows(self.active, self.world)
        self.world = replace(self.world, car_density=density)

        mc = self.config.mobility
        if mc.spawn_rate > 0 and self.pois:
            new_agents = spawn_demand(
                self.pois,
                mc.spawn_rate,
                self.config.seed,
                step=now,
                router=router_res if costs is None else router_res.with_unit_cost(),
                id_start=self._next_id,
            )
            self._next_id += mc.spawn_rate
            self._admit(new_agents)

        snapshot = self.metrics_snapshot()
        record = StepRecord(step=now, snapshot=snapshot, events=dict(Counter(kinds)))
        self.step_records.append(record)
        if now in self.config.heatmap_steps:
            self.density_dumps[now] = density.copy()
        return record

    def metrics_snapshot(self) -> MetricsSnapshot:
        f = flood_index(self.world)
        t = congestion_index(self.world)
        log = self.trip_log
        c, r = trip_rates(log.cancelled, log.arrived_on_time, log.spawned) if log.spawned else (0.0, 0.0)
        j = objective_j(f, t, c, r, self.config.feedback.weights)
        return MetricsSnapshot(f=f, t=t, c=c, r=r, j=j, step=self.world.step)

    def current_intensity(self) -> float:
        return float(self.scenario.curve[self.world.step])
