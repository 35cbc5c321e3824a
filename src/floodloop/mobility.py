"""Resident and transit agents: A* routing and the trip lifecycle.

Agents realize a feasible action set, a deterministic transition and an
action distribution; what they perceive is whether their next cell is
passable this step. Movement is 4-connected over road cells; a cell is
passable while its water depth stays under the role's blocking threshold
and no obstacle instruction closes it. Blocked agents flip a seeded coin
between waiting and replanning around the blockage; running out of
patience cancels the trip. A bus in a region that a stop instruction
holds neither moves nor loses patience. `step_agent` reports what an
agent did as event kinds (advanced, waited, replanned, blocked, arrived,
cancelled, held), the only part of an event that feedback reads.

Routing is exact A* over one `Router` per step and role. The router owns
the step's flat padded arrays: the blocked cells, the costs, the
4-connected component labels, and the row and column of every flat
index (one table pair per padded grid shape, shared by every router of
that shape). The labels answer unreachable pairs without a search.
`plan_path` expands in (f, index) order from a bucket queue keyed by f,
so equal-cost routes break ties on row, then column.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy import ndimage

from .errors import NoDemandSource
from .rng import pystream
from .world import WorldState

Cell = tuple[int, int]

WAIT_PROBABILITY = 0.2
PATIENCE_FACTOR = 2.0
PATIENCE_CAP = 50
ON_TIME_FACTOR = 3.0


class Role(str, Enum):
    RESIDENT = "resident"
    BUS = "bus"


class Status(str, Enum):
    WAITING = "waiting"
    ENROUTE = "enroute"
    ARRIVED = "arrived"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (Status.ARRIVED, Status.CANCELLED)


@dataclass
class AgentRecord:
    id: int
    role: Role
    destination: Cell
    pos: Cell
    path: list[Cell] = field(default_factory=list)
    path_index: int = 0
    status: Status = Status.WAITING
    patience: int = PATIENCE_CAP
    departure_step: int = 0
    planned_steps: int = 1
    travel_steps: int = 0
    stops: list[Cell] = field(default_factory=list)
    stop_index: int = 0


@dataclass(frozen=True)
class TripRecord:
    agent_id: int
    role: Role
    departure_step: int
    outcome: Status
    travel_steps: int
    planned_steps: int

    @property
    def on_time(self) -> bool:
        return self.outcome is Status.ARRIVED and self.travel_steps <= ON_TIME_FACTOR * self.planned_steps


class TripLog:
    """Terminal trip outcomes plus running counts for the rate metrics."""

    def __init__(self):
        self.records: list[TripRecord] = []
        self.spawned = 0
        self.arrived = 0
        self.arrived_on_time = 0
        self.cancelled = 0

    def note_spawn(self, n: int = 1) -> None:
        self.spawned += n

    def close(self, agent: AgentRecord) -> None:
        record = TripRecord(
            agent_id=agent.id,
            role=agent.role,
            departure_step=agent.departure_step,
            outcome=agent.status,
            travel_steps=agent.travel_steps,
            planned_steps=agent.planned_steps,
        )
        self.records.append(record)
        if record.outcome is Status.ARRIVED:
            self.arrived += 1
            if record.on_time:
                self.arrived_on_time += 1
        elif record.outcome is Status.CANCELLED:
            self.cancelled += 1


class Router:
    """One step's routing arrays for one role, with a path memo.

    Built from a boolean passable mask and an optional per-cell cost grid
    (values >= 1; None means unit cost). Both are copied into flat arrays
    over the grid padded by one blocked cell on every side, so A* needs no
    bounds checks. The padded mask's 4-connected component labels (0 on
    blocked cells) decide reachability: `route(o, d)` searches only when
    o == d, or when d's label is non-zero and equals the label of o or of
    one of o's four neighbours. That is exactly when A* succeeds, since A*
    may step off a blocked origin; every other pair is None without a
    search. `route` memoises `plan_path` by (origin, destination); the memo
    is only as valid as the arrays, so build a new Router whenever the mask
    or the costs change.
    """

    def __init__(self, passable: np.ndarray, cost: np.ndarray | None = None):
        height, width = passable.shape
        self.width = width + 2
        free = np.zeros((height + 2, width + 2), dtype=bool)
        free[1:-1, 1:-1] = passable
        self.blocked = np.logical_not(free).view(np.uint8).tobytes()
        # a flat view that indexes to Python ints, without a per-router tolist()
        self.labels = memoryview(ndimage.label(free, structure=_FOUR_CONNECTED)[0].ravel())
        self.rows, self.cols = _row_col_tables(height + 2, width + 2)
        if cost is None:
            self.cost = [1.0] * free.size
        else:
            padded = np.ones(free.shape)
            padded[1:-1, 1:-1] = cost
            self.cost = padded.ravel().tolist()
        self._paths: dict[tuple[Cell, Cell], tuple[Cell, ...] | None] = {}

    def with_unit_cost(self) -> "Router":
        """A router over the same mask with unit costs and its own path
        memo; it shares this router's blocked bytes and component labels
        instead of labelling the mask again."""
        twin = copy.copy(self)
        twin.cost = [1.0] * len(self.blocked)
        twin._paths = {}
        return twin

    def passable(self, cell: Cell) -> bool:
        return not self.blocked[(cell[0] + 1) * self.width + cell[1] + 1]

    def _reachable(self, origin: Cell, destination: Cell) -> bool:
        if origin == destination:
            return True
        width, labels = self.width, self.labels
        label = labels[(destination[0] + 1) * width + destination[1] + 1]
        start = (origin[0] + 1) * width + origin[1] + 1
        return label != 0 and label in (
            labels[start], labels[start - width], labels[start + width], labels[start - 1], labels[start + 1]
        )

    def route(self, origin: Cell, destination: Cell) -> list[Cell] | None:
        key = (origin, destination)
        if key not in self._paths:
            path = plan_path(origin, destination, self) if self._reachable(origin, destination) else None
            self._paths[key] = None if path is None else tuple(path)
        path = self._paths[key]
        return None if path is None else list(path)


_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


@lru_cache(maxsize=8)
def _row_col_tables(height: int, width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column of every flat index of a padded height x width grid;
    tuples, since every router of that shape shares them."""
    rows, cols = np.divmod(np.arange(height * width), width)
    return tuple(rows.tolist()), tuple(cols.tolist())


def plan_path(origin: Cell, destination: Cell, router: Router) -> list[Cell] | None:
    """A*, 4-connected, Manhattan heuristic, over `router`'s arrays.

    Cells are flat indices into the padded grid, and nodes are expanded in
    lexicographic (f, index) order, which is (f, row, col): expansion ties
    break on row, then column, and equal-cost routes are reproducible. The
    open set is a bucket queue (Dial 1969): a dict from f to a min-heap of
    the indices queued at that f, and a min-heap of the distinct f values.
    The heuristic of a flat index is `hr[rows[i]] + hc[cols[i]]`, from the
    router's per-shape row/column tables and two per-call lists of
    distances to the destination's row and column. Neighbours go up, down,
    left, right. Returns the full cell sequence including origin and
    destination, or None when unreachable. The origin itself need not be
    passable.
    """
    if origin == destination:
        return [origin]
    width, cost, rows, cols = router.width, router.cost, router.rows, router.cols
    tr, tc = destination[0] + 1, destination[1] + 1
    hr = [abs(r - tr) for r in range(len(cost) // width)]
    hc = [abs(c - tc) for c in range(width)]
    start = (origin[0] + 1) * width + origin[1] + 1
    goal = tr * width + tc
    closed = bytearray(router.blocked)  # impassable or expanded
    closed[start] = 0  # an agent may stand on a cell that has since flooded
    g_score = [float("inf")] * len(closed)
    g_score[start] = 0.0
    came_from: dict[int, int] = {}
    f_start = float(hr[rows[start]] + hc[cols[start]])
    buckets = {f_start: [start]}
    f_heap = [f_start]
    pop, push = heapq.heappop, heapq.heappush

    while f_heap:
        f = f_heap[0]
        bucket = buckets[f]
        current = pop(bucket)
        if not bucket:
            del buckets[f]
            pop(f_heap)
        if closed[current]:
            continue
        if current == goal:
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            path.reverse()
            return [(rows[i] - 1, cols[i] - 1) for i in path]
        closed[current] = 1
        base_g = g_score[current]
        for nb in (current - width, current + width, current - 1, current + 1):
            if closed[nb]:
                continue
            tentative = base_g + cost[nb]
            if tentative < g_score[nb]:
                g_score[nb] = tentative
                came_from[nb] = current
                # f = g + (integer heuristic), added in that order
                f = tentative + (hr[rows[nb]] + hc[cols[nb]])
                bucket = buckets.get(f)
                if bucket is None:
                    buckets[f] = [nb]
                    push(f_heap, f)
                else:
                    push(bucket, nb)
    return None


def path_steps(path: Sequence[Cell]) -> int:
    return max(len(path) - 1, 0)


@dataclass(frozen=True)
class Poi:
    cell: Cell
    weight: float


def default_pois(world: WorldState, n_pois: int, seed: int, cluster_size: int = 4, cluster_radius: int = 4) -> list[Poi]:
    """Seeded POIs on road cells, grouped into neighborhood clusters.

    Clustering makes a sizable share of trips short-range, which is what
    urban demand looks like and what makes street-level flooding bite.
    """
    rng = pystream(seed, "pois")
    road = world.road_cells()
    if not road:
        return []
    n = min(n_pois, len(road))
    n_clusters = max(1, n // cluster_size)
    centers = rng.sample(road, n_clusters)
    cells: set[Cell] = set()
    for center in centers:
        nearby = [c for c in road if abs(c[0] - center[0]) + abs(c[1] - center[1]) <= cluster_radius]
        # the cap honours an n below cluster_size; otherwise it never binds, since
        # before cluster k < n // cluster_size at most k * cluster_size cells exist
        take = min(cluster_size, len(nearby), n - len(cells))
        cells.update(rng.sample(nearby, take))
    while len(cells) < n:
        cells.add(rng.choice(road))
    return [Poi(cell=c, weight=float(rng.randint(1, 5))) for c in sorted(cells)]


def _patience_for(planned: int, factor: float = PATIENCE_FACTOR, cap: int = PATIENCE_CAP) -> int:
    return max(2, min(int(round(factor * planned)), cap))


def spawn_demand(
    poi_set: Sequence[Poi],
    rate: int,
    seed: int,
    step: int,
    router: Router,
    id_start: int,
    stagger: int = 0,
) -> list[AgentRecord]:
    """Sample `rate` resident trips from the weighted POI set.

    Origin and destination are distinct draws; the initial route is planned
    immediately so planned_steps and patience are fixed at spawn. With
    `stagger`, departures spread uniformly over the next `stagger` steps
    instead of all leaving at once. Fully deterministic given (seed, step).
    """
    if not poi_set:
        raise NoDemandSource("POI set is empty")
    rng = pystream(seed, "demand", step)
    agents = []
    cells = [p.cell for p in poi_set]
    weights = [p.weight for p in poi_set]
    for i in range(rate):
        origin = rng.choices(cells, weights=weights, k=1)[0]
        destination = origin
        for _ in range(16):
            destination = rng.choices(cells, weights=weights, k=1)[0]
            if destination != origin:
                break
        if destination == origin:
            continue
        path = router.route(origin, destination)
        manhattan = abs(origin[0] - destination[0]) + abs(origin[1] - destination[1])
        planned = path_steps(path) if path else manhattan
        departure = step
        if stagger > 0:
            # commute wave: an early surge, then a long tail of departures
            head = max(1, stagger // 8)
            if rng.random() < 0.4:
                departure = step + rng.randrange(head)
            else:
                departure = step + head + rng.randrange(max(1, stagger - head))
        agents.append(
            AgentRecord(
                id=id_start + i,
                role=Role.RESIDENT,
                destination=destination,
                pos=origin,
                path=path or [origin],
                status=Status.WAITING,
                patience=_patience_for(planned),
                departure_step=departure,
                planned_steps=max(planned, 1),
            )
        )
    return agents


def make_bus(
    bus_id: int,
    stops: Sequence[Cell],
    step: int,
    router: Router,
) -> AgentRecord:
    """Bus visiting its stops in order; the first leg is planned at spawn."""
    stops = list(stops)
    total = 0
    for a, b in zip(stops, stops[1:]):
        leg = router.route(a, b)
        total += abs(a[0] - b[0]) + abs(a[1] - b[1]) if leg is None else path_steps(leg)
    first_leg = router.route(stops[0], stops[1]) or [stops[0]]
    return AgentRecord(
        id=bus_id,
        role=Role.BUS,
        destination=stops[-1],
        pos=stops[0],
        path=first_leg,
        status=Status.WAITING,
        patience=_patience_for(total),
        departure_step=step,
        planned_steps=max(total, 1),
        stops=stops,
        stop_index=0,
    )


def reroute_bus(bus: AgentRecord, router: Router) -> bool:
    """Recompute the bus route over its remaining stops, in place.

    Unreachable stops are dropped. Returns False, with the bus cancelled,
    only when no remaining stop can be reached.
    """
    targets = [s for s in bus.stops[bus.stop_index :] if s != bus.pos]
    current = bus.pos
    kept: list[Cell] = []
    first_leg: list[Cell] | None = None
    for stop in targets:
        leg = router.route(current, stop)
        if leg is None:
            continue
        kept.append(stop)
        if first_leg is None:
            first_leg = leg
        current = stop
    if first_leg is None:
        bus.status = Status.CANCELLED
        return False
    bus.stops = [bus.pos] + kept
    bus.stop_index = 0
    bus.destination = kept[-1]
    bus.path = first_leg
    bus.path_index = 0
    return True


def step_agent(
    agent: AgentRecord,
    world: WorldState,
    router: Router,
    held_regions: set[int],
    rng,
    step: int,
    trip_log: TripLog,
    wait_probability: float = WAIT_PROBABILITY,
) -> list[str]:
    """Advance one non-terminal agent by one step; return the kinds of the
    events it produced, in the order produced (advanced, waited, replanned,
    blocked, arrived, cancelled, held).

    `router` holds this step's passable mask, costs and components for the
    agent's role; it answers a replan that cannot succeed without a search.
    A bus whose current region is in `held_regions` is held; residents
    ignore the set.

    The transition is deterministic given the chosen action; the only coin
    is the wait-vs-replan choice when blocked. Patience burns on every
    non-advancing step (waits, failed replans); at zero the trip cancels.
    Held buses neither move nor lose patience.
    """
    if agent.status.terminal:
        return []
    if agent.status is Status.WAITING:
        if step < agent.departure_step:
            return []
        agent.status = Status.ENROUTE
    agent.travel_steps += 1

    if agent.role is Role.BUS and world.region_of(agent.pos) in held_regions:
        return ["held"]
    if agent.pos == agent.destination:
        return _finish(agent, Status.ARRIVED, trip_log, [])
    if agent.role is Role.BUS and agent.path_index + 1 >= len(agent.path):
        # at an intermediate stop with the leg exhausted: open the next leg
        _advance_bus_leg(agent, router)

    advanced = _advance(agent, router)
    if advanced:
        kinds = ["advanced"]
    elif rng.random() < wait_probability:
        kinds = ["waited"]
    elif _replan(agent, router):
        kinds = ["replanned"]
        advanced = _advance(agent, router)
    elif agent.status is Status.CANCELLED:
        # bus rerouting found every remaining stop unreachable
        return _finish(agent, Status.CANCELLED, trip_log, [])
    else:
        kinds = ["blocked"]

    if agent.pos == agent.destination:
        return _finish(agent, Status.ARRIVED, trip_log, kinds)
    if not advanced:
        agent.patience -= 1
        if agent.patience <= 0:
            return _finish(agent, Status.CANCELLED, trip_log, kinds)
    return kinds


def _finish(agent: AgentRecord, status: Status, trip_log: TripLog, kinds: list[str]) -> list[str]:
    """End the trip with a terminal status: close it and add its event."""
    agent.status = status
    trip_log.close(agent)
    kinds.append(status.value)
    return kinds


def _advance(agent: AgentRecord, router: Router) -> bool:
    """Move one cell along the path if the next cell is passable."""
    i = agent.path_index + 1
    if i < len(agent.path) and router.passable(agent.path[i]):
        agent.pos = agent.path[i]
        agent.path_index = i
        return True
    return False


def _advance_bus_leg(agent: AgentRecord, router: Router) -> None:
    """Open the leg to the next stop once the current one is exhausted.

    stop_index tracks the stop the bus most recently reached; the active
    path always runs stops[stop_index] -> stops[stop_index + 1].
    """
    if agent.stop_index + 1 < len(agent.stops) and agent.pos == agent.stops[agent.stop_index + 1]:
        agent.stop_index += 1
    if agent.stop_index + 1 < len(agent.stops):
        leg = router.route(agent.pos, agent.stops[agent.stop_index + 1])
        if leg is not None:
            agent.path = leg
            agent.path_index = 0


def _replan(agent: AgentRecord, router: Router) -> bool:
    # the blocked next cell already fails this step's mask, so A* avoids it
    if agent.role is Role.BUS and len(agent.stops) - agent.stop_index >= 2:
        return reroute_bus(agent, router)
    if not router.passable(agent.pos):
        return False  # standing on a blocked cell
    path = router.route(agent.pos, agent.destination)
    if path is None:
        return False
    agent.path = path
    agent.path_index = 0
    return True


def aggregate_flows(agents: Iterable[AgentRecord], world: WorldState) -> np.ndarray:
    """Per-cell count of enroute agents this step."""
    density = np.zeros(world.shape, dtype=np.float64)
    cells = [agent.pos for agent in agents if agent.status is Status.ENROUTE]
    if cells:
        np.add.at(density, tuple(zip(*cells)), 1.0)
    return density
