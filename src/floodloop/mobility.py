"""Resident and transit agents: A* routing and the trip lifecycle.

Agents realize a feasible action set, a deterministic transition and an
action distribution; what they perceive is whether their next cell is
passable this step. Movement is 4-connected over road cells; a cell is
passable while its water depth stays under the role's blocking threshold
and no obstacle instruction closes it. Blocked agents flip a seeded coin
between waiting and replanning around the blockage; running out of
patience cancels the trip. A bus in a region that a stop instruction
holds neither moves nor loses patience. Residents and buses move alike
and differ in how they replan: a resident asks for one route to its
destination, a bus reroutes over its remaining stops. `step_agent`
reports what an agent did as event kinds (advanced, waited, replanned,
blocked, arrived, cancelled, held), the only part of an event that
feedback reads.

Routing is exact A* over the road graph, contracted once per road mask:
nodes are junctions and dead ends, and each edge is a chain of degree-2
cells (`RoadGraph`, built by `road_graph` and memoised per mask). One
`Router` per step and role holds the step's flat padded blocked cells
and, once a replan or a failed search asks for them, the component
labels, which answer unreachable pairs without a search. The labels come
from the graph, over the same chain layout A* reads: the free nodes are
joined along the chains that hold no blocked cell, and a free cell inside
a chain takes the label of an end node that no blocked cell cuts it off
from, or one of its own when both ends are cut off. The router derives
which edges are blocked on its first search. What each chain cell and
edge costs comes from a `RouteCosts`, which routers share: the engine
keeps one per penalty set, and it builds its costs on the first search
that reads them. `plan_path` searches between nodes, enters and leaves
chains at the origin and destination, and returns the full cell list.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .rng import pystream
from .world import WorldState

Cell = tuple[int, int]

PATIENCE_FACTOR = 2.0
PATIENCE_CAP = 50
ON_TIME_FACTOR = 3.0
POI_CLUSTER_SIZE = 4
POI_CLUSTER_RADIUS = 4  # Manhattan distance from a cluster's centre
BUS_STOPS = 4  # stops on each bus line
WAIT_PROBABILITY = 0.2  # a blocked agent's chance to wait rather than replan


class Role(str, Enum):
    RESIDENT = "resident"
    BUS = "bus"


class Status(str, Enum):
    WAITING = "waiting"
    ENROUTE = "enroute"
    ARRIVED = "arrived"
    CANCELLED = "cancelled"


# the members `step_agent` and `TripLog.close` test: reading one through
# its enum class costs about ten times reading a module global
_RESIDENT, _WAITING = Role.RESIDENT, Status.WAITING
_ARRIVED, _CANCELLED = Status.ARRIVED, Status.CANCELLED


@dataclass
class AgentRecord:
    """One resident or bus. `path_index` and `travel_steps` start at 0;
    they take a factory, not a plain default, so `__init__` sets them and
    every agent has the same attributes in the same order."""

    id: int
    role: Role
    destination: Cell
    pos: Cell
    path: list[Cell]
    path_index: int = field(default_factory=int, init=False)
    status: Status
    patience: int
    departure_step: int
    planned_steps: int
    travel_steps: int = field(default_factory=int, init=False)
    stops: list[Cell] = field(default_factory=list)
    stop_index: int = 0


class TripRecord(NamedTuple):
    agent_id: int
    role: Role
    departure_step: int
    outcome: Status
    travel_steps: int
    planned_steps: int

    @property
    def on_time(self) -> bool:
        return self.outcome is _ARRIVED and self.travel_steps <= ON_TIME_FACTOR * self.planned_steps


class TripLog:
    """Terminal trip outcomes plus running counts for the rate metrics."""

    def __init__(self):
        self.records: list[TripRecord] = []
        self.spawned = 0
        self.arrived = 0
        self.arrived_on_time = 0
        self.cancelled = 0

    def note_spawn(self, n: int) -> None:
        self.spawned += n

    def close(self, agent: AgentRecord) -> None:
        record = TripRecord(
            agent.id, agent.role, agent.departure_step, agent.status, agent.travel_steps, agent.planned_steps
        )
        self.records.append(record)
        if record.outcome is _ARRIVED:
            self.arrived += 1
            if record.on_time:
                self.arrived_on_time += 1
        elif record.outcome is _CANCELLED:
            self.cancelled += 1


class RoadGraph:
    """A road mask contracted at its degree-2 chains, in flat indices of the
    grid padded by one off-road cell on every side.

    Nodes are the road cells whose road degree is not 2 (junctions, dead
    ends, isolated cells); a loop of degree-2 cells with no node gets one,
    at its lowest index. Each directed edge is one chain: the cells it
    enters, in order, ending at the far node. All chains sit in one flat
    list, `chain`, edge `e` at `chain[offsets[e]:offsets[e + 1]]`, so an
    edge costs at least its length and Manhattan distance stays a
    consistent heuristic.

    `out[i]` is, for a node `i`, its out-edges as (edge, head) pairs in
    up, down, left, right order of their first cell, and None for any other
    cell. `tail[e]` is the node an edge leaves. `interior[i]` gives, for a
    cell inside a chain, its two sides: for each direction of the chain,
    (start, index, end) with `chain[index] == i` and the edge spanning
    `chain[start:end]`.
    `cells[i]` is the (row, col) of flat index `i`, and `distances[j][i]`
    is |i - j|, the row and column terms of the heuristic. `chain_grid`
    holds each chain cell's flat index in the unpadded grid, where a cost
    grid is read.

    The component labels read the same layout. Chain k's two edges, 2k
    and 2k + 1, sit together at `chain[offsets[2k]:offsets[2k + 2]]`,
    which holds its inner cells and both end nodes; `links[:, k]` numbers
    those two nodes, tail then head, in `nodes`, the nodes' flat indices
    in index order. `inner` holds the cells inside chains, and `probes`,
    for each, its index in `chain` going forward and going back, then the
    index of its head node, where its forward edge ends, and of its tail
    node, where its backward edge ends.
    """

    def __init__(self, road: np.ndarray):
        height, width = road.shape
        self.road = road
        self.width = width + 2
        padded = np.zeros((height + 2, width + 2), dtype=np.int8)
        rows, cols = np.divmod(np.arange(padded.size), self.width)
        self.rows, self.cols = tuple(rows.tolist()), tuple(cols.tolist())
        self.cells = tuple(zip((rows - 1).tolist(), (cols - 1).tolist()))
        span = range(max(height, width) + 2)
        self.distances = tuple([abs(i - j) for i in span] for j in span)
        padded[1:-1, 1:-1] = road
        degree = np.zeros_like(padded)
        degree[1:-1, 1:-1] = padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        is_road = padded.ravel().tolist()
        steps = (-self.width, self.width, -1, 1)
        # node -> its out-edges as (direction, edge, head), filled in as chains are walked
        out: dict[int, list[tuple[int, int, int]]] = {
            i: [] for i in np.flatnonzero(padded.ravel() * (degree.ravel() != 2)).tolist()
        }
        self.chain: list[int] = []
        self.offsets = [0]
        self.tail: list[int] = []
        self.interior: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {}
        walked: set[tuple[int, int]] = set()

        def contract(u: int, first: int) -> None:
            """Walk the chain that leaves node u through `first`, and add it in
            both directions."""
            inner, prev, cur = [], u, first
            while cur not in out:
                inner.append(cur)
                a, b = [cur + d for d in steps if is_road[cur + d]]
                prev, cur = cur, b if a == prev else a
            v, k = cur, len(inner)
            walked.add((u, first))
            walked.add((v, inner[-1] if inner else u))
            sides = []
            for a, b, cells in ((u, v, inner + [v]), (v, u, inner[::-1] + [u])):
                e, s = len(self.tail), len(self.chain)
                self.chain.extend(cells)
                self.offsets.append(len(self.chain))
                self.tail.append(a)
                out[a].append((steps.index(cells[0] - a), e, b))
                sides.append((s, s + k + 1))
            (sf, ef), (sr, er) = sides
            for m, cell in enumerate(inner):
                self.interior[cell] = ((sf, sf + m, ef), (sr, sr + k - 1 - m, er))

        for u in list(out):
            for d in steps:
                if is_road[u + d] and (u, u + d) not in walked:
                    contract(u, u + d)
        for u in np.flatnonzero(padded).tolist():
            if u not in out and u not in self.interior:
                # a loop of degree-2 cells with no node: u is its lowest index
                out[u] = []
                contract(u, next(u + d for d in steps if is_road[u + d]))
        self.out: list[tuple[tuple[int, int], ...] | None] = [None] * padded.size
        for u, edges in out.items():
            self.out[u] = tuple((e, v) for _, e, v in sorted(edges))
        self.lengths = np.diff(self.offsets).astype(np.float64).tolist()
        self.chain_array = np.array(self.chain, dtype=np.intp)
        self.chain_grid = (rows - 1)[self.chain_array] * width + (cols - 1)[self.chain_array]
        self.starts = np.array(self.offsets[:-1], dtype=np.intp)
        self.nodes = np.array(sorted(out), dtype=np.intp)
        self.links = np.searchsorted(self.nodes, [self.tail[0::2], self.tail[1::2]])
        self.inner = np.array(list(self.interior), dtype=np.intp)
        _, at, head, _, back, tail = np.array(list(self.interior.values()), dtype=np.intp).reshape(-1, 6).T
        self.probes = np.stack([at, back, head - 1, tail - 1])


def road_graph(road: np.ndarray) -> RoadGraph:
    """The contracted graph of a road mask, built once per mask."""
    road = np.asarray(road, dtype=bool)
    return _road_graph(road.shape, road.tobytes())


@lru_cache(maxsize=8)
def _road_graph(shape: tuple[int, int], road: bytes) -> RoadGraph:
    return RoadGraph(np.frombuffer(road, dtype=bool).reshape(shape))


class RouteCosts:
    """The routing costs of one per-cell cost grid (values >= 1) over one
    road graph: each chain cell's cost, as an array, and each edge's, the
    sum of its chain's, as a list for A*. Both are built on the first ask,
    so costs that no search reads cost nothing. The engine keeps one per
    penalty set and hands it to every router, its step's and the next
    steps', until the set changes."""

    def __init__(self, graph: RoadGraph, grid: np.ndarray):
        self.graph = graph
        self.grid = grid
        self._weights: tuple[np.ndarray, list[float]] | None = None

    def weights(self) -> tuple[np.ndarray, list[float]]:
        """The cost of each chain cell and of each edge."""
        if self._weights is None:
            chain = self.grid.ravel()[self.graph.chain_grid]
            self._weights = (chain, np.add.reduceat(chain, self.graph.starts).tolist())
        return self._weights


class Router:
    """One step's routing arrays for one role, with a path memo.

    Built from a boolean passable mask, the `RoadGraph` of a road mask that
    covers every passable cell (the engine's, of the world's unflooded
    road) and the `RouteCosts` of a per-cell cost grid over that graph,
    which routers may share; None means unit cost.
    The mask is copied into flat bytes over the grid padded by one blocked
    cell on every side. Which edges hold a blocked cell is computed on the
    first search, so a router that never searches pays nothing for it; the
    edge costs are the `RouteCosts`' own, built once for all its routers.

    The component labels of the free cells (0 on blocked cells) decide
    reachability once they exist: `route(o, d)` then searches only when
    o == d, or when d's label is non-zero and equals the label of o or of
    one of o's four neighbours. That is exactly when A* succeeds, since A*
    may step off a blocked origin; every other pair is None without a
    search. The labels are computed when something asks for them: a search
    that fails, so the next refused pair costs none, and a replan, whose
    pairs a blocked cell has often cut off. A router whose searches all
    succeed never computes them. `route` memoises `plan_path` by (origin,
    destination); the memo is only as valid as the arrays, so build a new
    Router whenever the mask or the costs change. `replan` is the one
    query of a blocked resident.
    """

    def __init__(self, passable: np.ndarray, graph: RoadGraph, costs: RouteCosts | None = None):
        self.graph = graph
        if (passable > graph.road).any():
            raise ValueError("the road graph must cover every passable cell")
        height, width = passable.shape
        self.width = width + 2
        free = np.zeros((height + 2, width + 2), dtype=bool)
        free[1:-1, 1:-1] = passable
        self.blocked = np.logical_not(free).view(np.uint8).tobytes()
        self._labels: memoryview | None = None
        self.costs = costs
        self._blocked_weights: tuple[bytes, bytes] | None = None
        self._paths: dict[tuple[Cell, Cell], tuple[Cell, ...] | None] = {}

    @property
    def labels(self) -> memoryview:
        """One component label per padded cell, computed on first use. 0 on
        blocked cells, and two free cells share a label exactly when a
        4-connected walk over free cells joins them.

        Each test along a chain compares two values of one prefix count of
        the blocked cells over `graph.chain`. The free nodes are joined along the chains whose
        two edges hold no blocked cell, and each component is labelled by
        its lowest node number plus 1. A free cell inside a chain takes the
        label of an end node that its edge reaches with no blocked cell in
        between. When both sides are cut, its free run is a component of its
        own, labelled past the node labels by the count before it in `chain`:
        a blocked cell lies between any two such runs there.
        A flat view that indexes to Python ints, without a per-router
        tolist()."""
        if self._labels is None:
            graph = self.graph
            blocked = np.frombuffer(self.blocked, dtype=np.uint8)
            # count[j]: how many of the first j cells of `chain` are blocked
            count = np.zeros(len(graph.chain) + 1, dtype=np.intp)
            np.cumsum(blocked[graph.chain_array], dtype=np.intp, out=count[1:])
            before = count[graph.starts[0::2]]  # per chain: the blocked cells before its two edges
            joined = before == np.concatenate((before[1:], count[-1:]))  # and none within them
            roots = _components(len(graph.nodes), *graph.links.compress(joined, axis=1))
            labels = np.zeros(len(blocked), dtype=np.intp)
            labels[graph.nodes] = np.where(blocked[graph.nodes], 0, roots + 1)
            # per inner cell, the blocked cells up to it going forward and back, then up to
            # its head node going forward and its tail node going back, each inclusive
            at, back, head, tail = count[1:][graph.probes]
            head_label, tail_label = labels[graph.chain_array[graph.probes[2:]]]
            cut = np.where(back == tail, tail_label, len(graph.nodes) + 1 + at)  # when the head side is cut
            labels[graph.inner] = np.where(blocked[graph.inner], 0, np.where(at == head, head_label, cut))
            self._labels = memoryview(labels)
        return self._labels

    def with_unit_cost(self) -> "Router":
        """A router over the same mask with unit costs and its own path
        memo; it shares this router's blocked bytes, blocked edges and
        component labels, if computed, instead of computing them again."""
        twin = copy.copy(self)
        twin.costs = None
        twin._paths = {}
        return twin

    def weights(self) -> tuple[bytes, bytes, np.ndarray | None, list[float]]:
        """The blocked flag of each chain cell and of each edge, computed on
        the first call, then the cost of each chain cell, as an array (None
        at unit cost), and of each edge, from the shared `RouteCosts`."""
        graph = self.graph
        if self._blocked_weights is None:
            blocked = np.frombuffer(self.blocked, dtype=np.uint8)[graph.chain_array]
            self._blocked_weights = (blocked.tobytes(), np.logical_or.reduceat(blocked, graph.starts).tobytes())
        return self._blocked_weights + ((None, graph.lengths) if self.costs is None else self.costs.weights())

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
            if self._labels is None or self._reachable(origin, destination):
                path = plan_path(origin, destination, self)
                if path is None:
                    self.labels  # the search failed: let the labels refuse the next such pair
            else:
                path = None
            self._paths[key] = None if path is None else tuple(path)
        path = self._paths[key]
        return None if path is None else list(path)

    def replan(self, origin: Cell, destination: Cell) -> list[Cell] | None:
        """A blocked resident's new route from `origin`: None when `origin`
        is itself blocked, as a resident standing on a flooded cell does not
        replan, else what `route` answers.

        After the origin's blocked byte it reads the memo, then the labels,
        and searches only a pair they join, memoising the answer as `route`
        does. With a free origin the rule of `_reachable` comes down to the
        two cells sharing a label, since each free neighbour of the origin
        shares the origin's; the search then succeeds."""
        width = self.width
        start = (origin[0] + 1) * width + origin[1] + 1
        if self.blocked[start]:
            return None
        key = (origin, destination)
        if key in self._paths:
            path = self._paths[key]
            return None if path is None else list(path)
        labels = self.labels
        if labels[start] != labels[(destination[0] + 1) * width + destination[1] + 1]:
            self._paths[key] = None
            return None
        path = plan_path(origin, destination, self)
        self._paths[key] = tuple(path)
        return path


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of each of n nodes joined by the links a[k]-b[k]: the lowest
    node of its component. Each round hooks the higher root of every link
    whose ends have two roots onto the lower one, then jumps pointers until
    every node points at a root (Shiloach and Vishkin, J. Algorithms 1982).
    A node never points above itself, so each round leaves fewer roots."""
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        if ra.tobytes() == rb.tobytes():  # a cheaper equality test than np.array_equal on small arrays
            return parent
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = parent[parent]
        while jumped.tobytes() != parent.tobytes():
            parent, jumped = jumped, jumped[jumped]


def plan_path(origin: Cell, destination: Cell, router: Router) -> list[Cell] | None:
    """A* over `router`'s road graph, Manhattan heuristic; exact, since each
    edge costs what its cells cost to enter.

    An origin inside a chain leaves it through the partial segments to the
    chain's two end nodes; a destination inside a chain is entered from
    them, or straight along the chain when the origin lies on it too. The
    origin must lie on the graph but need not be passable: an agent may
    stand on a cell that has since flooded. Nodes are expanded in (f, index)
    order, and the first cheapest way found into a cell wins. Returns the
    full cell sequence including origin and destination, or None when
    unreachable.
    """
    if origin == destination:
        return [origin]
    graph = router.graph
    width, rows, cols, chain, out = graph.width, graph.rows, graph.cols, graph.chain, graph.out
    blocked = router.blocked
    goal = (destination[0] + 1) * width + destination[1] + 1
    if blocked[goal]:
        return None
    start = (origin[0] + 1) * width + origin[1] + 1
    chain_blocked, edge_blocked, chain_cost, edge_cost = router.weights()
    hr, hc = graph.distances[destination[0] + 1], graph.distances[destination[1] + 1]
    inf = float("inf")
    g: dict[int, float] = {}
    came: dict[int, int] = {}  # edge e >= 0, or partial segment -1 - k
    segments: list[tuple[int, int, int]] = []  # (cell left, start, end) in `chain`
    heap: list[tuple[float, int]] = []

    def offer(cell: int, cost: float, code: int) -> None:
        if cost < g.get(cell, inf):
            g[cell] = cost
            came[cell] = code
            heapq.heappush(heap, (cost + (hr[rows[cell]] + hc[cols[cell]]), cell))

    def segment(left: int, lo: int, hi: int) -> tuple[int, float] | None:
        """The code and cost of entering chain[lo:hi] from `left`; None if blocked."""
        if chain_blocked.find(1, lo, hi) != -1:
            return None
        segments.append((left, lo, hi))
        return -len(segments), float(hi - lo) if chain_cost is None else sum(chain_cost[lo:hi].tolist())

    into_goal: dict[int, list[tuple[int, float]]] = {}
    goal_sides = graph.interior.get(goal, ())
    for (lo, i, _), (_, _, back) in zip(goal_sides, goal_sides[::-1]):
        entry = segment(chain[back - 1], lo, i + 1)
        if entry is not None:
            into_goal.setdefault(chain[back - 1], []).append(entry)

    if out[start] is not None:
        g[start] = 0.0
        heap.append((0.0, start))
    else:  # inside a chain: offer the far node of each side, and the goal where it lies ahead
        for lo, i, hi in graph.interior[start]:
            for j in [hi - 1] + [j for s, j, _ in goal_sides if s == lo and j > i]:
                entry = segment(start, i + 1, j + 1)
                if entry is not None:
                    offer(chain[j], entry[1], entry[0])

    closed: set[int] = set()
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        _, u = pop(heap)
        if u in closed:
            continue
        if u == goal:
            return _unfold(goal, came, segments, graph)
        closed.add(u)
        base = g[u]
        for e, v in out[u]:
            if edge_blocked[e] or v in closed:
                continue
            cost = base + edge_cost[e]
            if cost < g.get(v, inf):
                g[v] = cost
                came[v] = e
                push(heap, (cost + (hr[rows[v]] + hc[cols[v]]), v))
        for code, cost in into_goal.get(u, ()):
            offer(goal, base + cost, code)
    return None


def _unfold(goal: int, came: dict[int, int], segments: list[tuple[int, int, int]], graph: RoadGraph) -> list[Cell]:
    """The cells from the origin to `goal`, back along the edges and
    segments each node was reached by."""
    chain, offsets = graph.chain, graph.offsets
    path, cell = [], goal
    while cell in came:
        code = came[cell]
        left, lo, hi = (graph.tail[code], offsets[code], offsets[code + 1]) if code >= 0 else segments[-1 - code]
        path.extend(reversed(chain[lo:hi]))
        cell = left
    path.append(cell)
    path.reverse()
    cells = graph.cells
    return [cells[i] for i in path]


def path_steps(path: Sequence[Cell]) -> int:
    return max(len(path) - 1, 0)


@dataclass(frozen=True)
class Poi:
    cell: Cell
    weight: float


def default_pois(world: WorldState, n_pois: int, seed: int) -> list[Poi]:
    """Seeded POIs on road cells, grouped into neighborhood clusters of
    `POI_CLUSTER_SIZE` within `POI_CLUSTER_RADIUS` of a centre.

    Clustering makes a sizable share of trips short-range, which is what
    urban demand looks like and what makes street-level flooding bite.
    """
    rng = pystream(seed, "pois")
    rows, cols = np.nonzero(world.is_road)  # `world.road_cells()`, row-major, as arrays
    road = list(zip(rows.tolist(), cols.tolist()))
    if not road:
        return []
    n = min(n_pois, len(road))
    n_clusters = max(1, n // POI_CLUSTER_SIZE)
    centers = rng.sample(road, n_clusters)
    cells: set[Cell] = set()
    for row, col in centers:
        near = np.abs(rows - row) + np.abs(cols - col) <= POI_CLUSTER_RADIUS
        nearby = [road[i] for i in np.flatnonzero(near).tolist()]
        # the cap honours an n below the cluster size; otherwise it never binds, since
        # before cluster k < n // POI_CLUSTER_SIZE at most k * POI_CLUSTER_SIZE cells exist
        take = min(POI_CLUSTER_SIZE, len(nearby), n - len(cells))
        cells.update(rng.sample(nearby, take))
    while len(cells) < n:
        cells.add(rng.choice(road))
    return [Poi(cell=c, weight=float(rng.randint(1, 5))) for c in sorted(cells)]


def _patience_for(planned: int) -> int:
    return max(2, min(int(round(PATIENCE_FACTOR * planned)), PATIENCE_CAP))


def spawn_demand(
    poi_set: Sequence[Poi],
    rate: int,
    seed: int,
    step: int,
    router: Router,
    id_start: int,
    stagger: int = 0,
) -> list[AgentRecord]:
    """Sample `rate` resident trips from the weighted, nonempty POI set.

    Origin and destination are distinct draws; the initial route is planned
    immediately so planned_steps and patience are fixed at spawn. With
    `stagger`, departures spread uniformly over the next `stagger` steps
    instead of all leaving at once. Fully deterministic given (seed, step).
    """
    rng = pystream(seed, "demand", step)
    agents = []
    cells = [p.cell for p in poi_set]
    # the list `choices` would accumulate from `weights=` on every draw
    cum_weights = list(accumulate(p.weight for p in poi_set))
    for i in range(rate):
        origin = rng.choices(cells, cum_weights=cum_weights)[0]
        destination = origin
        for _ in range(16):
            destination = rng.choices(cells, cum_weights=cum_weights)[0]
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
    only when no remaining stop can be reached. The router labels first: a
    bus reroutes when its next cell is blocked, a blockage that often cuts
    stops off too, and the labels refuse such a leg without a search that
    fails.
    """
    router.labels
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
    wait_probability: float,
) -> list[str]:
    """Advance one non-terminal agent by one step; return the kinds of the
    events it produced, in the order produced (advanced, waited, replanned,
    blocked, arrived, cancelled, held).

    `router` holds this step's passable mask, costs and components for the
    agent's role; it answers a replan that cannot succeed without a search.
    A bus whose current region is in `held_regions` is held; residents
    ignore the set.

    The transition is deterministic given the chosen action; the only coin
    is the wait-vs-replan choice when blocked: the agent waits with
    `wait_probability` (`WAIT_PROBABILITY` in a run). Patience burns on every
    non-advancing step (waits, failed replans); at zero the trip cancels.
    Held buses neither move nor lose patience.

    Both roles move alike: an agent whose next cell is open, most steps of
    most agents, advances with one lookup in the router's blocked bytes and
    returns. The role decides only whether a region hold applies and a leg
    opens, and how a blocked agent that draws the replan coin replans: a
    resident with one `Router.replan` query, a bus with `reroute_bus`.
    The agent then moves to the new path's second cell unchecked.
    """
    if agent.status is _WAITING:
        if step < agent.departure_step:
            return []
        agent.status = Status.ENROUTE
    agent.travel_steps += 1

    bus = agent.role is not _RESIDENT
    if bus and world.region_of(agent.pos) in held_regions:
        return ["held"]
    if agent.pos == agent.destination:
        return _finish(agent, _ARRIVED, "arrived", trip_log, [])
    if bus and agent.path_index + 1 >= len(agent.path):
        # at an intermediate stop with the leg exhausted: open the next leg
        _advance_bus_leg(agent, router)
    i = agent.path_index + 1
    if i < len(agent.path):
        cell = agent.path[i]
        if not router.blocked[(cell[0] + 1) * router.width + cell[1] + 1]:
            agent.pos = cell
            agent.path_index = i
            if cell == agent.destination:
                return _finish(agent, _ARRIVED, "arrived", trip_log, ["advanced"])
            return ["advanced"]
    if rng.random() < wait_probability:
        kinds = ["waited"]
    elif bus and not reroute_bus(agent, router):
        # rerouting found every remaining stop unreachable
        return _finish(agent, _CANCELLED, "cancelled", trip_log, [])
    else:
        path = agent.path if bus else router.replan(agent.pos, agent.destination)
        if path is not None:
            # unchecked: a found path leaves the agent's cell and enters no blocked one
            agent.path, agent.path_index, agent.pos = path, 1, path[1]
            if agent.pos == agent.destination:
                return _finish(agent, _ARRIVED, "arrived", trip_log, ["replanned"])
            return ["replanned"]
        kinds = ["blocked"]
    agent.patience -= 1
    if agent.patience <= 0:
        return _finish(agent, _CANCELLED, "cancelled", trip_log, kinds)
    return kinds


def _finish(agent: AgentRecord, status: Status, kind: str, trip_log: TripLog, kinds: list[str]) -> list[str]:
    """End the trip with a terminal status: close it and add its event
    `kind`, the status's value."""
    agent.status = status
    trip_log.close(agent)
    kinds.append(kind)
    return kinds


def _advance_bus_leg(agent: AgentRecord, router: Router) -> None:
    """Open the leg to the next stop once the current one is exhausted.

    stop_index tracks the stop the bus most recently reached; the active
    path always runs stops[stop_index] -> stops[stop_index + 1]. It never
    reaches the last stop: a bus's destination is stops[-1] (`make_bus`,
    `reroute_bus`), and `step_agent` closes a bus that stands there before
    it opens a leg, so stops[stop_index + 1] always exists. That close
    comes even when stops[-1] lies on an earlier leg, with stops between
    unvisited (a strict xfail in `tests/test_mobility.py`). A leg that
    cannot be routed leaves the exhausted path, so the bus counts as
    blocked and takes the replan coin.
    """
    if agent.pos == agent.stops[agent.stop_index + 1]:
        agent.stop_index += 1
    leg = router.route(agent.pos, agent.stops[agent.stop_index + 1])
    if leg is not None:
        agent.path = leg
        agent.path_index = 0


def aggregate_flows(agents: Iterable[AgentRecord], world: WorldState) -> np.ndarray:
    """Per-cell count of enroute agents this step."""
    width, enroute = world.width, Status.ENROUTE
    flat = [agent.pos[0] * width + agent.pos[1] for agent in agents if agent.status is enroute]
    counts = np.bincount(np.array(flat, dtype=np.intp), minlength=width * world.height)
    return counts.astype(np.float64).reshape(world.shape)
