"""`step_agent` against the per-event version it replaced.

The oracle below is the former `step_agent` with its helpers, kept
verbatim except that each `StepEvent(kind, agent_id, region)` is reduced
to its kind, as the engine only ever counted kinds, and that the router's
former `passable(cell)` method is the local `passable(router, cell)`,
which reads the same blocked byte. It asks a callable
`bus_held(region)`, where the new version takes the step's set of held
regions. Both run in lockstep over random small worlds, with a fresh
blocked set and held set each step, on copies of the same residents and
buses, each side with its own coin stream. Like the engine, the driver
steps an agent only while it is not terminal.
"""

from __future__ import annotations

import copy
from typing import Callable

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floodloop import mobility as mob
from floodloop import world as w
from floodloop.config import WorldConfig
from floodloop.mobility import AgentRecord, Role, Router, Status, TripLog, road_graph
from floodloop.rng import pystream


def passable(router: Router, cell) -> bool:
    """What the former `Router.passable` answered: the cell's blocked byte is 0."""
    return not router.blocked[(cell[0] + 1) * router.width + cell[1] + 1]


def oracle_reroute_bus(bus: AgentRecord, router: Router) -> tuple[AgentRecord, list]:
    targets = [s for s in bus.stops[bus.stop_index :] if s != bus.pos]
    skipped: list = []
    current = bus.pos
    kept: list = []
    first_leg = None
    for stop in targets:
        leg = router.route(current, stop)
        if leg is None:
            skipped.append(stop)
            continue
        kept.append(stop)
        if first_leg is None:
            first_leg = leg
        current = stop
    if first_leg is None:
        bus.status = Status.CANCELLED
        return bus, skipped
    bus.stops = [bus.pos] + kept
    bus.stop_index = 0
    bus.destination = kept[-1]
    bus.path = first_leg
    bus.path_index = 0
    return bus, skipped


def oracle_step_agent(
    agent: AgentRecord,
    world: w.WorldState,
    router: Router,
    bus_held: Callable[[int], bool],
    rng,
    step: int,
    trip_log: TripLog,
    wait_probability: float,
) -> list[str]:
    if agent.status in (Status.ARRIVED, Status.CANCELLED):
        return []
    events: list[str] = []
    region = world.region_of(agent.pos)

    if agent.status is Status.WAITING:
        if step < agent.departure_step:
            return []
        agent.status = Status.ENROUTE

    if agent.role is Role.BUS and bus_held(region):
        agent.travel_steps += 1
        events.append("held")
        return events

    agent.travel_steps += 1

    if agent.pos == agent.destination:
        oracle_arrive(agent, trip_log)
        events.append("arrived")
        return events

    if agent.role is Role.BUS and agent.path_index + 1 >= len(agent.path):
        # at an intermediate stop with the leg exhausted: open the next leg
        oracle_advance_bus_leg(agent, router)

    nxt = agent.path[agent.path_index + 1] if agent.path_index + 1 < len(agent.path) else None
    advanced = False
    if nxt is not None and passable(router, nxt):
        agent.pos = nxt
        agent.path_index += 1
        advanced = True
        events.append("advanced")
    else:
        action = "wait" if rng.random() < wait_probability else "replan"
        if action == "replan":
            replanned = oracle_replan(agent, router)
            if agent.status is Status.CANCELLED:
                # bus rerouting found every remaining stop unreachable
                trip_log.close(agent)
                events.append("cancelled")
                return events
            if replanned:
                events.append("replanned")
                nxt2 = agent.path[agent.path_index + 1] if agent.path_index + 1 < len(agent.path) else None
                if nxt2 is not None and passable(router, nxt2):
                    agent.pos = nxt2
                    agent.path_index += 1
                    advanced = True
            else:
                events.append("blocked")
        else:
            events.append("waited")

    if agent.pos == agent.destination:
        oracle_arrive(agent, trip_log)
        events.append("arrived")
        return events

    if not advanced:
        agent.patience -= 1
        if agent.patience <= 0:
            agent.status = Status.CANCELLED
            trip_log.close(agent)
            events.append("cancelled")
    return events


def oracle_arrive(agent: AgentRecord, trip_log: TripLog) -> None:
    agent.status = Status.ARRIVED
    trip_log.close(agent)


def oracle_advance_bus_leg(agent: AgentRecord, router: Router) -> bool:
    if agent.stop_index + 1 >= len(agent.stops):
        return False
    if agent.pos == agent.stops[agent.stop_index + 1]:
        agent.stop_index += 1
    if agent.stop_index + 1 >= len(agent.stops):
        return False
    nxt_leg = router.route(agent.pos, agent.stops[agent.stop_index + 1])
    if nxt_leg is None:
        return False
    agent.path = nxt_leg
    agent.path_index = 0
    return True


def oracle_replan(agent: AgentRecord, router: Router) -> bool:
    if agent.role is Role.BUS and len(agent.stops[agent.stop_index :]) >= 2:
        bus, _ = oracle_reroute_bus(agent, router)
        return bus.status is not Status.CANCELLED
    if not passable(router, agent.pos):
        return False  # standing on a blocked cell
    path = router.route(agent.pos, agent.destination)
    if path is None:
        return False
    agent.path = path
    agent.path_index = 0
    return True


@st.composite
def stepping_cases(draw):
    side = st.integers(4, 8)
    width, height, seed = draw(side), draw(side), draw(st.integers(0, 20))
    world = w.build_world(
        WorldConfig(width, height, draw(st.sampled_from([1, 4])), road_spacing=draw(st.sampled_from([1, 2]))), seed
    )
    road = world.road_cells()
    assume(len(road) >= 4)
    cells = st.sampled_from(road)
    open_router = Router(world.is_road, road_graph(world.is_road))
    agents = []
    for agent_id in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            stops = draw(st.lists(cells, min_size=2, max_size=4, unique=True))
            agent = mob.make_bus(agent_id, stops, 0, open_router)
        else:
            origin = draw(cells)
            # a destination next to the origin puts the agent one step from arrival
            path = open_router.route(origin, draw(cells)) or [origin]
            destination = path[min(len(path) - 1, draw(st.sampled_from([1, 99])))]
            agent = AgentRecord(agent_id, Role.RESIDENT, destination, origin, path, Status.WAITING, 1, 0, 1)
        agent.status = draw(st.sampled_from([Status.WAITING, Status.ENROUTE]))
        agent.departure_step = draw(st.integers(0, 3))
        agent.patience = draw(st.integers(1, 6))
        agents.append(agent)
    n_steps = draw(st.integers(1, 10))
    blocked = draw(st.lists(st.sets(cells, max_size=6), min_size=n_steps, max_size=n_steps))
    held = draw(st.lists(st.sets(st.integers(0, world.n_regions - 1)), min_size=n_steps, max_size=n_steps))
    wait_probability = draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    return world, agents, blocked, held, wait_probability, draw(st.integers(0, 10**6))


def trip_log_state(log: TripLog) -> tuple:
    return (log.records, log.spawned, log.arrived, log.arrived_on_time, log.cancelled)


@settings(deadline=None, max_examples=400)
@given(stepping_cases())
def test_step_agent_matches_the_per_event_oracle(case):
    world, agents, blocked, held, wait_probability, coin_seed = case
    new_agents, old_agents = agents, copy.deepcopy(agents)
    new_log, old_log = TripLog(), TripLog()
    new_rng, old_rng = pystream(coin_seed, "coin"), pystream(coin_seed, "coin")
    graph = road_graph(world.is_road)
    for step, (closed, held_regions) in enumerate(zip(blocked, held), start=1):
        mask = world.is_road.copy()
        for cell in closed:
            mask[cell] = False
        new_router, old_router = Router(mask, graph), Router(mask, graph)
        for new, old in zip(new_agents, old_agents):
            if new.status in (Status.ARRIVED, Status.CANCELLED):  # the engine steps only agents not yet terminal
                continue
            got = mob.step_agent(new, world, new_router, held_regions, new_rng, step, new_log, wait_probability)
            want = oracle_step_agent(
                old, world, old_router, lambda region: region in held_regions, old_rng, step, old_log, wait_probability
            )
            assert got == want
            assert vars(new) == vars(old)
        assert trip_log_state(new_log) == trip_log_state(old_log)
        assert new_rng.getstate() == old_rng.getstate()


def test_cases_reach_every_event_kind():
    # the strategy is only a check if the lockstep runs produce every kind
    seen: set[str] = set()

    @settings(deadline=None, max_examples=300, database=None)
    @given(stepping_cases())
    def collect(case):
        world, agents, blocked, held, wait_probability, coin_seed = case
        log, rng = TripLog(), pystream(coin_seed, "coin")
        graph = road_graph(world.is_road)
        for step, (closed, held_regions) in enumerate(zip(blocked, held), start=1):
            mask = world.is_road.copy()
            for cell in closed:
                mask[cell] = False
            router = Router(mask, graph)
            for agent in agents:
                if agent.status in (Status.ARRIVED, Status.CANCELLED):
                    continue
                seen.update(mob.step_agent(agent, world, router, held_regions, rng, step, log, wait_probability))

    collect()
    assert seen == {"advanced", "waited", "replanned", "blocked", "arrived", "cancelled", "held"}
