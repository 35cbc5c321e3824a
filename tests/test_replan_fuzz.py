"""A blocked resident's replan, over seeded random worlds drawn to reach
every branch of `Router.replan`, in lockstep with the step oracle of
`test_step_oracle.py`.

Each world is a small lattice with residents in pairs: two residents on
the same cell, bound for the same destination along the same path, so
the second of a pair to replan in a step asks a pair the router has just
answered. Each step blocks a random set of road cells, drawn more often
from the residents' paths and cells, so residents stand on blocked cells,
find their next cell blocked and lose their destination. World `i` is
drawn from `random.Random(i)`, so the same worlds run on every pass.
"""

from __future__ import annotations

import copy
import random
from collections import Counter

import pytest

from floodloop import mobility as mob
from floodloop import world as w
from floodloop.config import WorldConfig
from floodloop.mobility import AgentRecord, Role, Router, Status, TripLog, road_graph
from floodloop.rng import pystream

pytest.importorskip("hypothesis")  # the oracle's module draws its own cases with it

from test_step_oracle import oracle_step_agent, trip_log_state  # noqa: E402

N_WORLDS = 120
BRANCHES = ("blocked origin", "memoised refusal", "memoised path", "label refusal", "search")


def replan_world(index: int):
    """The `index`th world: a lattice, resident pairs and buses, the cells
    each step blocks, the held regions and the coin settings."""
    rng = random.Random(index)
    world = w.build_world(WorldConfig(rng.randint(5, 10), rng.randint(5, 10), 4, road_spacing=rng.choice([1, 2])), index)
    road = world.road_cells()
    open_router = Router(world.is_road, road_graph(world.is_road))
    agents: list[AgentRecord] = []
    for _ in range(rng.randint(1, 3)):
        origin = rng.choice(road)
        path = open_router.route(origin, rng.choice(road)) or [origin]
        for _ in range(2):
            agents.append(
                AgentRecord(len(agents), Role.RESIDENT, path[-1], origin, list(path), Status.ENROUTE, 6, 0, 1)
            )
    for _ in range(rng.randint(0, 1)):
        agents.append(mob.make_bus(len(agents), rng.sample(road, 3), 0, open_router))
    on_paths = sorted({cell for agent in agents for cell in agent.path})
    blocked = [
        set(rng.sample(on_paths, min(len(on_paths), rng.randint(0, 3)))) | set(rng.sample(road, rng.randint(0, 4)))
        for _ in range(rng.randint(2, 8))
    ]
    held = [set(rng.sample(range(world.n_regions), rng.randint(0, 1))) for _ in blocked]
    return world, agents, blocked, held, rng.choice([0.0, 0.2]), index


def branch_of(router: Router, origin, destination) -> str:
    """Which branch `router.replan(origin, destination)` will take."""
    width = router.width
    start = (origin[0] + 1) * width + origin[1] + 1
    if router.blocked[start]:
        return "blocked origin"
    key = (origin, destination)
    if key in router._paths:
        return "memoised refusal" if router._paths[key] is None else "memoised path"
    labels = router.labels
    if labels[start] != labels[(destination[0] + 1) * width + destination[1] + 1]:
        return "label refusal"
    return "search"


def run_lockstep(index: int, monkeypatch) -> Counter:
    """Step world `index` with `step_agent` and the oracle side by side, and
    count the replan branches taken; each must search only when it says."""
    world, agents, blocked, held, wait_probability, coin_seed = replan_world(index)
    new_agents, old_agents = agents, copy.deepcopy(agents)
    new_log, old_log = TripLog(), TripLog()
    new_rng, old_rng = pystream(coin_seed, "coin"), pystream(coin_seed, "coin")
    graph = road_graph(world.is_road)
    taken: Counter = Counter()
    searches = []
    replan, plan = Router.replan, mob.plan_path

    def classifying(router, origin, destination):
        branch = branch_of(router, origin, destination)
        searched = len(searches)
        path = replan(router, origin, destination)
        taken[branch] += 1
        assert (len(searches) - searched, path is None) == {
            "blocked origin": (0, True),
            "memoised refusal": (0, True),
            "memoised path": (0, False),
            "label refusal": (0, True),
            "search": (1, False),
        }[branch]
        return path

    def counting(origin, destination, router):
        searches.append((origin, destination))
        return plan(origin, destination, router)

    with monkeypatch.context() as mp:
        mp.setattr(Router, "replan", classifying)
        mp.setattr(mob, "plan_path", counting)
        for step, (closed, held_regions) in enumerate(zip(blocked, held), start=1):
            mask = world.is_road.copy()
            for cell in closed:
                mask[cell] = False
            new_router, old_router = Router(mask, graph), Router(mask, graph)
            for new, old in zip(new_agents, old_agents):
                if new.status in (Status.ARRIVED, Status.CANCELLED):
                    continue
                got = mob.step_agent(new, world, new_router, held_regions, new_rng, step, new_log, wait_probability)
                want = oracle_step_agent(
                    old, world, old_router, lambda r: r in held_regions, old_rng, step, old_log, wait_probability
                )
                assert got == want
                assert vars(new) == vars(old)
            assert trip_log_state(new_log) == trip_log_state(old_log)
    return taken


@pytest.mark.parametrize("index", range(N_WORLDS))
def test_resident_replan_matches_the_oracle(index, monkeypatch):
    run_lockstep(index, monkeypatch)


def test_the_worlds_reach_every_replan_branch(monkeypatch):
    # the lockstep runs are only a check if the replans take every branch
    taken: Counter = Counter()
    for index in range(N_WORLDS):
        taken += run_lockstep(index, monkeypatch)
    assert set(taken) == set(BRANCHES), taken
