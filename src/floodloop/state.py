"""Structured per-cycle state summary shared by retrieval, backends and
the decide stages.

`summarize_world` is the dispatcher's one look at a cycle-boundary state;
no decide stage reads the world itself. It reads the region scores that
`metrics` keeps with the world state, so they are the ones the step-end
metrics snapshot computed, not a second computation. It gathers the road
cells' depths once, over `WorldState.road_runs`, and takes from that one
gather each region's blocked road count and deepest road cell; the run
bounds give each region's road count. The summary's `text` is rendered
once and serves both the retrieval query and the prompt's STATE block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metrics import congestion_scores, flood_scores
from .world import WorldState

@dataclass(frozen=True)
class StateSummary:
    """Snapshot of what the dispatcher can observe at a cycle boundary.

    `targeted_regions` is asked on the engine's one step clock at the
    cycle's first step, before the cycle dispatches; every window ends
    inside its own cycle, so in the decision loop the field is empty.

    `region_blocked_roads[r]` counts region r's road cells at least
    `blocking_depth` deep, out of its `region_road_cells[r]`;
    `region_worst_road[r]` is its deepest road cell, the first in
    row-major order on a tie, or None for a region without roads.
    """

    step: int
    scenario_kind: str
    intensity: float
    region_flood: tuple[float, ...]
    region_congestion: tuple[float, ...]
    region_max_depth: tuple[float, ...]
    region_blocked_roads: tuple[int, ...]
    region_road_cells: tuple[int, ...]
    region_worst_road: tuple[tuple[int, int] | None, ...]
    blocking_depth: float
    flooded_regions: tuple[int, ...]
    congested_regions: tuple[int, ...]
    targeted_regions: tuple[int, ...]
    spawned: int
    arrived: int
    cancelled: int
    enroute: int

    def seed_region_ids(self) -> list[str]:
        """Graph node ids for regions worth retrieving context about."""
        regions = sorted(set(self.flooded_regions) | set(self.congested_regions) | set(self.targeted_regions))
        return [f"region:{r}" for r in regions]

    @cached_property
    def text(self) -> str:
        """Canonical rendering used for embedding and the prompt STATE block;
        rendered on the first read and kept."""
        lines = [
            f"step: {self.step}",
            f"scenario: {self.scenario_kind}",
            f"rain_intensity: {self.intensity:.4f}",
            f"flooded_regions: {_fmt_ids(self.flooded_regions)}",
            f"congested_regions: {_fmt_ids(self.congested_regions)}",
            f"targeted_regions: {_fmt_ids(self.targeted_regions)}",
            f"max_region_depth: {max(self.region_max_depth):.4f}",
            f"blocked_road_cells: {sum(self.region_blocked_roads)}",
            f"trips: spawned={self.spawned} arrived={self.arrived} cancelled={self.cancelled} enroute={self.enroute}",
        ]
        return "\n".join(lines)


def _fmt_ids(ids: tuple[int, ...]) -> str:
    return " ".join(f"region {i}" for i in ids) if ids else "(none)"


def summarize_world(
    world: WorldState,
    scenario_kind: str,
    intensity: float,
    blocking_depth: float,
    targeted_regions: tuple[int, ...],
    trip_counts: tuple[int, int, int, int],
    score_threshold: float,
) -> StateSummary:
    """The dispatcher's view of `world`; a region whose flood or congestion
    score exceeds `score_threshold` is flooded or congested."""
    f_scores = flood_scores(world)
    t_scores = congestion_scores(world)
    max_depth = _region_max(world.water_depth, world.region_id, world.n_regions)
    runs = world.road_runs
    blocked = np.zeros(world.n_regions, dtype=np.int64)
    worst: list[tuple[int, int] | None] = [None] * world.n_regions
    if runs.regions:
        # reductions over the non-empty runs; a depth tie goes to the run's first cell
        depth = world.water_depth.take(runs.flat)
        blocked[list(runs.regions)] = np.add.reduceat(depth >= blocking_depth, runs.starts)
        top = np.repeat(np.maximum.reduceat(depth, runs.starts), runs.sizes)
        first = np.minimum.reduceat(np.where(depth == top, np.arange(depth.size), depth.size), runs.starts)
        for region, i in zip(runs.regions, first.tolist()):
            worst[region] = runs.cells[i]
    spawned, arrived, cancelled, enroute = trip_counts
    return StateSummary(
        step=world.step,
        scenario_kind=scenario_kind,
        intensity=float(intensity),
        region_flood=tuple(f_scores.tolist()),
        region_congestion=tuple(t_scores.tolist()),
        region_max_depth=tuple(max_depth.tolist()),
        region_blocked_roads=tuple(blocked.tolist()),
        region_road_cells=tuple(np.diff(runs.bounds).tolist()),
        region_worst_road=tuple(worst),
        blocking_depth=float(blocking_depth),
        flooded_regions=tuple(np.flatnonzero(f_scores > score_threshold).tolist()),
        congested_regions=tuple(np.flatnonzero(t_scores > score_threshold).tolist()),
        targeted_regions=targeted_regions,
        spawned=spawned,
        arrived=arrived,
        cancelled=cancelled,
        enroute=enroute,
    )


def _region_max(values: np.ndarray, region_id: np.ndarray, n_regions: int) -> np.ndarray:
    out = np.zeros(n_regions)
    np.maximum.at(out, region_id.ravel(), values.ravel())
    return out
