"""Structured per-cycle state summary shared by retrieval and backends.

`summarize_world` reads the region scores that `metrics` keeps with the
world state, so the cycle-boundary state's scores are the ones its
step-end metrics snapshot computed, not a second computation. The
summary's `text` is rendered once and serves both the retrieval query
and the prompt's STATE block.
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
    """

    step: int
    scenario_kind: str
    intensity: float
    region_flood: tuple[float, ...]
    region_congestion: tuple[float, ...]
    region_max_depth: tuple[float, ...]
    region_blocked_roads: tuple[int, ...]
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
    blocked = world.is_road & (world.water_depth >= blocking_depth)
    blocked_counts = np.bincount(world.region_id[blocked], minlength=world.n_regions)
    spawned, arrived, cancelled, enroute = trip_counts
    return StateSummary(
        step=world.step,
        scenario_kind=scenario_kind,
        intensity=float(intensity),
        region_flood=tuple(f_scores.tolist()),
        region_congestion=tuple(t_scores.tolist()),
        region_max_depth=tuple(max_depth.tolist()),
        region_blocked_roads=tuple(blocked_counts.tolist()),
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
