"""Turning regional directives into executable, feasibility-checked instructions.

Each directive maps onto one typed instruction; an accuracy pass snaps
cell anchors onto road cells, clips execution windows to the horizon, and
rejects undeployable commands (the rejection reasons feed the next
cycle's failure feedback). Dispatched instructions live on a board whose
effects are queried per step, so everything reverts automatically when a
window closes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import UnknownDirective
from .policy import Directive
from .world import WorldState

DEFAULT_RELIEF_MULTIPLIER = 3.0
DEFAULT_ROUTING_PENALTY = 4.0


class Tag(str, Enum):
    ROUTING = "routing"
    OBSTACLE = "obstacle"
    STOP = "stop"
    RELIEF = "relief"
    NOOP = "noop"


@dataclass(frozen=True)
class Instruction:
    tag: Tag
    region: int
    cell: tuple[int, int] | None
    params: tuple[tuple[str, float], ...]
    window: tuple[int, int]

    def param(self, key: str, default: float) -> float:
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class Rejection:
    instruction: Instruction
    reason: str


# directive kind -> (tag, window shrink factor)
_DIRECTIVE_TABLE: dict[str, tuple[Tag, float]] = {
    "avoid_region": (Tag.ROUTING, 1.0),
    "avoid_region_strong": (Tag.ROUTING, 1.0),
    "close_cell": (Tag.OBSTACLE, 1.0),
    "close_cell_brief": (Tag.OBSTACLE, 0.5),
    "hold_buses": (Tag.STOP, 1.0),
    "hold_buses_brief": (Tag.STOP, 0.5),
    "deploy_pumps": (Tag.RELIEF, 1.0),
    "deploy_pumps_surge": (Tag.RELIEF, 0.5),
}

def translate(directive: Directive, window: tuple[int, int]) -> Instruction:
    """Map a directive onto its one instruction over the cycle's `window`,
    which the brief variants shorten."""
    entry = _DIRECTIVE_TABLE.get(directive.kind)
    if entry is None:
        raise UnknownDirective(directive.kind)
    tag, shrink = entry
    start, end = window
    span = max(0, int(round((end - start) * shrink)))
    return Instruction(tag, directive.region, directive.cell, directive.params, (start, start + span))


def snap_to_road(world: WorldState, region: int, cell: tuple[int, int]) -> tuple[int, int] | None:
    """Nearest road cell within the region by Manhattan distance; ties
    resolve in row-major scan order."""
    road_cells = world.region_roads[region][1]
    if not road_cells:
        return None
    # min keeps the first of equal distances, and the cells are row-major
    return min(road_cells, key=lambda rc: abs(rc[0] - cell[0]) + abs(rc[1] - cell[1]))


def wrap_accuracy(
    instr: Instruction,
    world: WorldState,
    horizon: int,
    resident_block_depth: float = 0.3,
) -> Instruction | Rejection:
    """Feasibility pass: snap anchors, clip windows, reject undeployables."""
    start, end = instr.window
    start = max(0, min(start, horizon - 1))
    end = max(start, min(end, horizon - 1))
    out = replace(instr, window=(start, end))

    if instr.tag in (Tag.OBSTACLE,) or (instr.cell is not None and instr.tag is not Tag.NOOP):
        anchor = instr.cell
        if anchor is None or not world.in_bounds(anchor):
            anchor = _region_centroid(world, instr.region)
        if not world.is_road[anchor] or world.region_of(anchor) != instr.region:
            snapped = snap_to_road(world, instr.region, anchor)
            if snapped is None:
                return Rejection(out, f"no road cell in region {instr.region} to anchor {instr.tag.value}")
            anchor = snapped
        out = replace(out, cell=anchor)

    if instr.tag is Tag.ROUTING:
        flat = world.region_roads[instr.region][0]
        if not len(flat):
            return Rejection(out, f"routing infeasible: region {instr.region} has no road cells")
        if np.all(world.water_depth.take(flat) >= resident_block_depth):
            return Rejection(out, f"routing infeasible: region {instr.region} fully flooded")
    return out


def _region_centroid(world: WorldState, region: int) -> tuple[int, int]:
    rows, cols = np.nonzero(world.region_id == region)
    if len(rows) == 0:
        return (0, 0)
    return (int(round(float(rows.mean()))), int(round(float(cols.mean()))))


class InstructionBoard:
    """Active instruction effects, queried per step.

    Effects are pure functions of (instruction windows, step): once a
    window ends the effect vanishes, so the post-window world parameters
    equal the pre-window ones absent other causes.
    """

    def __init__(self, n_regions: int):
        self.n_regions = n_regions
        self.obstacles: list[Instruction] = []
        self.routings: list[Instruction] = []
        self.stops: list[Instruction] = []
        self.reliefs: list[Instruction] = []
        self.noops: list[Instruction] = []

    def dispatch(self, instructions: list[Instruction]) -> None:
        for instr in instructions:
            if instr.tag is Tag.OBSTACLE:
                self.obstacles.append(instr)
            elif instr.tag is Tag.ROUTING:
                self.routings.append(instr)
            elif instr.tag is Tag.STOP:
                self.stops.append(instr)
            elif instr.tag is Tag.RELIEF:
                self.reliefs.append(instr)
            else:
                self.noops.append(instr)

    def prune(self, step: int) -> None:
        """Drop instructions whose window ended before `step`.

        Valid while queries never ask for an earlier step than `step`, as
        the engine's step order guarantees; future windows are kept.
        """
        for group in (self.obstacles, self.routings, self.stops, self.reliefs, self.noops):
            group[:] = [i for i in group if i.window[1] >= step]

    @staticmethod
    def _active(instr: Instruction, step: int) -> bool:
        return instr.window[0] <= step <= instr.window[1]

    def closed_cells(self, step: int) -> set[tuple[int, int]]:
        return {i.cell for i in self.obstacles if i.cell is not None and self._active(i, step)}

    def region_penalties(self, step: int) -> dict[int, float]:
        out: dict[int, float] = {}
        for i in self.routings:
            if self._active(i, step):
                penalty = i.param("penalty", DEFAULT_ROUTING_PENALTY)
                out[i.region] = max(out.get(i.region, 0.0), penalty)
        return out

    def bus_held(self, step: int) -> set[int]:
        """The regions whose buses are held at `step`; the engine asks once
        per step and hands the set to every `step_agent` call."""
        return {i.region for i in self.stops if self._active(i, step)}

    def drain_multipliers(self, step: int) -> np.ndarray:
        mult = np.ones(self.n_regions)
        for i in self.reliefs:
            if self._active(i, step):
                mult[i.region] = max(mult[i.region], i.param("multiplier", DEFAULT_RELIEF_MULTIPLIER))
        return mult

    def active_regions(self, step: int) -> tuple[int, ...]:
        regions = set()
        for group in (self.obstacles, self.routings, self.stops, self.reliefs):
            for i in group:
                if self._active(i, step):
                    regions.add(i.region)
        return tuple(sorted(regions))
