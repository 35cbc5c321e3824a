"""Turning regional directives into executable, feasibility-checked instructions.

Each directive maps onto one typed instruction over the cycle's window;
`translate` and `wrap_accuracy` each take one cycle's whole list, in
region order, and keep its order. The loop supplies every anchor, window
and parameter: a closure's cell is its region's worst road cell, or None
when the region has no roads, and the window lies inside the run. So the
accuracy pass only rejects what cannot be deployed, a closure with no
cell and a detour around a region without passable roads; it reads the
road counts of the cycle's `StateSummary`, not the world (the rejection
reasons feed the next cycle's failure feedback). Dispatched instructions
live on a board whose effects are queried per step, so everything
reverts automatically when a window closes.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .policy import Directive
from .state import StateSummary


class Tag(str, Enum):
    ROUTING = "routing"
    OBSTACLE = "obstacle"
    STOP = "stop"
    RELIEF = "relief"
    NOOP = "noop"


class Instruction(NamedTuple):
    tag: Tag
    region: int
    cell: tuple[int, int] | None
    params: tuple[tuple[str, float], ...]
    window: tuple[int, int]

    def param(self, key: str) -> float:
        """The value paired with `key` in `params`; the last pair wins, as in a dict."""
        for name, value in reversed(self.params):
            if name == key:
                return value
        raise KeyError(key)


class Rejection(NamedTuple):
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
_SHRINKS = frozenset(shrink for _, shrink in _DIRECTIVE_TABLE.values())


def translate(directives: Sequence[Directive], window: tuple[int, int]) -> list[Instruction]:
    """Map each directive onto its one instruction over the cycle's
    `window`, which the brief variants shorten; one call per cycle."""
    start, end = window
    spans = {shrink: (start, start + max(0, int(round((end - start) * shrink)))) for shrink in _SHRINKS}
    instructions = []
    for d in directives:
        tag, shrink = _DIRECTIVE_TABLE[d.kind]
        instructions.append(Instruction(tag, d.region, d.cell, d.params, spans[shrink]))
    return instructions


def wrap_accuracy(instructions: Sequence[Instruction], summary: StateSummary) -> list[Instruction | Rejection]:
    """Feasibility pass over one cycle's instructions, in order: reject a
    closure without a road cell to anchor on and a detour around a region
    whose roads are missing or all at least `summary.blocking_depth`
    deep; any other instruction passes unchanged."""
    out: list[Instruction | Rejection] = []
    for instr in instructions:
        r = instr.region
        reason = ""
        if instr.tag is Tag.OBSTACLE and instr.cell is None:
            reason = f"no road cell in region {r} to anchor obstacle"
        elif instr.tag is Tag.ROUTING:
            if summary.region_road_cells[r] == 0:
                reason = f"routing infeasible: region {r} has no road cells"
            elif summary.region_blocked_roads[r] == summary.region_road_cells[r]:
                reason = f"routing infeasible: region {r} fully flooded"
        out.append(Rejection(instr, reason) if reason else instr)
    return out


class InstructionBoard:
    """Active instruction effects, queried per step.

    Effects are pure functions of (instruction windows, step): once a
    window ends the effect vanishes, so the post-window world parameters
    equal the pre-window ones absent other causes.
    """

    def __init__(self, n_regions: int):
        self.n_regions = n_regions
        self._groups: dict[Tag, list[Instruction]] = {tag: [] for tag in Tag}
        # the same lists by name, in `Tag`'s order
        self.routings, self.obstacles, self.stops, self.reliefs, self.noops = self._groups.values()

    def dispatch(self, instructions: list[Instruction]) -> None:
        for instr in instructions:
            self._groups[instr.tag].append(instr)

    def prune(self, step: int) -> None:
        """Drop instructions whose window ended before `step`.

        Valid while queries never ask for an earlier step than `step`: the
        engine prunes and queries at the step it executes; future windows stay.
        """
        for group in self._groups.values():
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
                penalty = i.param("penalty")
                out[i.region] = max(out.get(i.region, 0.0), penalty)
        return out

    def bus_held(self, step: int) -> set[int]:
        """The regions whose buses are held at `step`; the engine asks once
        per step and hands the set to every `step_agent` call."""
        return {i.region for i in self.stops if self._active(i, step)}

    def drain_multipliers(self, step: int) -> np.ndarray | None:
        """Each region's drainage multiplier at `step`: the largest of 1.0
        and its active reliefs' multipliers. None when no relief is active,
        which `step_hydrology` reads as all ones."""
        active = [i for i in self.reliefs if self._active(i, step)]
        if not active:
            return None
        mult = np.ones(self.n_regions)
        for i in active:
            mult[i.region] = max(mult[i.region], i.param("multiplier"))
        return mult

    def active_regions(self, step: int) -> tuple[int, ...]:
        regions = set()
        for group in (self.obstacles, self.routings, self.stops, self.reliefs):
            for i in group:
                if self._active(i, step):
                    regions.add(i.region)
        return tuple(sorted(regions))
