"""Rainfall scenarios and the grid environment they drive.

The world is a rectangular grid of cells (water depth, car density,
elevation, road flag, region id) plus a step clock. Rain falls on road
cells (impervious runoff collectors), drains everywhere at a per-step
rate, and relaxes downhill toward lower-elevation neighbors without
losing mass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .config import WorldConfig
from .errors import is_json, parse_json, record_fields
from .rng import substream

NOISE_AMPLITUDE = 0.05
ELEVATION_RELIEF = 12.0  # metres between the lowest and the highest cell before roads are cut in
ELEVATION_SMOOTHING = 1  # box_filter passes over the seeded noise
ROAD_DEPRESSION = 1.5  # metres the streets run below the surrounding terrain
SMOOTHING_WINDOW = 5  # the side of box_filter's square window; odd, so it centres on the cell


class ScenarioKind(str, Enum):
    EXTREME = "extreme"
    INTERMITTENT = "intermittent"
    LIGHT = "light"


@dataclass(frozen=True)
class RainfallScenario:
    """A per-step intensity curve in [0, 1], reproducible from its seed."""

    kind: ScenarioKind
    curve: tuple[float, ...]
    seed: int

    @property
    def steps(self) -> int:
        return len(self.curve)

    def to_record(self) -> dict:
        return {
            "kind": self.kind.value,
            "steps": self.steps,
            "seed": self.seed,
            "curve": list(self.curve),
        }

    @staticmethod
    def from_record(record: dict) -> "RainfallScenario":
        """The scenario of a saved record: a JSON object with a string
        `kind`, an integer `seed` and a `curve` array of `steps` numbers
        in [0, 1]. A record or field of another JSON kind is a `TypeError`;
        a missing field, a `steps` that is not the curve's length and a
        curve entry out of range are a `ValueError`. Each names its field."""
        kind, steps, curve, seed = record_fields(record, "scenario record", kind=str, steps=int, curve=list, seed=int)
        if steps != len(curve):
            raise ValueError(f"scenario record has steps {steps}, but its curve holds {len(curve)} entries")
        for i, v in enumerate(curve):
            # NaN fails the range test too
            if not is_json(v, float) or not 0.0 <= v <= 1.0:
                raise ValueError(f"scenario curve[{i}]: must be a number in [0, 1], got {v!r}")
        return RainfallScenario(kind=ScenarioKind(kind), curve=tuple(float(v) for v in curve), seed=seed)


def save_scenario(path: str | Path, scenario: RainfallScenario) -> None:
    Path(path).write_text(json.dumps(scenario.to_record(), indent=2))


def load_scenario(path: str | Path) -> RainfallScenario:
    return RainfallScenario.from_record(parse_json(Path(path).read_text(), "scenario record"))


def generate_scenario(kind: ScenarioKind, steps: int, seed: int) -> RainfallScenario:
    """Build one of the three canonical intensity curves over `steps` >= 10
    steps (`RunConfig.validate` checks the bound).

    extreme      sharp onset, sustained plateau >= 0.8 over >= 25% of steps,
                 peak forced to exactly 1.0
    intermittent >= 2 pulses peaking >= 0.8 with troughs < 0.1 between them
    light        long low drizzle, max <= 0.35, nonzero on >= 80% of steps
    """
    kind = ScenarioKind(kind)
    rng = substream(seed, "scenario", kind.value, steps)
    template = np.zeros(steps, dtype=np.float64)

    if kind is ScenarioKind.EXTREME:
        onset = max(2, steps // 10)
        plateau_len = max(int(math.ceil(0.35 * steps)) + 2, 4)
        plateau_start = onset
        plateau_end = min(steps, plateau_start + plateau_len)
        template[:onset] = np.linspace(0.05, 0.9, onset, endpoint=False)
        template[plateau_start:plateau_end] = 0.95
        tail = steps - plateau_end
        if tail > 0:
            template[plateau_end:] = np.linspace(0.5, 0.05, tail)
        noise_floor = 0.0
    elif kind is ScenarioKind.INTERMITTENT:
        n_pulses = 3 if steps >= 30 else 2
        pulse_len = max(2, steps // 12)
        template[:] = 0.03
        centers = np.linspace(pulse_len, steps - pulse_len - 1, n_pulses)
        jitter = rng.integers(-1, 2, size=n_pulses)
        for c, j in zip(centers, jitter):
            lo = int(max(0, round(c) + int(j) - pulse_len // 2))
            template[lo : lo + pulse_len] = 0.92
        noise_floor = 0.0
    else:
        phase = rng.uniform(0, 2 * math.pi)
        wave = 0.06 * np.sin(np.linspace(0, 4 * math.pi, steps) + phase)
        template[:] = 0.18 + wave
        noise_floor = 0.02  # keep the drizzle strictly nonzero

    noise = rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, size=steps)
    curve = np.clip(template + noise, noise_floor, 1.0)
    if kind is ScenarioKind.EXTREME:
        peak = plateau_start + (plateau_end - plateau_start) // 2
        curve[peak] = 1.0
    return RainfallScenario(kind=kind, curve=tuple(float(v) for v in curve), seed=seed)


def partition_regions(width: int, height: int, n_regions: int) -> np.ndarray:
    """Tile the grid into a sqrt(n) x sqrt(n) checkerboard of region ids;
    `n_regions` is a positive perfect square (`RunConfig.validate`).

    The last row/column of tiles absorbs the remainder when the grid does
    not divide evenly.
    """
    side = math.isqrt(n_regions)
    tile_h = math.ceil(height / side)
    tile_w = math.ceil(width / side)
    rows = np.minimum(np.arange(height) // tile_h, side - 1)
    cols = np.minimum(np.arange(width) // tile_w, side - 1)
    return (rows[:, None] * side + cols[None, :]).astype(np.int64)


def synth_elevation(width: int, height: int, seed: int) -> np.ndarray:
    """Smooth seeded noise field in meters; only the ordering matters to flow."""
    rng = substream(seed, "elevation")
    z = rng.standard_normal((height, width))
    for _ in range(ELEVATION_SMOOTHING):
        z = box_filter(z)
    z = z - z.min()
    span = float(z.max()) or 1.0
    return (z / span) * ELEVATION_RELIEF


def box_filter(z: np.ndarray) -> np.ndarray:
    """Mean over the 5x5 window (`SMOOTHING_WINDOW`) centred on each cell,
    edges repeated outward.

    The same bytes as `scipy.ndimage.uniform_filter(z, 5, mode="nearest")`,
    by the same arithmetic: along axis 0, then axis 1, a running sum that
    starts from the first window summed left to right, adds each window's
    entering value minus its leaving one, and is divided by 5.
    """
    size, half = SMOOTHING_WINDOW, SMOOTHING_WINDOW // 2
    for axis in (0, 1):
        z = np.moveaxis(z, axis, -1)
        n = z.shape[-1]
        padded = np.pad(z, [(0, 0), (half, half)], mode="edge")
        first = 0.0
        for k in range(size):
            first = first + padded[:, k]
        steps = np.empty_like(z)
        steps[:, 0] = first
        steps[:, 1:] = padded[:, size:] - padded[:, : n - 1]
        z = np.moveaxis(np.cumsum(steps, axis=-1) / size, -1, axis)
    return z


@dataclass
class WorldState:
    """One immutable-per-step snapshot of the grid environment.

    `params` is the run's `WorldConfig`; `step_hydrology` reads its
    per-step fractions (`inflow_coeff`, `drainage_rate`, `diffusion_rate`),
    each in [0, 1]. They are taken as given: `RunConfig.validate` is where
    a value outside that range is rejected.

    `terrain` holds the elevation and the other fixed arrays of
    `step_hydrology` (`Terrain`), and `region_cells` each region's cell
    count; `build_world` takes both once, as terrain, roads and regions
    never change during a run.

    `region_scores` keeps the per-region scores that `metrics` computes
    from this state, at most once each; `replace` starts the next state
    with none, so they go away with the state they describe.
    """

    width: int
    height: int
    is_road: np.ndarray
    region_id: np.ndarray
    water_depth: np.ndarray
    car_density: np.ndarray
    step: int
    n_regions: int
    params: WorldConfig
    terrain: Terrain = field(repr=False)
    region_cells: np.ndarray = field(repr=False)
    road_runs: RoadRuns = field(repr=False)
    region_scores: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def road_cells(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.is_road)
        return list(zip(rows.tolist(), cols.tolist()))

    def region_of(self, cell: tuple[int, int]) -> int:
        return int(self.region_id[cell])


@dataclass(frozen=True)
class Terrain:
    """The arrays `step_hydrology` reads on every step, taken once per
    world by `terrain_of`.

    All but `road` are flat over the grid padded by a one-cell ring, so
    the neighbours of every cell lie at the fixed `offsets` (up, down,
    left, right) and `_diffuse` reads each direction as one contiguous
    slice. Per offset, a mask holds 1.0 where that neighbour lies strictly
    lower, 0.0 where it does not, and -0.0 where there is none: on every
    ring cell, and on an edge cell for the direction off the grid.
    """

    elevation: np.ndarray  # +0.0 on the ring
    offsets: tuple[int, int, int, int]
    masks: tuple[np.ndarray, ...]
    counts: np.ndarray  # how many neighbours lie lower, as floats
    safe_counts: np.ndarray  # max(counts, 1)
    road: np.ndarray  # the road mask as floats, not padded


def terrain_of(elevation: np.ndarray, is_road: np.ndarray) -> Terrain:
    """The `Terrain` of an elevation field and its road mask."""
    height, width = elevation.shape
    row = width + 2
    padded = np.zeros((height + 2, row))
    padded[1:-1, 1:-1] = elevation
    inside = np.zeros(padded.shape, dtype=bool)
    inside[1:-1, 1:-1] = True
    z, inside = padded.ravel(), inside.ravel()
    # every cell of [lo, hi) has its four neighbours inside the padded grid
    lo, hi = row + 1, z.size - row - 1
    offsets = (-row, row, -1, 1)
    masks = []
    for offset in offsets:
        mask = np.full(z.size, -0.0)
        neighbours = slice(lo + offset, hi + offset)
        mask[lo:hi] = np.where(inside[lo:hi] & inside[neighbours], z[neighbours] < z[lo:hi], -0.0)
        masks.append(mask)
    counts = np.count_nonzero(np.array(masks) > 0, axis=0).astype(np.float64)
    return Terrain(
        elevation=z,
        offsets=offsets,
        masks=tuple(masks),
        counts=counts,
        safe_counts=np.maximum(counts, 1.0),
        road=is_road.astype(np.float64),
    )


@dataclass(frozen=True)
class RoadRuns:
    """The road cells laid out region by region, row-major within a region:
    region r's run is `flat[bounds[r]:bounds[r + 1]]`. `starts`, `sizes`
    and `regions` describe the runs that are not empty, in region order."""

    flat: np.ndarray  # flat index of every road cell
    cells: tuple[tuple[int, int], ...]  # the same cells as (row, col)
    bounds: list[int]  # n_regions + 1 offsets into `flat` and `cells`
    starts: np.ndarray  # where each non-empty run begins
    sizes: np.ndarray  # how many cells each non-empty run holds
    regions: tuple[int, ...]  # the region of each non-empty run


def region_road_index(is_road: np.ndarray, region_id: np.ndarray, n_regions: int) -> RoadRuns:
    """The road cells of every region, in one pass; built once per world,
    since roads and regions never change during a run."""
    flat = np.flatnonzero(is_road)
    regions = region_id.ravel()[flat]
    order = np.argsort(regions, kind="stable")  # stable keeps row-major order within a region
    flat = flat[order]
    bounds = np.searchsorted(regions[order], np.arange(n_regions + 1))
    sizes = np.diff(bounds)
    kept = np.flatnonzero(sizes)
    rows, cols = np.divmod(flat, is_road.shape[1])
    return RoadRuns(
        flat=flat,
        cells=tuple(zip(rows.tolist(), cols.tolist())),
        bounds=bounds.tolist(),
        starts=bounds[kept],
        sizes=sizes[kept],
        regions=tuple(kept.tolist()),
    )


def build_world(config: WorldConfig, seed: int) -> WorldState:
    """The grid of `config` with terrain drawn from `seed`; water and cars start at zero."""
    width, height = config.width, config.height
    elevation = synth_elevation(width, height, seed)
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    spacing = config.road_spacing
    is_road = np.broadcast_to((rows % spacing == 0) | (cols % spacing == 0), (height, width)).copy()
    # streets run below the surrounding terrain so they collect and channel
    # runoff; ponds then form on the road network at its low points
    elevation = elevation - ROAD_DEPRESSION * is_road
    region_id = partition_regions(width, height, config.n_regions)
    return WorldState(
        width=width,
        height=height,
        is_road=is_road,
        region_id=region_id,
        water_depth=np.zeros((height, width), dtype=np.float64),
        car_density=np.zeros((height, width), dtype=np.float64),
        step=0,
        n_regions=config.n_regions,
        params=config,
        terrain=terrain_of(elevation, is_road),
        region_cells=np.bincount(region_id.ravel(), minlength=config.n_regions),
        road_runs=region_road_index(is_road, region_id, config.n_regions),
    )


def _diffuse(depth: np.ndarray, terrain: Terrain, rate: float) -> np.ndarray:
    """Move `rate` of each cell's water-surface excess over its
    downhill-neighbor mean surface, capped at the water present.

    Flow is driven by the free surface (elevation + depth) so water runs
    into basins and ponds there instead of merely smoothing the depth
    field. All transfers are computed from the pre-step field and applied
    at once. A cell loses exactly the shares it sends, `share * counts`,
    not the `outflow` they were split from: at subnormal depths
    `outflow / counts` drops whole units, and the total would drop them
    too. Where `share * counts` rounds above the water present, the cell
    empties instead of going negative.

    The depth is copied into the padded layout of `terrain`, with +0.0 on
    the ring, so each direction is one product of contiguous slices, at
    the direction's offset, over the cells from the first interior one to
    the last; the per-cell steps run over the whole padded grid, and the
    interior is copied out at the end. Each cell's terms are summed in
    direction order, starting from +0.0, as without the ring. Every term
    that touches the ring is -0.0: the ring's surface and its share are
    +0.0, and the mask is -0.0 on the ring and off the grid. Adding -0.0
    leaves any sum as it is, so the bits are those of adding no term.

    A cell with no lower neighbour needs no test: whatever finite share it
    computes, it loses `share * 0` and sends a zero each way. A zero taken
    away changes no depth after the clamp to 0.0 (which gives +0.0 for
    either zero), and a zero added to a depth of at least +0.0 changes
    none either.
    """
    if rate <= 0:
        return depth
    height, width = depth.shape
    padded = np.zeros((height + 2, width + 2))
    padded[1:-1, 1:-1] = depth
    depth = padded.ravel()
    lo, hi = width + 3, depth.size - width - 3
    surface = terrain.elevation + depth
    scratch = np.empty(hi - lo)
    neighbor_sum = np.zeros_like(depth)
    inner = neighbor_sum[lo:hi]
    for offset, mask in zip(terrain.offsets, terrain.masks):
        inner += np.multiply(surface[lo + offset : hi + offset], mask[lo:hi], out=scratch)
    excess = np.maximum(surface - neighbor_sum / terrain.safe_counts, 0.0)
    outflow = np.minimum(rate * excess, depth)
    share = outflow / terrain.safe_counts
    new_depth = np.maximum(depth - share * terrain.counts, 0.0)
    for offset, mask in zip(terrain.offsets, terrain.masks):
        # each cell sends its share to its downhill neighbour this way
        new_depth[lo + offset : hi + offset] += np.multiply(share[lo:hi], mask[lo:hi], out=scratch)
    return new_depth.reshape(padded.shape)[1:-1, 1:-1].copy()


def step_hydrology(world: WorldState, intensity: float, drain_multiplier: np.ndarray | None) -> WorldState:
    """Advance the water field one step: drain, rain onto roads, diffuse;
    `drain_multiplier` scales each region's drainage, None for none.

    Mass balance: total' = total + intensity * inflow_coeff * n_road_cells
    - sum(d_cell * depth_cell), with drainage applied to the pre-step field
    and diffusion conserving the total exactly.
    """
    p, terrain = world.params, world.terrain
    if drain_multiplier is None:
        depth = world.water_depth * (1.0 - p.drainage_rate)
    else:
        depth = world.water_depth * (1.0 - np.clip(p.drainage_rate * drain_multiplier[world.region_id], 0.0, 1.0))
    if intensity > 0 and p.inflow_coeff > 0:
        depth = depth + terrain.road * (intensity * p.inflow_coeff)
    depth = _diffuse(depth, terrain, p.diffusion_rate)
    return replace(world, water_depth=depth, step=world.step + 1)


def region_means(values: np.ndarray, region_id: np.ndarray, region_cells: np.ndarray) -> np.ndarray:
    """Per-region mean of a cell field; empty regions read as 0.
    `region_cells` is each region's cell count (`WorldState.region_cells`)."""
    sums = np.bincount(region_id.ravel(), weights=values.ravel(), minlength=len(region_cells))
    return sums / np.maximum(region_cells, 1)
