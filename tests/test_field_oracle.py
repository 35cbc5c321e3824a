"""The step's field kernels against the code they replaced, bit for bit.

The oracles below are kept verbatim:
- the first `world._diffuse`, with its `_shifted` helper and
  `_downhill_structure`, over shifted copies padded with zeros;
- the `world._diffuse` that followed it, over the slice pairs of
  `_PAIRS` with float masks, and the `world.step_hydrology` around it,
  which drained through a full array of rates and rained through
  `np.where`;
- the former `metrics._sigmoid_scores` and indices, over `np.mean` and
  `np.std`;
- the former `mobility.aggregate_flows` (`np.add.at`) and the former
  `world.region_means` (two `bincount`s).
Each side runs on the same random input, and the results must hold the
same bytes, so a zero must keep its sign too: the worlds include 1xN, Nx1
and 1x1 grids, zero, negative-zero and subnormal depths, negative
elevations and the rates 0 and 1.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from floodloop import metrics as m
from floodloop import mobility as mob
from floodloop import world as w
from floodloop.config import WorldConfig
from floodloop.mobility import Status

_DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def former_shifted(a: np.ndarray, dr: int, dc: int, fill: float) -> np.ndarray:
    """a shifted so out[r, c] = a[r + dr, c + dc], padded with fill."""
    out = np.full_like(a, fill)
    h, w = a.shape
    rs_src = slice(max(dr, 0), h + min(dr, 0))
    cs_src = slice(max(dc, 0), w + min(dc, 0))
    rs_dst = slice(max(-dr, 0), h + min(-dr, 0))
    cs_dst = slice(max(-dc, 0), w + min(-dc, 0))
    out[rs_dst, cs_dst] = a[rs_src, cs_src]
    return out


def former_downhill_structure(elevation: np.ndarray):
    masks = []
    for dr, dc in _DIRECTIONS:
        neighbor = former_shifted(elevation, dr, dc, fill=np.inf)
        masks.append(neighbor < elevation)
    counts = np.sum(masks, axis=0)
    return tuple(masks), counts


def former_diffuse(depth: np.ndarray, elevation: np.ndarray, masks, counts, rate: float) -> np.ndarray:
    if rate <= 0:
        return depth
    surface = elevation + depth
    neighbor_sum = np.zeros_like(depth)
    for (dr, dc), mask in zip(_DIRECTIONS, masks):
        neighbor_sum += former_shifted(surface, dr, dc, 0.0) * mask
    safe_counts = np.maximum(counts, 1)
    neighbor_mean = neighbor_sum / safe_counts
    excess = np.where(counts > 0, np.maximum(surface - neighbor_mean, 0.0), 0.0)
    outflow = np.minimum(rate * excess, depth)
    share = outflow / safe_counts
    new_depth = np.maximum(depth - share * counts, 0.0)
    for (dr, dc), mask in zip(_DIRECTIONS, masks):
        # flow from each cell to its downhill neighbor in (dr, dc): the
        # neighbor at offset (dr, dc) receives it, so shift back by (-dr, -dc)
        new_depth += former_shifted(share * mask, -dr, -dc, 0.0)
    return new_depth


# one (cells, neighbours) pair of slices per direction, up, down, left,
# right: a[cells] lines up with the neighbours a[neighbours] in that
# direction. They fit any grid shape; a 1-wide grid has none that way.
_PAIRS = (
    (np.s_[1:, :], np.s_[:-1, :]),
    (np.s_[:-1, :], np.s_[1:, :]),
    (np.s_[:, 1:], np.s_[:, :-1]),
    (np.s_[:, :-1], np.s_[:, 1:]),
)


def slice_pair_downhill_structure(elevation: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Per direction, a float mask of the cells whose neighbour that way
    lies strictly lower; and per cell, how many such neighbours it has."""
    masks = []
    for cells, neighbours in _PAIRS:
        mask = np.zeros(elevation.shape, dtype=bool)
        mask[cells] = elevation[neighbours] < elevation[cells]
        masks.append(mask)
    counts = np.sum(masks, axis=0)
    return tuple(mask.astype(np.float64) for mask in masks), counts


def slice_pair_diffuse(depth: np.ndarray, elevation: np.ndarray, masks, counts, rate: float) -> np.ndarray:
    if rate <= 0:
        return depth
    surface = elevation + depth
    scratch = np.empty_like(depth)
    neighbor_sum = np.zeros_like(depth)
    for (cells, neighbours), mask in zip(_PAIRS, masks):
        term = np.multiply(surface[neighbours], mask[cells], out=scratch[cells])
        neighbor_sum[cells] += term
    safe_counts = np.maximum(counts, 1)
    neighbor_mean = neighbor_sum / safe_counts
    excess = np.where(counts > 0, np.maximum(surface - neighbor_mean, 0.0), 0.0)
    outflow = np.minimum(rate * excess, depth)
    share = outflow / safe_counts
    new_depth = np.maximum(depth - share * counts, 0.0)
    for (cells, neighbours), mask in zip(_PAIRS, masks):
        # each cell sends its share to its downhill neighbour this way
        term = np.multiply(share[cells], mask[cells], out=scratch[cells])
        new_depth[neighbours] += term
    return new_depth


def slice_pair_step_hydrology(world, elevation, intensity: float, drain_multiplier: np.ndarray | None) -> np.ndarray:
    """The new water depth of the former `step_hydrology`, which read the
    elevation from the world."""
    p = world.params
    depth = world.water_depth
    d = np.full(world.shape, p.drainage_rate)
    if drain_multiplier is not None:
        d = np.clip(d * drain_multiplier[world.region_id], 0.0, 1.0)
    depth = depth * (1.0 - d)
    if intensity > 0 and p.inflow_coeff > 0:
        depth = depth + np.where(world.is_road, intensity * p.inflow_coeff, 0.0)
    masks, counts = slice_pair_downhill_structure(elevation)
    return slice_pair_diffuse(depth, elevation, masks, counts, p.diffusion_rate)


def former_sigmoid_scores(values: np.ndarray) -> np.ndarray:
    """sigmoid((x - mu) / sigma) per entry; all 0.5 when sigma = 0."""
    mu = float(np.mean(values))
    sigma = float(np.std(values))
    if sigma == 0.0:
        return np.full_like(values, 0.5, dtype=np.float64)
    z = (values - mu) / sigma
    return 1.0 / (1.0 + np.exp(-z))


def former_aggregate_flows(agents, world) -> np.ndarray:
    """Per-cell count of enroute agents this step."""
    density = np.zeros(world.shape, dtype=np.float64)
    cells = [agent.pos for agent in agents if agent.status is Status.ENROUTE]
    if cells:
        np.add.at(density, tuple(zip(*cells)), 1.0)
    return density


def former_region_means(values: np.ndarray, region_id: np.ndarray, n_regions: int) -> np.ndarray:
    """Per-region mean of a cell field; empty regions read as 0."""
    flat = values.ravel()
    ids = region_id.ravel()
    sums = np.bincount(ids, weights=flat, minlength=n_regions)
    counts = np.bincount(ids, minlength=n_regions)
    return sums / np.maximum(counts, 1)


SUBNORMAL = 5e-324
SIGNED_ZEROS = [0.0, -0.0]
shapes = st.one_of(st.sampled_from([(1, 1), (1, 6), (6, 1)]), st.tuples(st.integers(1, 7), st.integers(1, 7)))
depths = st.one_of(
    st.sampled_from(SIGNED_ZEROS + [SUBNORMAL, 3 * SUBNORMAL, 1e-310]),
    st.floats(0.0, 3.0, allow_subnormal=True),
)
elevations = st.one_of(st.sampled_from(SIGNED_ZEROS + [-1.5, 1.0]), st.floats(-12.0, 12.0, allow_subnormal=True))
rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def terrains(draw):
    shape = draw(shapes)
    depth = draw(hnp.arrays(np.float64, shape, elements=depths))
    return depth, draw(hnp.arrays(np.float64, shape, elements=elevations))


def interior(padded_flat: np.ndarray, shape) -> np.ndarray:
    return padded_flat.reshape(shape[0] + 2, shape[1] + 2)[1:-1, 1:-1]


@settings(deadline=None, max_examples=500)
@given(terrains(), rates)
def test_diffuse_holds_the_bits_of_the_shifted_field_version(fields, rate):
    depth, elevation = fields
    old_masks, old_counts = former_downhill_structure(elevation)
    terrain = w.terrain_of(elevation, np.ones(elevation.shape, dtype=bool))
    assert [(interior(m, elevation.shape) > 0).tobytes() for m in terrain.masks] == [m.tobytes() for m in old_masks]
    assert interior(terrain.counts, elevation.shape).tolist() == old_counts.tolist()
    want = former_diffuse(depth, elevation, old_masks, old_counts, rate)
    got = w._diffuse(depth.copy(), terrain, rate)
    assert got.tobytes() == want.tobytes()


def test_diffuse_sums_start_from_a_positive_zero():
    # every term that touches the ring is -0.0, which keeps the bits of
    # adding no term; a sum that starts from +0.0, as without the ring,
    # takes such terms as well: the clamp of a negative-zero depth must
    # give +0.0
    assert not np.signbit(np.maximum(np.full(9, -0.0), 0.0)).any()
    # here the cell at (0, 0) starts from its -0.0 depth and takes one
    # -0.0 term: its neighbour's share, the minimum of a +0.0 outflow and
    # that neighbour's -0.0 depth
    depth = np.array([[-0.0, -0.0, 1.0]])
    elevation = np.array([[0.0, -0.0, -1.0]])
    got = w._diffuse(depth, w.terrain_of(elevation, depth > 0), 0.5)
    want = former_diffuse(depth, elevation, *former_downhill_structure(elevation), 0.5)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[0, 0])


@settings(deadline=None, max_examples=200)
@given(terrains())
def test_terrain_marks_each_missing_neighbour_with_negative_zero(fields):
    _, elevation = fields
    height, width = elevation.shape
    terrain = w.terrain_of(elevation, np.zeros(elevation.shape, dtype=bool))
    ring = np.ones((height + 2, width + 2), dtype=bool)
    ring[1:-1, 1:-1] = False
    for (dr, dc), mask in zip(_DIRECTIONS, terrain.masks):
        grid = mask.reshape(ring.shape)
        assert (grid[ring] == 0).all() and np.signbit(grid[ring]).all()
        missing = np.zeros(elevation.shape, dtype=bool)
        missing[0 if dr < 0 else -1 if dr > 0 else slice(None), 0 if dc < 0 else -1 if dc > 0 else slice(None)] = True
        inner = grid[1:-1, 1:-1]
        assert np.signbit(inner).tolist() == missing.tolist()
        assert set(inner[~missing].tolist()) <= {0.0, 1.0}
    assert terrain.elevation.reshape(ring.shape)[ring].tobytes() == np.zeros(int(ring.sum())).tobytes()


@st.composite
def hydrology_cases(draw):
    depth, elevation = draw(terrains())
    height, width = depth.shape
    n_regions = draw(st.integers(1, 4))
    region_id = draw(hnp.arrays(np.int64, depth.shape, elements=st.integers(0, n_regions - 1)))
    is_road = draw(hnp.arrays(np.bool_, depth.shape))
    config = WorldConfig(width, height, 1, draw(rates), draw(rates), draw(rates))
    world = replace(
        w.build_world(config, 0),
        is_road=is_road,
        region_id=region_id,
        water_depth=depth,
        n_regions=n_regions,
        terrain=w.terrain_of(elevation, is_road),
    )
    multipliers = hnp.arrays(np.float64, n_regions, elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 30.0]))
    return world, elevation, draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))), draw(st.none() | multipliers)


@settings(deadline=None, max_examples=500)
@given(hydrology_cases())
def test_step_hydrology_holds_the_bits_of_the_slice_pair_version(case):
    world, elevation, intensity, drain_multiplier = case
    got = w.step_hydrology(world, intensity, drain_multiplier)
    want = slice_pair_step_hydrology(world, elevation, intensity, drain_multiplier)
    assert got.water_depth.tobytes() == want.tobytes()
    assert got.step == world.step + 1


@settings(deadline=None, max_examples=200)
@given(hydrology_cases())
def test_all_ones_drain_multipliers_drain_as_none_does(case):
    # the board returns None when no relief is active; a relief of 1.0 in
    # every region must drain alike: rate * 1.0 is rate, and the clip to
    # [0, 1] leaves it
    world, _, intensity, _ = case
    ones = w.step_hydrology(world, intensity, np.ones(world.n_regions))
    assert ones.water_depth.tobytes() == w.step_hydrology(world, intensity, None).water_depth.tobytes()


scales = st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e3, 1e8])
entries = st.one_of(st.sampled_from(SIGNED_ZEROS + [SUBNORMAL, 1.0]), st.floats(-1.0, 1.0, allow_subnormal=True))


@st.composite
def score_vectors(draw):
    n = draw(st.integers(1, 1000))
    if draw(st.booleans()):
        values = np.full(n, draw(entries))  # sigma = 0
    else:
        values = draw(hnp.arrays(np.float64, n, elements=entries))
    return values * draw(scales)


@settings(deadline=None, max_examples=400)
@given(score_vectors())
def test_sigmoid_scores_and_their_mean_hold_the_bits_of_np_mean_and_std(values):
    want = former_sigmoid_scores(values)
    got = m._sigmoid_scores(values.copy())
    assert got.tobytes() == want.tobytes()
    for vector in (want, values):
        assert np.float64(m._mean(vector)).tobytes() == np.mean(vector).tobytes()


@st.composite
def agent_crowds(draw):
    height, width = draw(shapes)
    cells = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    agents = draw(st.lists(st.builds(SimpleNamespace, pos=cells, status=st.sampled_from(list(Status))), max_size=40))
    return SimpleNamespace(width=width, height=height, shape=(height, width)), agents


@settings(deadline=None, max_examples=300)
@given(agent_crowds())
def test_aggregate_flows_holds_the_bits_of_the_add_at_version(crowd):
    world, agents = crowd
    got = mob.aggregate_flows(agents, world)
    want = former_aggregate_flows(agents, world)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


values = st.one_of(st.sampled_from(SIGNED_ZEROS + [SUBNORMAL, -SUBNORMAL]), st.floats(-1e3, 1e3, allow_subnormal=True))


@st.composite
def region_fields(draw):
    n_regions, shape = draw(st.integers(1, 9)), draw(shapes)
    field = draw(hnp.arrays(np.float64, shape, elements=values))
    return n_regions, field, draw(hnp.arrays(np.int64, shape, elements=st.integers(0, n_regions - 1)))


@settings(deadline=None, max_examples=300)
@given(region_fields())
def test_region_means_hold_the_bits_of_the_two_bincount_version(case):
    n_regions, field, region_id = case
    region_cells = np.bincount(region_id.ravel(), minlength=n_regions)
    got = w.region_means(field, region_id, region_cells)
    assert got.tobytes() == former_region_means(field, region_id, n_regions).tobytes()


def test_build_world_counts_each_regions_cells():
    world = w.build_world(WorldConfig(10, 7, 9), 3)
    assert world.region_cells.tolist() == [int((world.region_id == r).sum()) for r in range(9)]
