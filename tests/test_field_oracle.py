"""The step's field kernels against the code they replaced, bit for bit.

The oracles below are the former `world._diffuse` with its `_shifted`
helper and `_downhill_structure`, the former `mobility.aggregate_flows`
(`np.add.at`) and the former `world.region_means` (two `bincount`s), kept
verbatim. Each side runs on the same random small world, and the results
must hold the same bytes, so a zero must keep its sign too: the worlds
include zero, negative-zero and subnormal depths, negative elevations and
the rates 0 and 1.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
shapes = st.tuples(st.integers(1, 7), st.integers(1, 7))
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


@settings(deadline=None, max_examples=500)
@given(terrains(), rates)
def test_diffuse_holds_the_bits_of_the_shifted_field_version(fields, rate):
    depth, elevation = fields
    old_masks, old_counts = former_downhill_structure(elevation)
    masks, counts = w._downhill_structure(elevation)
    assert [m.astype(bool).tobytes() for m in masks] == [m.tobytes() for m in old_masks]
    assert counts.tobytes() == old_counts.tobytes()
    want = former_diffuse(depth, elevation, old_masks, old_counts, rate)
    got = w._diffuse(depth.copy(), elevation, masks, counts, rate)
    assert got.tobytes() == want.tobytes()


def test_diffuse_sums_start_from_a_positive_zero():
    # `_diffuse` adds no term where a padded shift added +0.0; that keeps
    # the bits only while no sum starts from -0.0, so the clamp of a
    # negative-zero depth must give +0.0
    assert not np.signbit(np.maximum(np.full(9, -0.0), 0.0)).any()
    # here the cell at (0, 0) starts from its -0.0 depth and takes one
    # -0.0 term: its neighbour's share, the minimum of a +0.0 outflow and
    # that neighbour's -0.0 depth
    depth = np.array([[-0.0, -0.0, 1.0]])
    elevation = np.array([[0.0, -0.0, -1.0]])
    got = w._diffuse(depth, elevation, *w._downhill_structure(elevation), 0.5)
    want = former_diffuse(depth, elevation, *former_downhill_structure(elevation), 0.5)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[0, 0])


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
