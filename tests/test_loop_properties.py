"""Decision-loop shortcuts against the code they replaced: the summary's
one road pass (each region's worst road cell, blocked count and road
count), the per-region road index and the memoised hashing embedder."""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from floodloop.errors import EmptyQuery
from floodloop.knowledge import _TOKEN_RE, HashingEmbedder
from floodloop.state import summarize_world
from floodloop.world import region_road_index


def per_region_worst(world, region: int) -> tuple[int, int] | None:
    """The per-region scan that `worst_road_cells` replaced, kept verbatim as an oracle."""
    mask = (world.region_id == region) & world.is_road
    rows, cols = np.nonzero(mask)
    worst = None
    if len(rows):
        depths = world.water_depth[rows, cols]
        best_idx = int(np.argmax(depths))  # ties resolve row-major via nonzero order
        worst = (int(rows[best_idx]), int(cols[best_idx]))
    return worst


def former_worst_road_cells(world) -> list[tuple[int, int] | None]:
    """`feedback.worst_road_cells`, which the summary's road pass replaced,
    kept verbatim as an oracle."""
    runs = world.road_runs
    worst: list[tuple[int, int] | None] = [None] * world.n_regions
    if runs.regions:
        depth = world.water_depth.ravel()[runs.flat]
        top = np.repeat(np.maximum.reduceat(depth, runs.starts), runs.sizes)
        first = np.minimum.reduceat(np.where(depth == top, np.arange(depth.size), depth.size), runs.starts)
        for region, i in zip(runs.regions, first.tolist()):
            worst[region] = runs.cells[i]
    return worst


def former_blocked_counts(world, blocking_depth: float) -> tuple[int, ...]:
    """`summarize_world`'s full-grid blocked count before the road pass, kept verbatim as an oracle."""
    blocked = world.is_road & (world.water_depth >= blocking_depth)
    blocked_counts = np.bincount(world.region_id[blocked], minlength=world.n_regions)
    return tuple(blocked_counts.tolist())


def former_road_counts(world) -> tuple[int, ...]:
    """`feedback._default_graph`'s road count per region before it read the run bounds, kept verbatim as an oracle."""
    road_counts = np.bincount(
        world.region_id[world.is_road].ravel(), minlength=world.n_regions
    )
    return tuple(road_counts.tolist())


@st.composite
def worlds(draw):
    """The attributes `summarize_world` and the per-region scans read.
    Depths come from four values: 0, the blocking depth, one ulp below it
    and a depth past it, so ties are common; and one region loses all its
    roads."""
    height = draw(st.integers(1, 10))
    width = draw(st.integers(1, 10))
    n_regions = draw(st.integers(1, 6))
    shape = (height, width)
    region_id = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, n_regions - 1)))
    is_road = draw(hnp.arrays(np.bool_, shape))
    is_road &= region_id != draw(st.integers(0, n_regions - 1))
    blocking_depth = draw(st.sampled_from([0.0, 0.25, 0.3]))
    depths = st.sampled_from([0.0, float(np.nextafter(blocking_depth, 0.0)), blocking_depth, 0.5])
    water_depth = draw(hnp.arrays(np.float64, shape, elements=depths))
    return SimpleNamespace(
        width=width, height=height, n_regions=n_regions, step=0,
        region_id=region_id, is_road=is_road, water_depth=water_depth,
        car_density=np.zeros(shape), region_scores={}, blocking_depth=blocking_depth,
        region_cells=np.bincount(region_id.ravel(), minlength=n_regions),
        road_runs=region_road_index(is_road, region_id, n_regions),
    )


def summarize(world):
    return summarize_world(world, "extreme", 0.0, world.blocking_depth, (), (0, 0, 0, 0), 0.7)


@settings(max_examples=300, deadline=None)
@given(worlds())
def test_summary_road_pass_equals_the_former_passes(world):
    summary = summarize(world)
    assert list(summary.region_worst_road) == former_worst_road_cells(world)
    assert list(summary.region_worst_road) == [per_region_worst(world, r) for r in range(world.n_regions)]
    assert summary.region_blocked_roads == former_blocked_counts(world, world.blocking_depth)
    assert summary.region_road_cells == former_road_counts(world)


def test_worlds_reach_every_road_pass_edge():
    # the strategy is only a check if it reaches each case the docstring names
    seen: set[str] = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(worlds())
    def collect(world):
        b = world.blocking_depth
        for region in range(world.n_regions):
            depths = world.water_depth[(world.region_id == region) & world.is_road]
            if not depths.size:
                seen.add("region without roads")
                continue
            if (depths == depths.max()).sum() > 1:
                seen.add("depth tie at the deepest cell")
            if b > 0 and (depths == b).any():
                seen.add("at the blocking depth")
            if b > 0 and (depths == np.nextafter(b, 0.0)).any():
                seen.add("one ulp below")
            if b > 0 and (depths >= b).all():
                seen.add("fully flooded")

    collect()
    assert {
        "region without roads", "depth tie at the deepest cell", "at the blocking depth", "one ulp below", "fully flooded"
    } <= seen



@settings(max_examples=300, deadline=None)
@given(worlds())
def test_region_road_index_equals_per_region_scan(world):
    index = region_road_index(world.is_road, world.region_id, world.n_regions)
    assert len(index.bounds) == world.n_regions + 1
    assert index.bounds[0] == 0 and index.bounds[-1] == len(index.flat) == len(index.cells)
    runs = []
    for region, (a, b) in enumerate(zip(index.bounds, index.bounds[1:])):
        # the per-region scan that the worst road cell and the accuracy pass ran before the index
        rows, cols = np.nonzero((world.region_id == region) & world.is_road)
        assert index.cells[a:b] == tuple(zip(rows.tolist(), cols.tolist()))
        assert index.flat[a:b].tolist() == (rows * world.width + cols).tolist()
        if b > a:
            runs.append((a, b - a, region))
    assert (index.starts.tolist(), index.sizes.tolist(), list(index.regions)) == (
        [r[0] for r in runs], [r[1] for r in runs], [r[2] for r in runs]
    )

def per_call_embed(text: str, dim: int) -> np.ndarray:
    """`HashingEmbedder.embed` before memoisation, kept verbatim as the oracle."""
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        raise EmptyQuery("cannot embed empty text")
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        h = int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big")
        sign = 1.0 if (h >> 63) & 1 else -1.0
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        h = int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
        vec[h % dim] = 1.0
        norm = 1.0
    return vec / norm


# few distinct words, so later texts reuse tokens memoised by earlier ones
_WORDS = st.sampled_from(["region", "flood", "7", "42", "p", "0", "1250", "Reroute", "noop@3", "x-y", " ", "\n"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_WORDS, max_size=30).map(" ".join), min_size=1, max_size=8), st.sampled_from([4, 16, 64]))
def test_memoised_embeddings_are_bit_identical(texts, dim):
    memoised = HashingEmbedder(dim)
    for text in texts:
        if not _TOKEN_RE.findall(text.lower()):
            with pytest.raises(EmptyQuery):
                memoised.embed(text)
            continue
        got = memoised.embed(text)
        assert got.tobytes() == HashingEmbedder(dim).embed(text).tobytes()
        assert got.tobytes() == per_call_embed(text, dim).tobytes()
