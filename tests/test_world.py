"""Scenario curves, hydrology mass balance, partitioning, depth stats."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from floodloop import world as w
from floodloop.config import WorldConfig


def find_peaks(curve, height):
    """Indices of local maxima with value >= height (plateau-tolerant)."""
    peaks = []
    n = len(curve)
    for i, v in enumerate(curve):
        if v < height:
            continue
        left = curve[i - 1] if i > 0 else -1.0
        right = curve[i + 1] if i < n - 1 else -1.0
        if v >= left and v >= right:
            peaks.append(i)
    return peaks


def longest_run_at_least(curve, height):
    best = run = 0
    for v in curve:
        run = run + 1 if v >= height else 0
        best = max(best, run)
    return best


def flat_world(width=8, height=8, n_regions=4, depth=0.0):
    """Small world with flat elevation so diffusion has no downhill moves."""
    config = WorldConfig(width, height, n_regions, inflow_coeff=0.0, drainage_rate=0.0, diffusion_rate=0.2)
    ws = w.build_world(config, 1)
    ws.terrain = w.terrain_of(np.zeros((height, width)), ws.is_road)
    ws.water_depth = np.full((height, width), float(depth))
    return ws


# --- scenarios ---------------------------------------------------------------

def test_extreme_plateau_and_peak():
    sc = w.generate_scenario(w.ScenarioKind.EXTREME, 60, 7)
    assert max(sc.curve) == 1.0
    assert longest_run_at_least(sc.curve, 0.8) >= 15


def test_light_low_and_long():
    sc = w.generate_scenario(w.ScenarioKind.LIGHT, 60, 1)
    assert max(sc.curve) <= 0.35
    assert sum(1 for v in sc.curve if v > 0) >= 48


def test_intermittent_peaks_with_trough():
    sc = w.generate_scenario(w.ScenarioKind.INTERMITTENT, 100, 3)
    peaks = find_peaks(sc.curve, 0.8)
    assert len(peaks) >= 2
    # some trough below 0.1 between the first and last qualifying peak
    inner = sc.curve[peaks[0] : peaks[-1] + 1]
    assert min(inner) < 0.1


@pytest.mark.parametrize("kind", list(w.ScenarioKind))
def test_scenario_determinism(kind):
    a = w.generate_scenario(kind, 50, 123)
    b = w.generate_scenario(kind, 50, 123)
    assert a.curve == b.curve


def test_scenario_normalization_all_kinds_100_seeds():
    for kind in w.ScenarioKind:
        for seed in range(100):
            sc = w.generate_scenario(kind, 40, seed)
            assert all(0.0 <= v <= 1.0 for v in sc.curve)


def test_scenario_kind_invariants_across_seeds():
    for seed in range(25):
        ext = w.generate_scenario(w.ScenarioKind.EXTREME, 80, seed)
        assert longest_run_at_least(ext.curve, 0.8) >= 20  # 25% of 80
        lig = w.generate_scenario(w.ScenarioKind.LIGHT, 80, seed)
        assert max(lig.curve) <= 0.35
        assert sum(1 for v in lig.curve if v > 0) >= 64
        inter = w.generate_scenario(w.ScenarioKind.INTERMITTENT, 80, seed)
        peaks = find_peaks(inter.curve, 0.8)
        assert len(peaks) >= 2
        assert min(inter.curve[peaks[0] : peaks[-1] + 1]) < 0.1


def test_scenario_file_roundtrip(tmp_path):
    sc = w.generate_scenario(w.ScenarioKind.INTERMITTENT, 40, 5)
    path = tmp_path / "scenario.json"
    w.save_scenario(path, sc)
    back = w.load_scenario(path)
    assert back == sc


# --- hydrology ----------------------------------------------------------------

def test_uniform_field_unchanged_no_source_no_gradient():
    ws = flat_world(depth=0.7)
    nxt = w.step_hydrology(ws, 0.0, None)
    assert np.allclose(nxt.water_depth, 0.7, atol=1e-12)


def test_single_wet_cell_conserved():
    ws = flat_world(depth=0.0)
    # one raised cell so there is a gradient to diffuse along
    elevation = np.zeros((8, 8))
    elevation[4, 4] = 1.0
    ws.terrain = w.terrain_of(elevation, ws.is_road)
    ws.water_depth[4, 4] = 1.0
    nxt = w.step_hydrology(ws, 0.0, None)
    assert nxt.water_depth.sum() == pytest.approx(1.0, rel=1e-12)
    assert nxt.water_depth[4, 4] < 1.0  # some of it moved downhill


def test_inflow_closed_form():
    ws = w.build_world(WorldConfig(64, 64, inflow_coeff=0.01, drainage_rate=0.0, diffusion_rate=0.2), 3)
    roads = int(ws.is_road.sum())
    before = ws.water_depth.sum()
    after = w.step_hydrology(ws, 1.0, None).water_depth.sum()
    assert after - before == pytest.approx(0.01 * roads, rel=1e-12)
    # the spec example's exact shape: 100 road cells -> +1.0
    assert 0.01 * 100 == pytest.approx(1.0 * 0.01 * 100)


def test_mass_balance_with_drainage():
    ws = w.build_world(WorldConfig(32, 32, inflow_coeff=0.01, drainage_rate=0.05, diffusion_rate=0.2), 5)
    rng = np.random.default_rng(0)
    ws.water_depth = rng.uniform(0, 0.5, size=ws.shape)
    total = ws.water_depth.sum()
    intensity = 0.7
    expected = total * (1 - 0.05) + intensity * 0.01 * ws.is_road.sum()
    nxt = w.step_hydrology(ws, intensity, None)
    assert nxt.water_depth.sum() == pytest.approx(expected, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mass_balance_identity_random_fields(data):
    """The `step_hydrology` docstring identity, total' = total + rain - drained,
    within 1e-9 of the step's water budget (total + rain)."""
    inflow, drainage, diffusion = (data.draw(st.floats(0.0, 1.0)) for _ in range(3))
    n_regions = data.draw(st.sampled_from([1, 4, 9]))
    width = data.draw(st.integers(3, 16))
    height = data.draw(st.integers(3, 16))
    seed = data.draw(st.integers(0, 2**16))
    params = WorldConfig(
        width,
        height,
        n_regions,
        inflow_coeff=inflow,
        drainage_rate=drainage,
        diffusion_rate=diffusion,
        road_spacing=data.draw(st.integers(1, 4)),
    )
    ws = w.build_world(params, seed)
    ws.water_depth = data.draw(hnp.arrays(np.float64, ws.shape, elements=st.floats(0.0, 5.0)))
    intensity = data.draw(st.floats(0.0, 1.0))
    mult = data.draw(st.none() | hnp.arrays(np.float64, n_regions, elements=st.floats(0.0, 30.0)))

    d = np.full(ws.shape, params.drainage_rate)
    if mult is not None:
        d = np.clip(d * mult[ws.region_id], 0.0, 1.0)
    total = ws.water_depth.sum()
    rain = intensity * params.inflow_coeff * ws.is_road.sum()
    expected = total + rain - (d * ws.water_depth).sum()
    got = w.step_hydrology(ws, intensity, mult).water_depth.sum()
    assert abs(got - expected) <= 1e-9 * (total + rain)


def test_mass_balance_identity_subnormal_depths():
    # the example hypothesis found for the property above: all-subnormal
    # depths, no rain or drainage, diffusion 1.0; the identity expects
    # 4.4e-323, which `step_hydrology` kept only 2.5e-323 of while a cell
    # lost its whole outflow but sent `outflow / counts` rounded down
    params = WorldConfig(3, 3, 1, inflow_coeff=0.0, drainage_rate=0.0, diffusion_rate=1.0, road_spacing=1)
    ws = w.build_world(params, 0)
    ws.water_depth = np.full(ws.shape, 5e-324)
    total = ws.water_depth.sum()
    got = w.step_hydrology(ws, 0.0, None).water_depth.sum()
    assert abs(got - total) <= 1e-9 * total


def test_conservation_over_many_steps():
    ws = w.build_world(WorldConfig(32, 32, inflow_coeff=0.0, drainage_rate=0.0, diffusion_rate=0.2), 9)
    rng = np.random.default_rng(42)
    ws.water_depth = rng.uniform(0, 1.0, size=ws.shape)
    total = ws.water_depth.sum()
    cur = ws
    for _ in range(200):
        cur = w.step_hydrology(cur, 0.0, None)
    assert cur.water_depth.sum() == pytest.approx(total, rel=1e-9)
    assert np.all(cur.water_depth >= 0)


def test_monotone_drainage():
    ws = w.build_world(WorldConfig(16, 16, inflow_coeff=0.0, drainage_rate=0.1, diffusion_rate=0.2), 2)
    rng = np.random.default_rng(1)
    ws.water_depth = rng.uniform(0, 1.0, size=ws.shape)
    prev = ws.water_depth.sum()
    cur = ws
    for _ in range(50):
        cur = w.step_hydrology(cur, 0.0, None)
        now = cur.water_depth.sum()
        assert now <= prev + 1e-12
        prev = now


def test_regional_drain_multiplier():
    ws = w.build_world(WorldConfig(16, 16, 4, inflow_coeff=0.0, drainage_rate=0.05, diffusion_rate=0.0), 2)
    ws.water_depth = np.ones(ws.shape)
    mult = np.ones(4)
    mult[2] = 3.0
    nxt = w.step_hydrology(ws, 0.0, mult)
    in_region = ws.region_id == 2
    assert np.allclose(nxt.water_depth[in_region], 1 - 0.15)
    assert np.allclose(nxt.water_depth[~in_region], 1 - 0.05)


def test_trajectory_determinism():
    def run():
        ws = w.build_world(WorldConfig(32, 32), 11)
        sc = w.generate_scenario(w.ScenarioKind.EXTREME, 30, 11)
        cur = ws
        for i in range(30):
            cur = w.step_hydrology(cur, sc.curve[i], None)
        return cur.water_depth

    a, b = run(), run()
    assert np.array_equal(a, b)


# --- elevation smoothing -------------------------------------------------------

BOX_SHAPES = ((1, 7), (2, 2), (5, 9), (64, 64))


def box_filter_passes():
    """Three passes of `box_filter` over one fixed normal field per shape,
    with the field each pass was applied to."""
    for i, shape in enumerate(BOX_SHAPES):
        z = np.random.default_rng(i).standard_normal(shape)
        for _ in range(3):
            out = w.box_filter(z)
            yield z, out
            z = out


def test_box_filter_matches_scipy_uniform_filter_bytes():
    ndimage = pytest.importorskip("scipy.ndimage")
    for z, out in box_filter_passes():
        assert out.tobytes() == ndimage.uniform_filter(z, size=5, mode="nearest").tobytes()


def test_box_filter_bytes_are_pinned():
    # the comparison above, frozen into a digest that needs no scipy
    digest = hashlib.sha256(b"".join(out.tobytes() for _, out in box_filter_passes()))
    assert digest.hexdigest() == "3470d60944d84b4d06d39f2671e9d9ba167005361bbfa7f6792e0a96c8f086d6"


# --- partitioning --------------------------------------------------------------

def test_partition_degenerate_one_cell_regions():
    regions = w.partition_regions(8, 8, 64)
    sizes = np.bincount(regions.ravel(), minlength=64)
    assert np.all(sizes == 1)


def test_partition_16x16_into_64():
    regions = w.partition_regions(16, 16, 64)
    sizes = np.bincount(regions.ravel(), minlength=64)
    assert np.all(sizes == 4)


def test_partition_10x10_into_4():
    regions = w.partition_regions(10, 10, 4)
    sizes = np.bincount(regions.ravel(), minlength=4)
    assert np.all(sizes == 25)


def test_partition_total_and_remainder():
    regions = w.partition_regions(10, 10, 9)  # tiles of ceil(10/3)=4, last row/col absorb
    assert regions.shape == (10, 10)
    assert set(np.unique(regions)) == set(range(9))


# --- depth stats over region means ---------------------------------------------

def test_depth_stats_all_zero():
    ws = flat_world(depth=0.0)
    means = w.region_means(ws.water_depth, ws.region_id, ws.region_cells)
    assert (float(np.mean(means)), float(np.std(means))) == (0.0, 0.0)


def test_depth_stats_hand_computed():
    # three regions at depths 0, 1, 2 -> mean 1, population stddev sqrt(2/3)
    ws = flat_world(width=6, height=6, n_regions=9, depth=0.0)
    ws.water_depth[ws.region_id == 0] = 0.0
    ws.water_depth[ws.region_id == 1] = 1.0
    ws.water_depth[ws.region_id == 2] = 2.0
    means = w.region_means(ws.water_depth, ws.region_id, ws.region_cells)
    sub = means[:3]
    assert np.mean(sub) == pytest.approx(1.0)
    assert np.std(sub) == pytest.approx(0.816496580927726, abs=1e-9)


def test_depth_stats_single_region():
    ws = flat_world(width=4, height=4, n_regions=1, depth=0.42)
    means = w.region_means(ws.water_depth, ws.region_id, ws.region_cells)
    mu, sigma = float(np.mean(means)), float(np.std(means))
    assert mu == pytest.approx(0.42)
    assert sigma == pytest.approx(0.0)
