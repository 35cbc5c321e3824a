"""Indicator formulas, the objective, trigger statistics, stability."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from floodloop import harness
from floodloop import metrics as m
from floodloop import world as w
from floodloop.config import FeedbackConfig, WorldConfig
from floodloop.errors import InsufficientRuns

WEIGHTS = FeedbackConfig().weights


def world_with_region_depths(depths):
    n = len(depths)
    side = math.isqrt(n)
    assert side * side == n
    ws = w.build_world(WorldConfig(side * 2, side * 2, n), 1)
    for region, depth in enumerate(depths):
        ws.water_depth[ws.region_id == region] = depth
    return ws


# --- sigmoid indices -----------------------------------------------------------

def test_scores_are_kept_with_their_state_read_only_and_fresh_after_replace():
    ws = world_with_region_depths([0.0, 1.0, 2.0, 3.0])
    flood, congestion = m.flood_scores(ws), m.congestion_scores(ws)
    assert m.flood_scores(ws) is flood and m.congestion_scores(ws) is congestion
    for scores in (flood, congestion):
        assert not scores.flags.writeable
        with pytest.raises(ValueError):
            scores[0] = 0.5
    drier = dataclasses.replace(ws, water_depth=ws.water_depth[::-1].copy())
    assert drier.region_scores == {}
    fresh = m.flood_scores(drier)
    assert fresh is not flood
    assert fresh.tolist() == m._sigmoid_scores(w.region_means(drier.water_depth, ws.region_id, ws.region_cells)).tolist()
    assert fresh.tolist() != flood.tolist()
    assert w.step_hydrology(ws, 1.0, None).region_scores == {}


@pytest.mark.parametrize("name", ["ruled", "external"])
def test_each_world_state_computes_its_scores_once(monkeypatch, tmp_path, name):
    """The step-end snapshot, `run_cycle`'s `region_flood_end` and the next
    cycle's summary ask for the same cycle-boundary state: one computation
    of each score per state that is asked, one state per step."""
    from test_golden import RUNS, external_config, golden_config, loopback_stub

    asks: Counter[tuple[int, str]] = Counter()
    computations: Counter[tuple[int, str]] = Counter()
    states = []  # every state asked stays alive, so no id is reused
    region_scores, sigmoid_scores = m._region_scores, m._sigmoid_scores
    sigmoid_calls = []

    def spy(world, key, cells):
        states.append(world)
        asks[id(world), key] += 1
        computations[id(world), key] += key not in world.region_scores
        return region_scores(world, key, cells)

    def counting_sigmoid(values):
        sigmoid_calls.append(values)
        return sigmoid_scores(values)

    monkeypatch.setattr(m, "_region_scores", spy)
    monkeypatch.setattr(m, "_sigmoid_scores", counting_sigmoid)
    if name == "external":
        with loopback_stub() as stub:
            cfg = external_config(str(tmp_path), stub.endpoint)
            harness.run(cfg)
    else:
        cfg = golden_config(*RUNS[name], str(tmp_path))
        harness.run(cfg)
    assert set(computations) == set(asks)
    assert set(computations.values()) == {1}
    assert len(sigmoid_calls) == len(computations)
    n_cycles = -(-cfg.steps // cfg.feedback.cycle_len)
    for key in ("flood", "congestion"):
        asked = [count for (_, k), count in asks.items() if k == key]
        assert len(asked) == cfg.steps + 1  # the starting state and one per step
        # each cycle asks for its last state's flood scores, and summarizes its first state
        assert sum(asked) == len(asked) + (2 if key == "flood" else 1) * n_cycles


def test_flood_index_uniform_is_half():
    ws = world_with_region_depths([0.7] * 4)
    assert m.flood_index(ws) == pytest.approx(0.5)


def test_flood_index_hand_sigmoid():
    # region depths [0, 1, 2]: sigma = sqrt(2/3), z = (-1.2247, 0, 1.2247)
    scores = m._sigmoid_scores(np.array([0.0, 1.0, 2.0]))
    assert scores[0] == pytest.approx(0.22710251943568419, abs=1e-9)
    assert scores[1] == pytest.approx(0.5, abs=1e-12)
    assert scores[2] == pytest.approx(0.7728974805643158, abs=1e-9)
    assert float(np.mean(scores)) == pytest.approx(0.5, abs=1e-12)


def test_flood_index_hot_region_saturates():
    # with many regions, one arbitrarily deep region's score approaches the
    # sigmoid ceiling: the z-score limit is sqrt(n-1), so 64 regions give
    # sigmoid(sqrt(63)) = 0.99964...
    for depth in (1e3, 1e6, 1e9):
        scores = m._sigmoid_scores(np.array([0.0] * 63 + [depth]))
        assert scores[-1] > 0.999


def test_sigmoid_scores_order_preserving():
    # the normalized score is strictly increasing in the z-score, so deeper
    # regions always rank at least as high within one snapshot
    rng = np.random.default_rng(8)
    for _ in range(50):
        depths = rng.uniform(0, 2, size=16)
        scores = m._sigmoid_scores(depths)
        order = np.argsort(depths)
        assert np.all(np.diff(scores[order]) >= -1e-12)


def test_congestion_degenerate_zero_traffic():
    ws = world_with_region_depths([0.0] * 4)
    assert m.congestion_index(ws) == pytest.approx(0.5)


def test_congestion_two_point_symmetry():
    scores = m._sigmoid_scores(np.array([0.0, 10.0]))
    assert float(np.mean(scores)) == pytest.approx(0.5, abs=1e-12)


# --- trip rates -----------------------------------------------------------------

def test_trip_rates_all_on_time():
    assert m.trip_rates(0, 10, 10) == (0.0, 1.0)


def test_trip_rates_counting():
    c, r = m.trip_rates(2, 3, 10)
    assert (c, r) == (0.2, 0.3)


def test_trip_rates_all_cancelled():
    assert m.trip_rates(10, 0, 10) == (1.0, 0.0)


# --- objective -------------------------------------------------------------------

def test_objective_perfect_outcome():
    assert m.objective_j(0, 0, 0, 1, WEIGHTS) == pytest.approx(0.0)


def test_objective_worst_case_table_weights():
    assert m.objective_j(1, 1, 1, 0, WEIGHTS) == pytest.approx(1.0)


def test_objective_hand_arithmetic():
    j = m.objective_j(0.5, 0.5, 0.2, 0.8, WEIGHTS)
    assert j == pytest.approx(0.38, abs=1e-12)


def test_objective_affine_argmin_invariance():
    rng = np.random.default_rng(3)
    snapshots = [tuple(rng.uniform(0, 1, size=4)) for _ in range(50)]
    js = [m.objective_j(f, t, c, r, WEIGHTS) for f, t, c, r in snapshots]
    # scaling then renormalizing the weight vector leaves the argmin alone
    doubled = tuple(2 * w for w in WEIGHTS)
    scaled = tuple(w / sum(doubled) for w in doubled)
    js2 = [m.objective_j(f, t, c, r, scaled) for f, t, c, r in snapshots]
    assert int(np.argmin(js)) == int(np.argmin(js2))


# --- gap and threshold -----------------------------------------------------------

def objective_gap(history, j_now):
    """Oracle for `FeedbackWindow.gap_for`: j_now minus the minimum of the
    full J history, 0 on an empty history."""
    if not history:
        return 0.0
    return j_now - min(history)


def window_after(js, length=10):
    window = m.FeedbackWindow(length=length)
    for j in js:
        window.push(j, window.gap_for(j))
    return window


def test_gap_basic():
    assert window_after([0.50, 0.40, 0.45]).gap_for(0.45) == pytest.approx(0.05)


def test_gap_at_min_and_new_best():
    assert window_after([0.40, 0.50]).gap_for(0.40) == pytest.approx(0.0)
    assert window_after([0.40, 0.50]).gap_for(0.35) == pytest.approx(-0.05)


def test_gap_empty_history():
    assert window_after([]).gap_for(0.7) == 0.0


def test_gap_incremental_equals_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = rng.integers(1, 30)
        js = rng.uniform(0, 1, size=n)
        window = m.FeedbackWindow(length=10)
        history = []
        for j in js:
            gap_inc = window.gap_for(j)
            gap_bf = objective_gap(history, j)
            assert gap_inc == pytest.approx(gap_bf, abs=1e-12)
            window.push(j, gap_inc)
            history.append(j)


TRIGGER_FLOOR = FeedbackConfig().trigger_floor


def test_adaptive_threshold_constant_gaps():
    assert m.adaptive_threshold([0.2, 0.2, 0.2], TRIGGER_FLOOR) == pytest.approx(0.2)
    assert m.adaptive_threshold([0.001, 0.001], TRIGGER_FLOOR) == pytest.approx(0.015)


def test_adaptive_threshold_hand_stats():
    # gaps [0.0, 0.02]: mu 0.01, population sigma 0.01 -> 0.02
    assert m.adaptive_threshold([0.0, 0.02], TRIGGER_FLOOR) == pytest.approx(0.02)


def test_adaptive_threshold_floor_short_window():
    assert m.adaptive_threshold([], TRIGGER_FLOOR) == 0.015
    assert m.adaptive_threshold([0.4], TRIGGER_FLOOR) == 0.015


# --- deviation --------------------------------------------------------------------

def test_execution_deviation_zero():
    plan = {"f": 0.4, "t": 0.5, "c": 0.1, "r": 0.8}
    assert m.execution_deviation(plan, dict(plan)) == 0.0


def test_execution_deviation_unit():
    assert m.execution_deviation({"a": 0.0, "b": 0.0}, {"a": 1.0, "b": 1.0}) == pytest.approx(1.0)


def test_execution_deviation_hand_arithmetic():
    de = m.execution_deviation({"r": 1.0, "t": 0.4}, {"r": 0.9, "t": 0.6})
    assert de == pytest.approx(math.sqrt(0.025), abs=1e-9)
    assert de == pytest.approx(0.15811388300841897, abs=1e-9)


def test_deviation_zero_iff_equal():
    rng = np.random.default_rng(4)
    for _ in range(100):
        plan = {k: float(v) for k, v in zip("ftcr", rng.uniform(0, 1, 4))}
        execd = dict(plan)
        assert m.execution_deviation(plan, execd) == 0.0
        execd["c"] += 1e-6
        assert m.execution_deviation(plan, execd) > 0.0


# --- stability ---------------------------------------------------------------------

def test_run_stability_identical_runs():
    run = {"f": 0.45, "t": 0.3}
    out = m.run_stability([run, dict(run), dict(run)])
    assert out == {"f": 0.0, "t": 0.0}
    # np.mean([0.4] * 3) is 0.4000000000000001, so an unshifted variance
    # of these run means would leave a residue of about 3e-33.
    assert m.run_stability([{"f": 0.4}] * 3) == {"f": 0.0}


def test_run_stability_hand_variance():
    runs = [{"J": 0.4}, {"J": 0.6}]
    assert m.run_stability(runs)["J"] == pytest.approx(0.01)


def test_run_stability_permutation_invariant():
    runs = [{"f": 0.15}, {"f": 0.5}, {"f": 0.9}]
    a = m.run_stability(runs)
    b = m.run_stability(list(reversed(runs)))
    assert a == b


def test_run_stability_needs_two():
    with pytest.raises(InsufficientRuns):
        m.run_stability([{"f": 0.1}])


# --- feedback window -----------------------------------------------------------------

def test_window_capacity_and_best():
    window = m.FeedbackWindow(length=3)
    for j in [0.5, 0.3, 0.6, 0.7]:
        window.push(j, window.gap_for(j))
    assert len(window.gaps) == 3
    assert window.best_j == pytest.approx(0.3)  # best survives window eviction
    assert window.gap_for(0.5) == pytest.approx(0.2)


def test_window_keeps_each_cycles_gap():
    window = m.FeedbackWindow(length=5)
    for j in (0.5, 0.4, 0.45):
        window.push(j, window.gap_for(j))
    assert list(window.gaps) == pytest.approx([0.0, -0.1, 0.05])
