"""Normalized indicators, the weighted objective, and trigger statistics.

Four indicators feed one scalar cost J:
  f  sigmoid-normalized per-region flood depth, averaged over regions
  t  sigmoid-normalized per-region car density, averaged over regions
  c  cancelled trips / spawned trips
  r  on-time arrivals / spawned trips  (enters J as 1 - r)

All mean/stddev/variance here are population statistics. When every region
is identical (sigma = 0) the sigmoid indices are defined as 0.5, the
sigmoid's center, which keeps f and t continuous as variance shrinks.

The per-region flood and congestion scores of a world state are computed
here once, on the first ask, and kept read-only with that state
(`WorldState.region_scores`). Every reader of a state shares them: the
step-end `SimulationEngine.metrics_snapshot` (f and t),
`state.summarize_world` at the next cycle's start, and
`DecisionLoop.run_cycle`'s `region_flood_end`, all of which ask for the
same cycle-boundary state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InsufficientRuns
from .world import WorldState, region_means

METRIC_NAMES = ("f", "t", "c", "r")
LAMBDA_THR = 1.0  # the trigger threshold's weight on the window's spread


@dataclass(frozen=True)
class MetricsSnapshot:
    f: float
    t: float
    c: float
    r: float
    j: float
    step: int

    def as_map(self) -> dict[str, float]:
        return {"f": self.f, "t": self.t, "c": self.c, "r": self.r}


def _mean(values: np.ndarray) -> float:
    """`np.mean` of a non-empty 1-D float array, without its dispatch: the
    same pairwise sum divided by the count."""
    return float(np.add.reduce(values) / len(values))


def _sigmoid_scores(values: np.ndarray) -> np.ndarray:
    """sigmoid((x - mu) / sigma) per entry; all 0.5 when sigma = 0.

    mu and sigma are what `np.mean` and `np.std` return, computed as
    `np.std` computes them: the deviations from the mean, squared, summed
    pairwise and divided by the count, then the square root. The
    deviations divided by -sigma are exactly -z, the argument of `exp`.
    """
    mu = _mean(values)
    deviations = values - mu
    sigma = float(np.sqrt(_mean(deviations * deviations)))
    if sigma == 0.0:
        return np.full_like(values, 0.5, dtype=np.float64)
    z = np.divide(deviations, -sigma, out=deviations)
    return 1.0 / (1.0 + np.exp(z, out=z))


def _region_scores(world: WorldState, name: str, cells: np.ndarray) -> np.ndarray:
    """The sigmoid scores of the region means of `cells`, a field of
    `world`, computed on the first ask for `name` and kept, read-only,
    with the state."""
    scores = world.region_scores.get(name)
    if scores is None:
        scores = _sigmoid_scores(region_means(cells, world.region_id, world.region_cells))
        scores.flags.writeable = False
        world.region_scores[name] = scores
    return scores


def flood_scores(world: WorldState) -> np.ndarray:
    """Per-region sigmoid flood index over mean region water depth (read-only)."""
    return _region_scores(world, "flood", world.water_depth)


def congestion_scores(world: WorldState) -> np.ndarray:
    """Per-region sigmoid congestion index over mean region car density (read-only)."""
    return _region_scores(world, "congestion", world.car_density)


def flood_index(world: WorldState) -> float:
    return _mean(flood_scores(world))


def congestion_index(world: WorldState) -> float:
    return _mean(congestion_scores(world))


def trip_rates(cancelled: int, on_time_arrived: int, spawned: int) -> tuple[float, float]:
    """(cancellation rate, on-time arrival rate) over the `spawned` > 0 trips."""
    return cancelled / spawned, on_time_arrived / spawned


def objective_j(f: float, t: float, c: float, r: float, weights: Sequence[float]) -> float:
    """Weighted cost w1*f + w2*t + w3*c + w4*(1 - r); lower is better.

    `weights` is `FeedbackConfig.weights`, which `RunConfig.validate`
    checks: four finite, non-negative weights that sum to one.
    """
    w1, w2, w3, w4 = weights
    return w1 * f + w2 * t + w3 * c + w4 * (1.0 - r)


def adaptive_threshold(window_values: Sequence[float], floor: float) -> float:
    """mu + LAMBDA_THR * sigma over the recent window, floored (`FeedbackConfig.trigger_floor`).

    With fewer than two entries there is no spread to estimate and the
    static floor is returned.
    """
    if len(window_values) < 2:
        return floor
    arr = np.asarray(window_values, dtype=np.float64)
    return max(float(np.mean(arr) + LAMBDA_THR * np.std(arr)), floor)


def execution_deviation(planned: Mapping[str, float], executed: Mapping[str, float]) -> float:
    """Root-mean-square gap between executed and planned metric values;
    both maps carry the same keys."""
    keys = sorted(planned)
    diffs = np.array([executed[k] - planned[k] for k in keys], dtype=np.float64)
    return float(np.sqrt(np.mean(diffs**2)))


def run_stability(runs: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Population variance of each metric across runs, given one value
    (the run mean) per run and metric.

    The variance is taken on the sorted run means shifted by the
    smallest one (Chan, Golub & LeVeque 1983), so identical run means
    give exactly 0 and the result does not depend on run order.
    """
    if len(runs) < 2:
        raise InsufficientRuns(f"need >= 2 runs, got {len(runs)}")
    keys = sorted(runs[0])
    out = {}
    for key in keys:
        means = np.sort(np.array([run[key] for run in runs], dtype=np.float64))
        out[key] = float(np.var(means - means[0]))
    return out


class FeedbackWindow:
    """The gaps of the last `length` cycles (`feedback.WINDOW_LENGTH` in a
    run) plus the all-time best J.

    The best tracks the full history, not just the window, so the
    objective gap always compares against the global minimum.
    """

    def __init__(self, length: int):
        self.gaps: deque[float] = deque(maxlen=length)
        self.best_j: float | None = None

    def gap_for(self, j_now: float) -> float:
        """j_now minus the historical best; 0 on an empty history so the first
        cycle can never trigger. Negative when j_now is a new best."""
        if self.best_j is None:
            return 0.0
        return j_now - self.best_j

    def push(self, j: float, gap: float) -> None:
        self.gaps.append(gap)
        if self.best_j is None or j < self.best_j:
            self.best_j = j
