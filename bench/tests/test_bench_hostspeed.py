"""Reference-speed arithmetic of the host-speed timeline."""

import pytest

from hostspeed import REFERENCE_S, SpeedTimeline


def timeline(samples):
    """A timeline whose samples occupy the given (start, end) intervals."""
    times = iter(t for pair in samples for t in pair)
    tl = SpeedTimeline(clock=lambda: next(times), work=lambda: None)
    for _ in samples:
        tl.sample()
    return tl


def test_scaled_uses_the_mean_of_the_two_bracketing_samples():
    # samples take 1x and 3x the reference time: the gap between runs at 2x
    tl = timeline([(0.0, REFERENCE_S), (1.0, 1.0 + 3 * REFERENCE_S)])
    assert tl.scaled(REFERENCE_S, 1.0) == pytest.approx((1.0 - REFERENCE_S) / 2)
    assert tl.wall(REFERENCE_S, 1.0) == pytest.approx(1.0 - REFERENCE_S)


def test_samples_are_left_out_of_an_interval_that_spans_them():
    r = REFERENCE_S
    tl = timeline([(0.0, r), (1.0, 1.0 + r), (2.0, 2.0 + r)])
    # all samples at the reference speed: reference seconds equal wall seconds
    assert tl.wall(0.0, 2.0 + r) == pytest.approx(2.0 - 2 * r)
    assert tl.scaled(0.0, 2.0 + r) == pytest.approx(2.0 - 2 * r)
    assert tl.scaled(0.5, 1.5) == pytest.approx(1.0 - r)


def test_edges_use_the_nearest_sample():
    r = REFERENCE_S
    tl = timeline([(1.0, 1.0 + 2 * r), (2.0, 2.0 + 4 * r)])
    assert tl.scaled(0.0, 1.0) == pytest.approx(1.0 / 2)  # before the first sample
    assert tl.scaled(3.0, 4.0) == pytest.approx(1.0 / 4)  # after the last
    assert tl.scaled(1.5, 1.5) == 0.0


def test_an_empty_timeline_cannot_scale():
    with pytest.raises(ValueError):
        SpeedTimeline().scaled(0.0, 1.0)
