"""Property tests for run_stability: exact zero, run-order invariance, accuracy."""

from __future__ import annotations

import math
import statistics

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop import metrics as m

# Bounded so that squared differences of run means cannot overflow.
BOUNDED = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


@settings(deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 50))
def test_identical_run_means_give_exact_zero(x, n_runs):
    assert m.run_stability([{"f": x}] * n_runs) == {"f": 0.0}


@settings(deadline=None)
@given(st.lists(BOUNDED, min_size=2, max_size=50), st.data())
def test_any_run_order_gives_equal_result(means, data):
    runs = [{"f": x} for x in means]
    shuffled = data.draw(st.permutations(runs))
    assert m.run_stability(shuffled) == m.run_stability(runs)


@settings(deadline=None)
@given(st.lists(BOUNDED, min_size=2, max_size=50))
def test_agrees_with_exact_variance(means):
    # statistics.pvariance sums in exact rational arithmetic. np.var is not
    # a sound reference here: for run means [1, 1 + 2**-52] it is off by 2x.
    # abs_tol covers squares of differences that fall below the normal range.
    got = m.run_stability([{"f": x} for x in means])["f"]
    assert math.isclose(got, statistics.pvariance(means), rel_tol=1e-12, abs_tol=1e-300)
