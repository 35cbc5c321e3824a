"""The entropy projection against the code it replaced.

The oracle below is the former `project_entropy` with its
`_mix_toward_argmax` and `entropy_of`, kept verbatim: it looked up the
argmax and built a one-hot on every bisection step, and picked out the
positive entries of every mix. The package takes the argmax once, mixes
as `(1 - beta) * p` plus beta at the argmax, and skips the positivity
mask when every entry is positive; the arrays it returns must be the
same bytes. The cases cover rows with zeros, tied maxima, one-hot rows,
uniform rows and rows holding the smallest subnormal (whose mix
underflows to zero, so the mask is needed although every entry of the
row is positive); and tau at or below `PROJECTION_BAND`, between it and
the row's entropy, and at or above the row's entropy. The program builds
no row with a negative zero, and neither do the cases.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from floodloop.policy import PROJECTION_BAND, project_entropy

SMALLEST_SUBNORMAL = 5e-324

# --- the former projection, verbatim ------------------------------------------------------


def former_entropy_of(probs):
    """Shannon entropy in nats with the 0*ln(0) = 0 convention."""
    arr = np.asarray(probs, dtype=np.float64)
    nz = arr[arr > 0]
    return float(-np.sum(nz * np.log(nz)))


def former_mix_toward_argmax(probs: np.ndarray, beta: float) -> np.ndarray:
    onehot = np.zeros_like(probs)
    onehot[int(np.argmax(probs))] = 1.0
    return (1.0 - beta) * probs + beta * onehot


def former_project_entropy(probs: np.ndarray, tau: float) -> np.ndarray:
    if former_entropy_of(probs) <= tau:
        return probs
    if tau <= PROJECTION_BAND:
        return former_mix_toward_argmax(probs, 1.0)
    # the one-hot at hi = 1 has entropy 0, below tau - PROJECTION_BAND
    lo, hi, h_hi = 0.0, 1.0, 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        h_mid = former_entropy_of(former_mix_toward_argmax(probs, mid))
        if h_mid > tau:
            lo = mid
        else:
            hi, h_hi = mid, h_mid
        if h_hi >= tau - PROJECTION_BAND:
            break
    return former_mix_toward_argmax(probs, hi)


# --- the cases ---------------------------------------------------------------------------

KINDS = ("random", "zeros", "tied", "one-hot", "uniform", "subnormal")


@st.composite
def rows(draw):
    """(kind, row): a probability row of 1 to 40 entries of one kind."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(KINDS))
    if kind == "one-hot":
        raw = np.zeros(n)
        raw[draw(st.integers(0, n - 1))] = 1.0
    elif kind == "uniform":
        raw = np.ones(n)
    else:
        raw = draw(hnp.arrays(np.float64, n, elements=st.floats(0.01, 1.0)))
        picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        if kind == "zeros":
            raw[picked[1:]] = 0.0  # the first stays positive
        elif kind == "tied":
            raw[picked] = raw.max()
    row = raw / raw.sum()
    if kind == "subnormal" and n > 1:
        row[picked[0]] = SMALLEST_SUBNORMAL
    return kind, row


@st.composite
def projection_cases(draw):
    """(kind, row, tau): tau within the band, below the row's entropy, or at or above it."""
    kind, row = draw(rows())
    h = former_entropy_of(row)
    tau = draw(
        st.one_of(
            st.sampled_from([0.0, PROJECTION_BAND / 2, PROJECTION_BAND]),
            st.floats(PROJECTION_BAND, max(h, PROJECTION_BAND)),
            st.floats(0.0, 1.0).map(lambda extra: h + extra),
        )
    )
    return kind, row, tau


@settings(deadline=None, max_examples=600)
@given(projection_cases())
def test_projection_matches_the_former_bisection_bit_for_bit(case):
    _, row, tau = case
    want = former_project_entropy(row.copy(), tau)
    probs = row.copy()
    out = project_entropy(probs, tau)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    # within budget, the row itself comes back, as before
    assert (out is probs) == (former_entropy_of(row) <= tau)
    assert probs.tobytes() == row.tobytes()  # the input is never written


def test_cases_reach_every_row_kind_and_branch(monkeypatch):
    # the strategy is only a check if it reaches each case the docstring names
    seen: set[str] = set()
    mixes: list[np.ndarray] = []
    mix = former_mix_toward_argmax

    def recording_mix(probs, beta):
        mixed = mix(probs, beta)
        mixes.append(mixed)
        return mixed

    monkeypatch.setitem(globals(), "former_mix_toward_argmax", recording_mix)

    @settings(deadline=None, max_examples=600, database=None, derandomize=True)
    @given(projection_cases())
    def collect(case):
        kind, row, tau = case
        seen.add(kind)
        if np.count_nonzero(row == row.max()) > 1:
            seen.add("tied maxima")
        h = former_entropy_of(row)
        mixes.clear()
        former_project_entropy(row, tau)
        if h <= tau:
            seen.add("tau at or above the entropy")
        elif tau <= PROJECTION_BAND:
            seen.add("tau within the band")
        else:
            seen.add("bisection")
            for mixed in mixes[:-1]:  # the last is the returned mix, not an entropy step
                if mixed.min() > 0.0:
                    seen.add("bisection step with every entry positive")
                elif row.min() > 0.0:
                    seen.add("bisection step whose mix underflows to zero")
                else:
                    seen.add("bisection step on a row with zeros")

    collect()
    assert set(KINDS) <= seen
    assert {
        "tied maxima",
        "tau at or above the entropy",
        "tau within the band",
        "bisection",
        "bisection step with every entry positive",
        "bisection step whose mix underflows to zero",
        "bisection step on a row with zeros",
    } <= seen

