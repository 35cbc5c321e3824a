"""Pruning expired instructions does not change any board query."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop import translate as tr

N_REGIONS = 4
STEPS = 30

instructions = st.builds(
    lambda tag, region, cell, params, start, length: tr.Instruction(tag, region, cell, params, (start, start + length)),
    st.sampled_from(list(tr.Tag)),
    st.integers(0, N_REGIONS - 1),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from([(), (("penalty", 8.0),), (("multiplier", 2.0),)]),
    st.integers(0, STEPS),
    st.integers(0, 12),
)


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.integers(0, STEPS - 1), st.lists(instructions, max_size=4), max_size=12))
def test_pruned_board_answers_like_the_full_one(schedule):
    # the engine's order: active_regions(k) and dispatch at a cycle boundary,
    # then prune(k), drain_multipliers(k), and the step's queries at k + 1
    full = tr.InstructionBoard(N_REGIONS)
    pruned = tr.InstructionBoard(N_REGIONS)
    for k in range(STEPS):
        assert pruned.active_regions(k) == full.active_regions(k)
        full.dispatch(schedule.get(k, []))
        pruned.dispatch(schedule.get(k, []))
        pruned.prune(k)
        assert np.array_equal(pruned.drain_multipliers(k), full.drain_multipliers(k))
        now = k + 1
        assert pruned.closed_cells(now) == full.closed_cells(now)
        assert pruned.region_penalties(now) == full.region_penalties(now)
        for region in range(N_REGIONS):
            assert pruned.bus_held(region, now) == full.bus_held(region, now)
        assert pruned.active_regions(now) == full.active_regions(now)


def test_prune_keeps_current_and_future_windows():
    board = tr.InstructionBoard(N_REGIONS)
    past, current, future = (tr.Instruction(tr.Tag.OBSTACLE, 0, (r, 0), (), w) for r, w in ((0, (0, 4)), (1, (3, 5)), (2, (8, 9))))
    board.dispatch([past, current, future])
    board.prune(5)
    assert board.obstacles == [current, future]
