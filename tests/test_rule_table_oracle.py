"""`RuledBackend`'s array rule table against the per-region loop it replaced.

The oracle below is the former body of `RuledBackend.propose`, kept
verbatim: one pass over the regions that adds each rule's weight into a
score per (verb, region) pair. The array version must give the same
support, in the same order, and bit-for-bit the same probabilities, over
random summaries with and without failure feedback, on calm and busy
maps, and with a zero blocking depth.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop import backends as b
from floodloop.config import PolicyConfig
from floodloop.knowledge import FeedbackNote, KnowledgeGraph, build_prompt
from floodloop.policy import VERB_INDEX, HighLevelAction, PolicyDistribution, Verb
from floodloop.state import StateSummary

SCORE_THRESHOLD = PolicyConfig().score_threshold


def oracle_rule_table(score_threshold: float, prompt, n_regions: int) -> PolicyDistribution:
    summary = prompt.summary
    boost = 1.0
    preempt_bar = b.PREEMPT_FRACTION * summary.blocking_depth
    degraded: tuple[str, ...] = ()
    if prompt.feedback is not None:
        boost = 1.0 + min(2.0, 10.0 * prompt.feedback.deviation_rms)
        degraded = prompt.feedback.degraded_metrics
        preempt_bar *= 0.75
        if "c" in degraded or "r" in degraded:
            boost *= 1.5
            preempt_bar *= 0.75
    calm_map = sum(summary.region_blocked_roads) <= b.CALM_BLOCKED_LIMIT
    scores: defaultdict[HighLevelAction, float] = defaultdict(float)
    scores[HighLevelAction(Verb.NOOP, 0)] = 0.5
    for r in range(n_regions):
        f_a = summary.region_flood[r]
        t_a = summary.region_congestion[r]
        depth = summary.region_max_depth[r]
        blocked = summary.region_blocked_roads[r]
        # relative hot spots only matter when they are wet in absolute
        # terms; otherwise detour/closure would punish mild weather
        wetness = min(1.0, depth / summary.blocking_depth) if summary.blocking_depth > 0 else 0.0
        if f_a > score_threshold and wetness >= 0.85:
            scores[HighLevelAction(Verb.CLOSE_ROAD, r)] += 0.4 * f_a * wetness
            scores[HighLevelAction(Verb.REROUTE_REGION, r)] += f_a * wetness
        if blocked > 0:
            relief = (1.0 + f_a) * boost
            if "c" in degraded or "r" in degraded:
                relief *= 2.0
            scores[HighLevelAction(Verb.DISPATCH_RELIEF, r)] += relief
            scores[HighLevelAction(Verb.REROUTE_REGION, r)] += 0.6 * boost
            if blocked >= 3:
                scores[HighLevelAction(Verb.HOLD_TRANSIT, r)] += 0.5 * boost
        elif depth >= preempt_bar and (calm_map or prompt.feedback is not None):
            # preventive pumping on wet-but-open regions: routine
            # maintenance while the map is calm, or escalated coverage
            # after a triggered cycle; deliberately lighter than the
            # reactive response
            scores[HighLevelAction(Verb.DISPATCH_RELIEF, r)] += 0.5 * boost
        if t_a > score_threshold:
            extra = 0.8 * t_a * (1.5 if "t" in degraded else 1.0)
            scores[HighLevelAction(Verb.REROUTE_REGION, r)] += extra
    actions = sorted(scores, key=lambda a: (VERB_INDEX[a.verb], a.region))
    weights = np.array([scores[a] for a in actions], dtype=np.float64)
    probs = weights / weights.sum()
    return PolicyDistribution(support=tuple(actions), probs=tuple(float(p) for p in probs))


# every subset of the metrics a feedback note can name as degraded
DEGRADED = tuple(tuple(m for i, m in enumerate("crt") if mask >> i & 1) for mask in range(8))
# scores at and around the threshold and the wetness bar, and anywhere in [0, 1]
SCORES = st.one_of(st.sampled_from([0.0, SCORE_THRESHOLD, 0.85, 1.0]), st.floats(0.0, 1.0))


@st.composite
def rule_cases(draw):
    n = draw(st.integers(1, 16))
    # the rules read the first n regions of a summary that may have more
    m = n + draw(st.sampled_from([0, 0, 0, 1, 2]))
    blocking_depth = draw(st.sampled_from([0.0, 0.3, 0.45]))
    depth_values = st.one_of(
        st.sampled_from([0.0, 0.5 * blocking_depth, 0.85 * blocking_depth, blocking_depth]), st.floats(0.0, 1.0)
    )
    # up to 12 blocked cells a region: 16 regions reach past the calm limit of 40
    blocked = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 12)), min_size=m, max_size=m))
    summary = StateSummary(
        step=0,
        scenario_kind="extreme",
        intensity=0.5,
        region_flood=tuple(draw(st.lists(SCORES, min_size=m, max_size=m))),
        region_congestion=tuple(draw(st.lists(SCORES, min_size=m, max_size=m))),
        region_max_depth=tuple(draw(st.lists(depth_values, min_size=m, max_size=m))),
        region_blocked_roads=tuple(blocked),
        region_road_cells=(12,) * m,
        region_worst_road=((0, 0),) * m,
        blocking_depth=blocking_depth,
        flooded_regions=(),
        congested_regions=(),
        targeted_regions=(),
        spawned=0,
        arrived=0,
        cancelled=0,
        enroute=0,
    )
    feedback = None
    if draw(st.booleans()):
        feedback = FeedbackNote(draw(st.floats(0.0, 0.5)), (), draw(st.sampled_from(DEGRADED)), ())
    return build_prompt(summary, KnowledgeGraph(), [], feedback, set()), n


@settings(deadline=None, max_examples=500)
@given(rule_cases())
def test_rule_table_matches_the_per_region_oracle(case):
    prompt, n = case
    got = b.RuledBackend(SCORE_THRESHOLD).propose(prompt, n, 1.2, 0).distribution
    want = oracle_rule_table(SCORE_THRESHOLD, prompt, n)
    assert got.support == want.support
    assert got.probs == want.probs


def test_cases_reach_every_rule_and_map():
    # the strategy is only a check if it fires every rule on both kinds of map
    seen: set[str] = set()

    @settings(deadline=None, max_examples=500, database=None, derandomize=True)
    @given(rule_cases())
    def collect(case):
        prompt, n = case
        summary, feedback = prompt.summary, prompt.feedback
        seen.add("calm" if sum(summary.region_blocked_roads) <= b.CALM_BLOCKED_LIMIT else "busy")
        seen.add("no feedback" if feedback is None else feedback.degraded_metrics)
        if summary.blocking_depth == 0:
            seen.add("zero blocking depth")
        seen.update(a.verb.value for a in oracle_rule_table(SCORE_THRESHOLD, prompt, n).support)

    collect()
    assert {"calm", "busy", "no feedback", "zero blocking depth", *DEGRADED} <= seen
    assert {v.value for v in Verb} <= seen
