"""The regional pass as three stage calls, against the per-directive chain
it replaced.

The oracle below is the former chain, kept verbatim but for the two
`Directive` fields that every construction now passes: per refined
region, `generate_regional` drew one directive from a fresh
`pystream(seed, "regional", cycle, region)` with `choices`, `translate`
mapped it onto one instruction, `wrap_accuracy` passed or rejected it,
and the loop logged its `instructions.csv` row. The stage calls, each
over a whole cycle's refined actions as `DecisionLoop.run_cycle` makes
them, must give the same diversity texts, instructions, rejection reasons
and rows. The stage calls read the anchors and road counts from the
cycle's `StateSummary`; the former chain reads the world. The cases cover
every verb; probability rows (1, 0), (0, 1), capped ones and ones that
put a region's own draw exactly on the split; regions without roads,
regions flooded to exactly the blocking depth or deeper or to one ulp
below it, and closures with no cell; and odd window spans.

The accuracy pass over the summary is also checked against the former
list pass, which found the fully flooded regions with its own reduction
over the world's road cells.
"""

from __future__ import annotations

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from floodloop import feedback as fb
from floodloop.config import WorldConfig
from floodloop.policy import Directive, HighLevelAction, Verb, project_entropy
from floodloop.rng import pystream
from floodloop.state import summarize_world
from floodloop.translate import _DIRECTIVE_TABLE, Instruction, Rejection, Tag
from floodloop.world import build_world, region_road_index
from test_loop_properties import per_region_worst

# --- the former per-directive chain ------------------------------------------------------


def former_candidate_directives(action, cell):
    r = action.region
    if action.verb is Verb.REROUTE_REGION:
        return [
            Directive("avoid_region", r, None, (("penalty", 4.0),)),
            Directive("avoid_region_strong", r, None, (("penalty", 8.0),)),
        ]
    if action.verb is Verb.CLOSE_ROAD:
        return [Directive("close_cell", r, cell, ()), Directive("close_cell_brief", r, cell, ())]
    if action.verb is Verb.HOLD_TRANSIT:
        return [Directive("hold_buses", r, None, ()), Directive("hold_buses_brief", r, None, ())]
    if action.verb is Verb.DISPATCH_RELIEF:
        return [
            Directive("deploy_pumps", r, None, (("multiplier", 1.5),)),
            Directive("deploy_pumps_surge", r, None, (("multiplier", 5.0),)),
        ]
    return []


def former_generate_regional(action, cell, probs, seed, cycle):
    rng = pystream(seed, "regional", cycle, action.region)
    return rng.choices(former_candidate_directives(action, cell), weights=probs, k=1)[0]


def former_translate(directive, window):
    tag, shrink = _DIRECTIVE_TABLE[directive.kind]
    start, end = window
    span = max(0, int(round((end - start) * shrink)))
    return Instruction(tag, directive.region, directive.cell, directive.params, (start, start + span))


def former_wrap_accuracy(instr, world, resident_block_depth):
    if instr.tag is Tag.OBSTACLE and instr.cell is None:
        return Rejection(instr, f"no road cell in region {instr.region} to anchor obstacle")
    if instr.tag is Tag.ROUTING:
        runs = world.road_runs
        flat = runs.flat[runs.bounds[instr.region] : runs.bounds[instr.region + 1]]
        if not len(flat):
            return Rejection(instr, f"routing infeasible: region {instr.region} has no road cells")
        if np.all(world.water_depth.take(flat) >= resident_block_depth):
            return Rejection(instr, f"routing infeasible: region {instr.region} fully flooded")
    return instr


def former_list_wrap_accuracy(instructions, world, resident_block_depth):
    """`wrap_accuracy` as it read the world, with `_fully_flooded`, kept verbatim as an oracle."""
    runs = world.road_runs
    flooded: set[int] | None = None
    out: list[Instruction | Rejection] = []
    for instr in instructions:
        r = instr.region
        reason = ""
        if instr.tag is Tag.OBSTACLE and instr.cell is None:
            reason = f"no road cell in region {r} to anchor obstacle"
        elif instr.tag is Tag.ROUTING:
            if runs.bounds[r] == runs.bounds[r + 1]:
                reason = f"routing infeasible: region {r} has no road cells"
            else:
                if flooded is None:
                    flooded = former_fully_flooded(world, resident_block_depth)
                if r in flooded:
                    reason = f"routing infeasible: region {r} fully flooded"
        out.append(Rejection(instr, reason) if reason else instr)
    return out


def former_fully_flooded(world, resident_block_depth: float) -> set[int]:
    """The regions with roads whose every road cell is at least `resident_block_depth` deep."""
    runs = world.road_runs
    lowest = np.minimum.reduceat(world.water_depth.take(runs.flat), runs.starts)
    return {region for region, full in zip(runs.regions, (lowest >= resident_block_depth).tolist()) if full}


def former_row(cycle, instr, status, reason):
    return {
        "cycle": cycle,
        "region": instr.region,
        "tag": instr.tag.value,
        "anchor": "" if instr.cell is None else f"{instr.cell[0]}:{instr.cell[1]}",
        "window_start": instr.window[0],
        "window_end": instr.window[1],
        "status": status,
        "reason": reason,
    }


def former_pass(case):
    """(texts, instructions, rejection reasons, rows) of the former loop."""
    texts, instructions, reasons, rows = [], [], [], []
    for region, action in sorted(case.sampled.items()):
        if action.verb is Verb.NOOP:
            texts.append(f"noop region={region}")
            continue
        directive = former_generate_regional(action, case.worst[region], case.probs[action], case.seed, case.cycle)
        texts.append(directive.text())
        instr = former_translate(directive, case.window)
        wrapped = former_wrap_accuracy(instr, case.world, case.depth)
        if isinstance(wrapped, Rejection):
            reasons.append(wrapped.reason)
            rows.append(former_row(case.cycle, wrapped.instruction, "rejected", wrapped.reason))
        else:
            instructions.append(wrapped)
            rows.append(former_row(case.cycle, wrapped, "accepted", ""))
    return texts, instructions, reasons, rows


def stage_pass(case):
    """The same four outputs from one call per stage, composed as `run_cycle` composes them."""
    log = SimpleNamespace(instruction_rows=[])
    refined = [action for action in case.sampled.values() if action.verb is not Verb.NOOP]
    directives = fb.generate_regional(refined, case.summary.region_worst_road, case.probs, case.seed, case.cycle)
    instructions, reasons = [], []
    for wrapped in fb.wrap_accuracy(fb.translate(directives, case.window), case.summary):
        if isinstance(wrapped, Rejection):
            reasons.append(wrapped.reason)
            fb.DecisionLoop._log_instruction(log, case.cycle, wrapped.instruction, "rejected", wrapped.reason)
        else:
            instructions.append(wrapped)
            fb.DecisionLoop._log_instruction(log, case.cycle, wrapped, "accepted", "")
    texts = {region: f"noop region={region}" for region in case.sampled}
    texts.update((d.region, d.text()) for d in directives)
    return list(texts.values()), instructions, reasons, log.instruction_rows


# --- cases ---------------------------------------------------------------------------------


def first_draw(seed, cycle, region):
    return pystream(seed, "regional", cycle, region).random()


def capped(a, b, cap):
    row = np.array([a, b]) / (a + b)
    return tuple(project_entropy(row, cap).tolist())


def probability_rows(draw_at):
    """Two-directive rows: the edges, the split at the region's own draw
    (`choices` takes the second directive there), any split, and capped rows."""
    return st.one_of(
        st.sampled_from([(1.0, 0.0), (0.0, 1.0), (draw_at, 1.0 - draw_at)]),
        st.floats(0.0, 1.0).map(lambda x: (x, 1.0 - x)),
        st.builds(capped, st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.0, math.log(2))),
    )


@st.composite
def regional_cases(draw):
    side = draw(st.integers(1, 4))
    n = side * side
    width, height = draw(st.integers(side, 12)), draw(st.integers(side, 12))
    world = build_world(WorldConfig(width=width, height=height, n_regions=n), 0)
    # random roads: some regions get none, so their closures have no cell
    is_road = draw(hnp.arrays(np.bool_, (height, width), elements=st.booleans()))
    depth = draw(st.sampled_from([0.0, 0.3, 0.45]))
    below = float(np.nextafter(depth, 0.0))
    water = draw(
        hnp.arrays(
            np.float64,
            (height, width),
            elements=st.one_of(st.sampled_from([0.0, 0.5 * depth, below, depth, depth + 0.1]), st.floats(0.0, 1.0)),
        )
    )
    # regions flooded at exactly the blocking depth, or deeper, and ones one ulp short of it
    for region in draw(st.sets(st.integers(0, n - 1))):
        at = world.region_id == region
        water[at] = draw(st.sampled_from([np.maximum(water[at], depth), depth, below]))
    world = dataclasses.replace(
        world, is_road=is_road, water_depth=water, road_runs=region_road_index(is_road, world.region_id, n)
    )
    seed, cycle = draw(st.integers(0, 2**31)), draw(st.integers(0, 50))
    verbs = draw(st.lists(st.sampled_from(list(Verb)), min_size=n, max_size=n))
    sampled = {region: HighLevelAction(verb, region) for region, verb in enumerate(verbs)}
    probs = {
        action: draw(probability_rows(first_draw(seed, cycle, action.region)))
        for action in sampled.values()
        if action.verb is not Verb.NOOP
    }
    start = draw(st.integers(0, 40))
    window = (start, start + draw(st.integers(0, 21)))
    return SimpleNamespace(
        sampled=sampled,
        worst=[per_region_worst(world, r) for r in range(n)],
        summary=summarize_world(world, "extreme", 0.0, depth, (), (0, 0, 0, 0), 0.7),
        probs=probs,
        seed=seed,
        cycle=cycle,
        window=window,
        world=world,
        depth=depth,
    )


@settings(deadline=None, max_examples=400)
@given(regional_cases())
def test_stage_calls_match_the_per_directive_chain(case):
    texts, instructions, reasons, rows = stage_pass(case)
    want_texts, want_instructions, want_reasons, want_rows = former_pass(case)
    assert texts == want_texts
    assert instructions == want_instructions
    assert reasons == want_reasons
    assert rows == want_rows


@settings(deadline=None, max_examples=200)
@given(regional_cases())
def test_the_accuracy_pass_over_the_summary_equals_the_world_pass(case):
    # every tag in every region, closures with and without a cell
    instructions = [
        Instruction(tag, region, cell, (), case.window)
        for region in range(len(case.sampled))
        for tag, cell in ((Tag.ROUTING, None), (Tag.OBSTACLE, None), (Tag.OBSTACLE, (0, 0)), (Tag.STOP, None))
    ]
    want = former_list_wrap_accuracy(instructions, case.world, case.depth)
    assert fb.wrap_accuracy(instructions, case.summary) == want


def test_cases_reach_every_verb_row_and_rejection():
    # the strategy is only a check if it reaches each case the docstring names
    seen: set[str] = set()

    @settings(deadline=None, max_examples=400, database=None, derandomize=True)
    @given(regional_cases())
    def collect(case):
        seen.update(a.verb.value for a in case.sampled.values())
        for action, row in case.probs.items():
            if row in ((1.0, 0.0), (0.0, 1.0)):
                seen.add(f"row {row}")
            if row[0] == first_draw(case.seed, case.cycle, action.region) and sum(row) == 1.0:
                seen.add("split at the draw")
        if (case.window[1] - case.window[0]) % 2:
            seen.add("odd span")
        texts, instructions, reasons, rows = former_pass(case)
        seen.update(re.sub(r"region \d+", "region r", reason) for reason in reasons)
        seen.update(r["status"] for r in rows)
        runs = case.world.road_runs
        for region in runs.regions:
            lowest = case.world.water_depth.take(runs.flat[runs.bounds[region] : runs.bounds[region + 1]]).min()
            if lowest == case.depth > 0:
                seen.add("flooded to exactly the blocking depth")
            if lowest == np.nextafter(case.depth, 0.0) and case.depth > 0:
                seen.add("flooded to one ulp below the blocking depth")

    collect()
    assert {v.value for v in Verb} <= seen
    assert {"row (1.0, 0.0)", "row (0.0, 1.0)", "split at the draw", "odd span", "accepted", "rejected"} <= seen
    assert {
        "no road cell in region r to anchor obstacle",
        "routing infeasible: region r has no road cells",
        "routing infeasible: region r fully flooded",
        "flooded to exactly the blocking depth",
        "flooded to one ulp below the blocking depth",
    } <= seen
