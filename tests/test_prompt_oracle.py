"""The decision loop's prompt step against the one it replaced.

The oracle below is the former prompt step, kept verbatim: the
`HybridPrompt` that stored each section and rendered its text on first
use, the renderers it called, the `build_prompt` that took the state text
and a task, the `extract_subgraph` that raised `EmptySeed` when no seed
was present, and `DecisionLoop._build_prompt`, which caught it and then
passed no graph. Over random summaries, graphs, hop counts, segment
stores, feedback and ablations, the prompt built now must carry the same
text, byte for byte, and the same feedback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import AbstractSet, Sequence

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop.config import ABLATIONS, KnowledgeConfig, RunConfig
from floodloop.feedback import DecisionLoop
from floodloop.knowledge import (
    EMBED_DIM,
    TOP_K,
    Edge,
    EdgeType,
    FeedbackNote,
    HashingEmbedder,
    KnowledgeGraph,
    Node,
    NodeType,
    Segment,
    SegmentStore,
    embed_state,
    retrieve_topk,
)
from floodloop.state import StateSummary

# --- the former prompt step, verbatim ------------------------------------------

TASK_DIRECTIVE = (
    "Coordinate flood dispatch for the coming cycle: lower flood exposure and "
    "congestion, avoid trip cancellations, and keep arrivals on time."
)


class EmptySeed(Exception):
    """Subgraph extraction found no seed nodes in the state summary."""


def extract_subgraph(graph: KnowledgeGraph, seed_ids: Sequence[str], hops: int) -> set[str]:
    seeds = [s for s in seed_ids if s in graph.nodes]
    if not seeds:
        raise EmptySeed("no seed nodes present in the graph")
    retained = set(seeds)
    frontier = set(seeds)
    for _ in range(hops):
        nxt = set()
        for nid in frontier:
            nxt |= graph.neighbors(nid) - retained
        retained |= nxt
        frontier = nxt
        if not frontier:
            break
    return retained


@dataclass(frozen=True)
class HybridPrompt:
    state_text: str
    subgraph_text: str
    segments_text: str
    task: str
    feedback: FeedbackNote | None
    summary: object = field(compare=False)

    @cached_property
    def text(self) -> str:
        parts = [
            "## STATE",
            self.state_text,
            "## SUBGRAPH",
            self.subgraph_text,
            "## SEGMENTS",
            self.segments_text,
            "## TASK",
            self.task,
            "## FEEDBACK",
            _render_feedback(self.feedback),
        ]
        return "\n".join(parts) + "\n"


def _render_feedback(note: FeedbackNote | None) -> str:
    if note is None:
        return "(none)"
    lines = [f"deviation_rms: {note.deviation_rms:.6f}"]
    deltas = " ".join(f"{k}={v:+.6f}" for k, v in note.metric_deltas)
    lines.append(f"metric_deltas: {deltas if deltas else '(none)'}")
    lines.append(f"degraded_metrics: {', '.join(note.degraded_metrics) if note.degraded_metrics else '(none)'}")
    if note.rejected_reasons:
        lines.append("rejected_instructions:")
        lines.extend(f"  - {r}" for r in note.rejected_reasons)
    else:
        lines.append("rejected_instructions: (none)")
    return "\n".join(lines)


def render_subgraph(graph: KnowledgeGraph | None, keep: AbstractSet[str] | None) -> str:
    if not keep:
        return "(none)"
    index = graph.render_index()
    rendered = [index[nid] for nid in sorted(keep)]
    nodes = "\n".join(line for line, _ in rendered)
    edges = "\n".join(line for _, edge_lines in rendered for dst, line in edge_lines if dst in keep)
    return f"{nodes}\n{edges}" if edges else nodes


def render_segments(segments: Sequence[tuple[Segment, float]]) -> str:
    if not segments:
        return "(none)"
    return "\n".join(f"[{seg.id}] (sim={sim:.4f}) {seg.text}" for seg, sim in segments)


def build_prompt(state_text, graph, segments, task, feedback, summary, keep) -> HybridPrompt:
    return HybridPrompt(
        state_text=state_text if state_text.strip() else "(none)",
        subgraph_text=render_subgraph(graph, keep),
        segments_text=render_segments(segments),
        task=task,
        feedback=feedback,
        summary=summary,
    )


def _build_prompt(self, summary: StateSummary) -> HybridPrompt:
    feedback_note = self.pending_feedback if not self.ablated("feedback_loop") else None
    if self.ablated("dual_indexing"):
        return build_prompt(summary.text, None, [], TASK_DIRECTIVE, feedback_note, summary, None)
    query = embed_state(summary.text, self.knowledge.embedder)
    segments = retrieve_topk(query, self.knowledge.store, TOP_K)
    seeds = summary.seed_region_ids()
    graph = keep = None
    if seeds:
        try:
            keep = extract_subgraph(self.knowledge.graph, seeds, self.config.knowledge.subgraph_hops)
            graph = self.knowledge.graph
        except EmptySeed:
            pass
    return build_prompt(summary.text, graph, segments, TASK_DIRECTIVE, feedback_note, summary, keep)


# --- cases ------------------------------------------------------------------------

WORDS = ["region", "flood", "pump", "bus", "detour", "7", "3"]
REASONS = ["routing infeasible: region 3 fully flooded", "anchor cell outside the region"]


@st.composite
def summaries(draw):
    n = draw(st.integers(1, 6))
    regions = st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(lambda ids: tuple(sorted(ids)))
    return StateSummary(
        step=draw(st.integers(0, 99)),
        scenario_kind=draw(st.sampled_from(["extreme", "intermittent", "light"])),
        intensity=draw(st.floats(0.0, 1.0)),
        region_flood=(0.5,) * n,
        region_congestion=(0.5,) * n,
        region_max_depth=tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))),
        region_blocked_roads=tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))),
        region_road_cells=(9,) * n,
        region_worst_road=((0, 0),) * n,
        blocking_depth=0.3,
        flooded_regions=draw(regions),
        congested_regions=draw(regions),
        targeted_regions=draw(regions),
        spawned=draw(st.integers(0, 50)),
        arrived=draw(st.integers(0, 50)),
        cancelled=draw(st.integers(0, 50)),
        enroute=draw(st.integers(0, 50)),
    )


@st.composite
def graphs(draw, n_regions: int):
    """Region nodes for any subset of the summary's regions, so none, some
    or all of its seeds are present, plus roads, spots and random edges."""
    g = KnowledgeGraph()
    present = draw(st.lists(st.integers(0, n_regions - 1), unique=True, max_size=n_regions))
    others = draw(st.lists(st.sampled_from(["road:row:0", "road:col:4", "floodspot:2"]), unique=True))
    ids = [f"region:{r}" for r in present] + others
    for nid in ids:
        g.add_nodes((Node(nid, draw(st.sampled_from(list(NodeType))), (("label", nid),)),))
    if ids:
        edge = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(list(EdgeType)))
        for src, dst, etype in draw(st.lists(edge, max_size=12)):
            g.add_edges((Edge(src, dst, etype),))
    return g


feedback_notes = st.one_of(
    st.none(),
    st.builds(
        FeedbackNote,
        st.floats(0.0, 1.0),
        st.lists(st.tuples(st.sampled_from("ftcr"), st.floats(-1.0, 1.0)), max_size=4).map(tuple),
        st.lists(st.sampled_from("ftcr"), unique=True).map(tuple),
        st.lists(st.sampled_from(REASONS), max_size=3).map(tuple),
    ),
)


@st.composite
def prompt_cases(draw):
    summary = draw(summaries())
    graph = draw(graphs(len(summary.region_flood)))
    store = SegmentStore(HashingEmbedder(EMBED_DIM))
    texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join)
    for i, text in enumerate(draw(st.lists(texts, max_size=TOP_K + 2))):
        store.extend([(f"seg:{i:03d}", text)])
    ablations = tuple(draw(st.lists(st.sampled_from(ABLATIONS), unique=True)))
    # under the feedback_loop ablation no cycle triggers, so none is pending
    pending = None if "feedback_loop" in ablations else draw(feedback_notes)
    loop = DecisionLoop.__new__(DecisionLoop)
    loop.config = RunConfig(ablations=ablations, knowledge=KnowledgeConfig(subgraph_hops=draw(st.integers(0, 2))))
    loop.graph, loop.store = graph, store
    loop.pending_feedback = pending
    return loop, summary


def former_prompt(loop: DecisionLoop, summary: StateSummary) -> HybridPrompt:
    graph, store = loop.graph, loop.store
    former = SimpleNamespace(
        config=loop.config,
        knowledge=SimpleNamespace(graph=graph, store=store, embedder=store.embedder),
        pending_feedback=loop.pending_feedback,
        ablated=loop.ablated,
    )
    return _build_prompt(former, summary)


@settings(deadline=None, max_examples=400)
@given(prompt_cases())
def test_prompt_matches_the_former_prompt_step(case):
    loop, summary = case
    got = loop._build_prompt(summary)
    want = former_prompt(loop, summary)
    assert got.text.encode() == want.text.encode()
    assert got.feedback == want.feedback
    assert got.summary is summary


def test_cases_reach_every_channel_state():
    # the strategy is only a check if it reaches each state of each channel
    seen: set[str] = set()

    @settings(deadline=None, max_examples=400, database=None, derandomize=True)
    @given(prompt_cases())
    def collect(case):
        loop, summary = case
        seeds = summary.seed_region_ids()
        present = [s for s in seeds if s in loop.graph]
        seen.add("no seeds" if not seeds else "no seed present" if not present else
                 "all seeds present" if len(present) == len(seeds) else "some seeds present")
        seen.add(f"hops {loop.config.knowledge.subgraph_hops}")
        seen.add(f"segments {min(len(loop.store), TOP_K)}")
        note = loop.pending_feedback
        seen.add("no feedback" if note is None else "rejections" if note.rejected_reasons else "feedback")
        seen.update(loop.config.ablations)
        seen.update(kind for kind in ("flooded", "congested", "targeted") if getattr(summary, f"{kind}_regions"))

    collect()
    assert {"no seeds", "no seed present", "some seeds present", "all seeds present"} <= seen
    assert {"hops 0", "hops 1", "hops 2", "segments 0", f"segments {TOP_K}"} <= seen
    assert {"no feedback", "feedback", "rejections", "flooded", "congested", "targeted", *ABLATIONS} <= seen
