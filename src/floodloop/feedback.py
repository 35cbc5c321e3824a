"""The closed decision loop: retrieve, generate, translate, execute,
evaluate, and replan when the objective degrades.

One cycle spans a fixed number of simulation steps. After execution the
scalar cost J is compared against the historical best; when the gap
crosses the adaptive threshold, the next cycle's prompt carries symbolic
failure feedback (deviation magnitude, degraded metrics, rejected
instructions) and badly flooded regions are written into the knowledge
graph as flood-spot nodes. Replanning always lands at the next cycle
boundary, never mid-cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .backends import BackendProposal, StrategyBackend
from .config import RunConfig
from .engine import SimulationEngine
from .errors import BackendUnavailable, ConfigError
from .knowledge import (
    EMBED_DIM,
    TOP_K,
    Edge,
    EdgeType,
    FeedbackNote,
    HashingEmbedder,
    HybridPrompt,
    KnowledgeGraph,
    Node,
    NodeType,
    SegmentStore,
    build_prompt,
    embed_state,
    extract_subgraph,
    load_graph,
    load_segments,
    retrieve_topk,
    update_graph,
)
from .metrics import (
    METRIC_NAMES,
    FeedbackWindow,
    MetricsSnapshot,
    adaptive_threshold,
    execution_deviation,
    flood_scores,
)
from .policy import (
    EntropyController,
    conditional_entropy,
    generate_global,
    generate_regional,
    local_distribution_for,
)
from .rng import pystream
from .state import StateSummary, summarize_world
from .translate import Instruction, Rejection, translate, wrap_accuracy
from .world import RainfallScenario, ScenarioKind, generate_scenario, load_scenario

FLOOD_SPOT_SCORE = 0.9
WINDOW_LENGTH = 10  # cycles of gaps the trigger threshold spans
DEGRADED_EPS = 0.01
CONSISTENCY_PROBES = 3


def aggregate(counts: dict[str, int], events: Mapping[str, int]) -> None:
    """Add one step's event counts (kind -> count) into `counts`; commutative."""
    for kind, count in events.items():
        counts[kind] = counts.get(kind, 0) + count


def should_replan(window: FeedbackWindow, j_now: float, floor: float) -> tuple[float, float, bool]:
    """(gap, threshold, triggered) for the current cycle; `floor` is
    `FeedbackConfig.trigger_floor`.

    The threshold statistics run over the window's gaps as they stood
    before this cycle, so the first cycle always sees the static floor and
    an empty history never triggers.
    """
    gap = window.gap_for(j_now)
    delta = adaptive_threshold(window.gaps, floor)
    return gap, delta, gap >= delta


@dataclass
class CycleReport:
    cycle: int
    snapshot: MetricsSnapshot
    gap: float
    delta: float
    triggered: bool
    delta_e: float
    planned: dict[str, float]
    rejected_reasons: tuple[str, ...]
    backend_used: str
    fallback_used: bool
    h_raw: float
    h_projected: float
    h_conditional: float
    lam: float
    n_instructions: int
    accumulator: dict[str, int]  # event kind -> count over the cycle's steps
    region_flood_end: tuple[float, ...]


def trigger_replanning(report: CycleReport, graph: KnowledgeGraph) -> tuple[FeedbackNote, KnowledgeGraph]:
    """Build the failure feedback for the next prompt and persist flood
    spots for badly flooded regions into the graph (idempotent); called
    only for a triggered cycle."""
    deltas = []
    degraded = []
    executed = report.snapshot.as_map()
    for name in METRIC_NAMES:
        d = executed[name] - report.planned[name]
        deltas.append((name, d))
        if name == "r":
            if d < -DEGRADED_EPS:
                degraded.append(name)
        elif d > DEGRADED_EPS:
            degraded.append(name)
    note = FeedbackNote(
        deviation_rms=report.delta_e,
        metric_deltas=tuple(deltas),
        degraded_metrics=tuple(degraded),
        rejected_reasons=report.rejected_reasons,
    )
    new_nodes = []
    new_edges = []
    for region, score in enumerate(report.region_flood_end):
        if score > FLOOD_SPOT_SCORE and f"region:{region}" in graph:
            spot_id = f"floodspot:{region}"
            new_nodes.append(Node(id=spot_id, type=NodeType.FLOOD_SPOT, attrs=(("region", str(region)),)))
            new_edges.append(Edge(src=spot_id, dst=f"region:{region}", type=EdgeType.RISKS))
    return note, update_graph(graph, new_nodes, new_edges)


# --- knowledge bootstrap ----------------------------------------------------

_SEGMENT_TEMPLATES = (
    "region {r} reported severe waterlogging near the junction during a past storm",
    "drainage crews deployed pumps in region {r} after standing water lingered",
    "bus services through region {r} were suspended when water depth rose",
    "residents detoured around flooded roads in region {r} during heavy rain",
)


def build_knowledge_context(engine: SimulationEngine, config: RunConfig) -> tuple[KnowledgeGraph, SegmentStore]:
    """The run's knowledge: its region/road graph and its store of
    historical log segments, each loaded from the config's file when it
    names one, else built from the world (the segments seeded by the
    config's seed)."""
    embedder = HashingEmbedder(EMBED_DIM)
    kc = config.knowledge
    if kc.graph_file:
        graph = load_graph(kc.graph_file)
    else:
        graph = _default_graph(engine)
    if kc.segments_file:
        store = load_segments(kc.segments_file, embedder)
    else:
        store = _default_segments(engine, embedder, config.seed)
    return graph, store


def _default_graph(engine: SimulationEngine) -> KnowledgeGraph:
    """Region nodes with their road-cell counts, each region adjacent to its
    right and lower neighbours, and one road node per road row and column
    that contains every region it crosses."""
    world = engine.world
    side = math.isqrt(world.n_regions)
    region_ids = [f"region:{region}" for region in range(world.n_regions)]
    graph = KnowledgeGraph()
    graph.add_nodes(
        Node(id=rid, type=NodeType.REGION, attrs=(("road_cells", str(count)),))
        for rid, count in zip(region_ids, np.diff(world.road_runs.bounds).tolist())
    )
    adjacent = []
    for region, rid in enumerate(region_ids):
        row, col = divmod(region, side)
        if col + 1 < side:
            adjacent.append(Edge(rid, region_ids[region + 1], EdgeType.ADJACENT))
        if row + 1 < side:
            adjacent.append(Edge(rid, region_ids[region + side], EdgeType.ADJACENT))
    graph.add_edges(adjacent)
    spacing = engine.config.world.road_spacing
    for kind, extent, lines in (
        ("row", world.height, world.region_id[::spacing, :]),
        ("col", world.width, world.region_id[:, ::spacing].T),
    ):
        indices = [str(idx) for idx in range(0, extent, spacing)]
        road_ids = [f"road:{kind}:{idx}" for idx in indices]
        graph.add_nodes(
            Node(id=road_id, type=NodeType.ROAD, attrs=((kind, idx),)) for road_id, idx in zip(road_ids, indices)
        )
        # crossed[i, r]: road line i crosses region r; its nonzeros run in road, then region order
        crossed = np.zeros((len(lines), world.n_regions), dtype=bool)
        crossed[np.arange(len(lines))[:, None], lines] = True
        line, region = np.nonzero(crossed)
        graph.add_edges(
            Edge(region_ids[r], road_ids[i], EdgeType.CONTAINS) for i, r in zip(line.tolist(), region.tolist())
        )
    return graph


def _default_segments(engine: SimulationEngine, embedder: HashingEmbedder, seed: int) -> SegmentStore:
    store = SegmentStore(embedder)
    rng = pystream(seed, "segments")
    store.extend(
        (f"seg:{region:03d}", rng.choice(_SEGMENT_TEMPLATES).format(r=region))
        for region in range(engine.world.n_regions)
    )
    return store


# --- the loop ---------------------------------------------------------------

def run_scenario(config: RunConfig) -> RainfallScenario:
    """The run's rainfall: the config's scenario file record, or else the
    curve generated for its kind, steps and seed. A record that covers
    fewer steps than the run, or of another kind, is a `ConfigError`."""
    if not config.scenario_file:
        return generate_scenario(ScenarioKind(config.scenario), config.steps, config.seed)
    scenario = load_scenario(config.scenario_file)
    if len(scenario.curve) < config.steps:
        # every step reads its rain from the curve: a short one would leave steps without rain
        raise ConfigError("scenario_file", f"curve covers {len(scenario.curve)} steps, the run needs {config.steps}")
    if scenario.kind.value != config.scenario:
        # the prompts, summary.json and config.json name the config's kind, not the curve's
        raise ConfigError("scenario_file", f"kind {scenario.kind.value}, but the run is {config.scenario}")
    return scenario


class DecisionLoop:
    """Owns one run: its rainfall (`run_scenario`), engine, controller,
    window, backends, and the run's knowledge graph and segment store
    (`graph`, `store`); a triggered cycle replaces `graph` with its updated
    copy.

    The config comes validated: `harness.run` checks it before it builds
    the backends and this loop."""

    def __init__(self, config: RunConfig, backend: StrategyBackend, fallback: StrategyBackend):
        self.config = config
        self.scenario = run_scenario(config)
        self.engine = SimulationEngine(config, self.scenario)
        self.backend = backend
        self.fallback = fallback
        self.controller = EntropyController(config.policy.tau)
        self.window = FeedbackWindow(WINDOW_LENGTH)
        self.graph, self.store = build_knowledge_context(self.engine, config)
        self.pending_feedback: FeedbackNote | None = None
        self.reports: list[CycleReport] = []
        self.prompt_log: list[tuple[int, str]] = []
        self.instruction_rows: list[dict] = []
        # one tuple of response embeddings per cycle, for `scs` and `sds`
        self.consistency_sets: list[tuple[np.ndarray, ...]] = []
        self.diversity_sets: list[tuple[np.ndarray, ...]] = []
        self._prev_snapshot = self.engine.metrics_snapshot()

    @property
    def n_cycles(self) -> int:
        return -(-self.config.steps // self.config.feedback.cycle_len)

    @cached_property
    def _noop_vectors(self) -> tuple[np.ndarray, ...]:
        """Each region's NoOp text embedded, in region order: the start of
        every cycle's diversity set, embedded at the first cycle and kept."""
        texts = [f"noop region={region}" for region in range(self.config.world.n_regions)]
        return tuple(self.store.embedder.embed_many(texts))

    def ablated(self, name: str) -> bool:
        return name in self.config.ablations

    def run(self) -> list[CycleReport]:
        for cycle in range(self.n_cycles):
            self.run_cycle(cycle)
        return self.reports

    def run_cycle(self, cycle: int) -> CycleReport:
        """One full pass: retrieval -> generation -> translation ->
        execution -> evaluation -> (conditional) replanning.

        The decide stages see the world only through the cycle's
        `StateSummary`, taken once at its first step; the world is read
        again only after execution, for `region_flood_end`. The regional
        pass is one call per stage over the cycle's sampled actions, the
        regions that act, in region order: `generate_regional` draws their
        directives, anchoring closures on the summary's worst road cells,
        `translate` turns them into instructions, and `wrap_accuracy`
        passes each instruction or rejects it by the summary's road counts.
        """
        cfg = self.config
        eng = self.engine
        summary = self._summarize()
        start = summary.step
        end = min(start + cfg.feedback.cycle_len, cfg.steps) - 1
        prompt = self._build_prompt(summary)
        self.prompt_log.append((cycle, prompt.text))

        proposal, backend_used, fallback_used = self._propose(prompt, cycle)

        entropy_on = not self.ablated("entropy_control")
        plan = generate_global(proposal.distribution, self.controller, cfg.seed, cycle, entropy_on)
        cap = min(plan.h_projected, self.controller.tau) if entropy_on else math.inf
        local = local_distribution_for(
            plan.projected, summary.region_flood, summary.region_congestion, summary.region_blocked_roads, cap
        )
        h_cond = conditional_entropy(local.entropies, plan.projected)

        directives = generate_regional(plan.sampled, summary.region_worst_road, local.probs, cfg.seed, cycle)
        instructions: list[Instruction] = []
        rejections: list[Rejection] = []
        for wrapped in wrap_accuracy(translate(directives, (start, end)), summary):
            if isinstance(wrapped, Rejection):
                rejections.append(wrapped)
                self._log_instruction(cycle, wrapped.instruction, "rejected", wrapped.reason)
            else:
                instructions.append(wrapped)
                self._log_instruction(cycle, wrapped, "accepted", "")
        # the cycle's diversity set, in region order: a region's directive, or its NoOp
        vectors = list(self._noop_vectors)
        for d in directives:
            vectors[d.region] = self.store.embedder.embed(d.text())
        self.diversity_sets.append(tuple(vectors))
        eng.board.dispatch(instructions)

        records = eng.run_steps(end - start + 1)
        executed = records[-1].snapshot

        planned = dict(proposal.planned_metrics) if proposal.planned_metrics else self._prev_snapshot.as_map()
        delta_e = execution_deviation(planned, executed.as_map())

        feedback_on = not self.ablated("feedback_loop")
        gap, delta, crossed = should_replan(self.window, executed.j, cfg.feedback.trigger_floor)
        triggered = bool(feedback_on and crossed)
        self.window.push(executed.j, gap)

        acc: dict[str, int] = {}
        for record in records:
            aggregate(acc, record.events)

        report = CycleReport(
            cycle=cycle,
            snapshot=executed,
            gap=gap,
            delta=delta,
            triggered=triggered,
            delta_e=delta_e,
            planned=planned,
            rejected_reasons=tuple(r.reason for r in rejections),
            backend_used=backend_used,
            fallback_used=fallback_used,
            h_raw=plan.h_raw,
            h_projected=plan.h_projected,
            h_conditional=h_cond,
            lam=self.controller.lam,
            n_instructions=len(instructions),
            accumulator=acc,
            region_flood_end=tuple(flood_scores(eng.world).tolist()),
        )
        self.reports.append(report)
        self._prev_snapshot = executed
        if triggered:
            note, self.graph = trigger_replanning(report, self.graph)
            self.pending_feedback = note
        else:
            self.pending_feedback = None
        return report

    # --- helpers -----------------------------------------------------------

    def _summarize(self) -> StateSummary:
        eng = self.engine
        return summarize_world(
            eng.world,
            self.config.scenario,
            eng.current_intensity(),
            self.config.mobility.resident_block_depth,
            eng.board.active_regions(eng.world.step),
            eng.trip_counts(),
            self.config.policy.score_threshold,
        )

    def _build_prompt(self, summary: StateSummary) -> HybridPrompt:
        """The cycle's prompt; under the `dual_indexing` ablation both
        knowledge channels stay empty. `pending_feedback` is None under the
        `feedback_loop` ablation, since no cycle triggers there."""
        segments, keep = [], set()
        if not self.ablated("dual_indexing"):
            segments = retrieve_topk(embed_state(summary.text, self.store.embedder), self.store, TOP_K)
            keep = extract_subgraph(self.graph, summary.seed_region_ids(), self.config.knowledge.subgraph_hops)
        return build_prompt(summary, self.graph, segments, self.pending_feedback, keep)

    def _propose(self, prompt: HybridPrompt, cycle: int) -> tuple[BackendProposal, str, bool]:
        """The cycle's proposal, its backend's name, and whether that is the
        fallback. The backend is asked the same prompt `CONSISTENCY_PROBES`
        times: the first answer is the proposal, the fallback's when the
        backend fails, and a failed later probe counts as the proposal. The
        answers, serialized and embedded, are the cycle's consistency set."""
        args = (prompt, self.config.world.n_regions, self.controller.tau, cycle)
        proposals: list[BackendProposal] = []
        fallback_used = False
        for _ in range(CONSISTENCY_PROBES):
            try:
                proposals.append(self.backend.propose(*args))
            except BackendUnavailable:
                if proposals:
                    proposals.append(proposals[0])
                else:
                    fallback_used = True
                    proposals.append(self.fallback.propose(*args))
        # a backend that memoises its answer returns the same object again
        texts: dict[int, str] = {}
        for p in proposals:
            if id(p) not in texts:
                texts[id(p)] = _proposal_text(p)
        self.consistency_sets.append(tuple(self.store.embedder.embed(texts[id(p)]) for p in proposals))
        return proposals[0], (self.fallback if fallback_used else self.backend).name, fallback_used

    def _log_instruction(self, cycle: int, instr: Instruction, status: str, reason: str) -> None:
        self.instruction_rows.append(
            {
                "cycle": cycle,
                "region": instr.region,
                "tag": instr.tag.value,
                "anchor": "" if instr.cell is None else f"{instr.cell[0]}:{instr.cell[1]}",
                "window_start": instr.window[0],
                "window_end": instr.window[1],
                "status": status,
                "reason": reason,
            }
        )


def _proposal_text(proposal: BackendProposal) -> str:
    """Serialize a proposal for embedding: top actions with probabilities."""
    pairs = sorted(
        zip(proposal.distribution.support, proposal.distribution.probs),
        key=lambda ap: (-ap[1], ap[0].verb.value, ap[0].region),
    )[:16]
    return " ".join(f"{a.key()} p={p:.4f}" for a, p in pairs)
