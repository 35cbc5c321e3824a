"""Which package functions the benchmark wraps, and the per-layer metrics
computed from their spans.

A layer is a `floodloop` module; a span is named `<layer>.<function>`.
Each function is patched where it is looked up (for example
`floodloop.engine:step_agent`, not `floodloop.mobility:step_agent`).
`EXPECTED` lists, per span, the workloads on which the traced run must
enter it; a span never entered there is an error, so a rename cannot
silently empty a layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from hostspeed import SpeedTimeline
from spans import Hook, SpanStats, Tracer

ALL = ("storm", "dispatch", "metro")

# (target, span name, workloads on which it must be entered)
TRACE_POINTS = (
    ("floodloop.harness:run", "harness.run", ALL),
    ("floodloop.harness:make_backend", "backends.make_backend", ALL),
    ("floodloop.harness:save_scenario", "world.save_scenario", ALL),
    ("floodloop.harness:scs", "semeval.scs", ALL),
    ("floodloop.harness:sds", "semeval.sds", ALL),
    ("floodloop.harness:save_density_dump", "heatmap.save_density_dump", ALL),
    ("floodloop.harness:write_heatmap", "heatmap.write_heatmap", ALL),
    ("floodloop.feedback:DecisionLoop.__init__", "feedback.loop_init", ALL),
    ("floodloop.feedback:DecisionLoop.run", "feedback.run", ALL),
    ("floodloop.feedback:DecisionLoop.run_cycle", "feedback.run_cycle", ALL),
    ("floodloop.feedback:aggregate", "feedback.aggregate", ALL),
    ("floodloop.feedback:should_replan", "feedback.should_replan", ALL),
    ("floodloop.feedback:trigger_replanning", "feedback.trigger_replanning", ()),
    ("floodloop.feedback:build_knowledge_context", "knowledge.build_context", ALL),
    ("floodloop.feedback:generate_scenario", "world.generate_scenario", ALL),
    ("floodloop.feedback:summarize_world", "state.summarize_world", ALL),
    ("floodloop.feedback:embed_state", "knowledge.embed_state", ALL),
    ("floodloop.feedback:retrieve_topk", "knowledge.retrieve_topk", ALL),
    ("floodloop.feedback:extract_subgraph", "knowledge.extract_subgraph", ()),
    ("floodloop.feedback:build_prompt", "knowledge.build_prompt", ALL),
    ("floodloop.feedback:update_graph", "knowledge.update_graph", ()),
    ("floodloop.knowledge:HashingEmbedder.embed", "knowledge.embed", ALL),
    ("floodloop.backends:RuledBackend.propose", "backends.RuledBackend.propose", ALL),
    ("floodloop.backends:ExternalBackend.propose", "backends.ExternalBackend.propose", ("dispatch",)),
    ("floodloop.feedback:generate_global", "policy.generate_global", ALL),
    ("floodloop.feedback:generate_regional", "policy.generate_regional", ALL),
    ("floodloop.feedback:local_distribution_for", "policy.local_distribution_for", ALL),
    ("floodloop.feedback:conditional_entropy", "policy.conditional_entropy", ALL),
    ("floodloop.feedback:translate", "translate.translate", ALL),
    ("floodloop.feedback:wrap_accuracy", "translate.wrap_accuracy", ALL),
    ("floodloop.feedback:flood_scores", "metrics.flood_scores", ALL),
    ("floodloop.feedback:execution_deviation", "metrics.execution_deviation", ALL),
    ("floodloop.engine:SimulationEngine.__init__", "engine.init", ALL),
    ("floodloop.engine:SimulationEngine.run_steps", "engine.run_steps", ALL),
    ("floodloop.engine:SimulationEngine.step", "engine.step", ALL),
    ("floodloop.engine:SimulationEngine.metrics_snapshot", "metrics.snapshot", ALL),
    ("floodloop.engine:build_world", "world.build_world", ALL),
    ("floodloop.engine:step_hydrology", "world.step_hydrology", ALL),
    ("floodloop.engine:default_pois", "mobility.default_pois", ALL),
    ("floodloop.engine:spawn_demand", "mobility.spawn_demand", ALL),
    ("floodloop.engine:make_bus", "mobility.make_bus", ALL),
    ("floodloop.engine:step_agent", "mobility.step_agent", ALL),
    ("floodloop.engine:aggregate_flows", "mobility.aggregate_flows", ALL),
    ("floodloop.mobility:plan_path", "mobility.plan_path", ALL),
    ("floodloop.mobility:reroute_bus", "mobility.reroute_bus", ()),
) + tuple(
    (f"floodloop.translate:InstructionBoard.{m}", f"translate.board.{m}", ALL)
    for m in ("dispatch", "closed_cells", "region_penalties", "bus_held", "drain_multipliers", "active_regions")
)

# the boundaries the untraced, timed runs wrap
TIMED_POINTS = ("feedback.loop_init", "feedback.run_cycle", "engine.run_steps", "engine.step")

EXPECTED = {name: set(where) for _, name, where in TRACE_POINTS}

LAYERS = (
    "world", "engine", "mobility", "metrics", "state", "knowledge", "backends",
    "policy", "translate", "feedback", "semeval", "harness", "heatmap",
)


class RunProbe:
    """Counts taken at span boundaries during one run, and host-speed
    samples before each step and cycle when a timeline is given."""

    def __init__(self, tracer: Tracer, timeline: SpeedTimeline | None = None):
        self.tracer = tracer
        self.timeline = timeline
        self.agent_steps = 0
        self.plans: list[tuple[int, tuple, tuple, int]] = []  # (step, origin, destination, cells or 0)

    def before_step(self, args) -> None:
        engine = args[0]
        # every agent that turned terminal was closed into the trip log exactly once
        self.agent_steps += len(engine.agents) - len(engine.trip_log.records)
        self.before_cycle(args)

    def before_cycle(self, args) -> None:
        if self.timeline is not None:
            self.timeline.sample()

    def record_plan(self, args, path) -> None:
        self.plans.append((self.tracer.entered["engine.step"], args[0], args[1], len(path) if path else 0))

    def hooks(self, names) -> list[Hook]:
        extra = {
            "engine.step": {"before": self.before_step},
            "feedback.run_cycle": {"before": self.before_cycle},
            "mobility.plan_path": {"after": self.record_plan},
        }
        return [Hook(target, name, **extra.get(name, {})) for target, name, _ in TRACE_POINTS if name in names]


def missing_spans(entered, workload: str) -> list[str]:
    return sorted(name for name, where in EXPECTED.items() if workload in where and not entered[name])


def layer_metrics(table: dict[str, SpanStats], probe: RunProbe, loop, summary: dict, wire_bytes_per_call: float) -> dict[str, float]:
    """Per-layer metrics of one traced run."""

    def t(*names, self_time=False):
        return sum((table[n].self_s if self_time else table[n].total_s) for n in names if n in table)

    def calls(*names):
        return sum(table[n].calls for n in names if n in table)

    board = [n for n in table if n.startswith("translate.board.")]
    m: dict[str, float] = {}
    m["world.hydrology_s"] = t("world.step_hydrology", self_time=True)
    m["world.hydrology_calls"] = calls("world.step_hydrology")
    m["engine.step_self_s"] = t("engine.step", self_time=True)

    plans = probe.plans
    per_step_dest = defaultdict(set)
    per_step_od = defaultdict(set)
    for step, origin, dest, _ in plans:
        per_step_dest[step].add(dest)
        per_step_od[step].add((origin, dest))
    found = [cells for *_, cells in plans if cells]
    n_plans = max(len(plans), 1)
    m["mobility.plan_path_calls"] = calls("mobility.plan_path")
    m["mobility.plan_path_s"] = t("mobility.plan_path", self_time=True)
    m["mobility.plan_path_found_ratio"] = len(found) / n_plans
    m["mobility.plan_path_dest_share"] = sum(len(s) for s in per_step_dest.values()) / n_plans
    m["mobility.plan_path_od_share"] = sum(len(s) for s in per_step_od.values()) / n_plans
    m["mobility.path_cells_mean"] = statistics.fmean(found) if found else 0.0
    m["mobility.step_agent_calls"] = calls("mobility.step_agent")
    m["mobility.step_agent_self_s"] = t("mobility.step_agent", self_time=True)
    m["mobility.spawn_self_s"] = t("mobility.spawn_demand", self_time=True)
    m["mobility.aggregate_flows_s"] = t("mobility.aggregate_flows", self_time=True)
    events = defaultdict(int)
    for record in loop.engine.step_records:
        for kind, count in record.events.items():
            events[kind] += count
    for kind in ("replanned", "blocked", "waited", "cancelled"):
        m[f"mobility.{kind}"] = events[kind]
    attempts = events["replanned"] + events["blocked"]
    m["mobility.replan_success_ratio"] = events["replanned"] / attempts if attempts else 0.0

    m["metrics.snapshot_s"] = t("metrics.snapshot", self_time=True)
    m["state.summarize_s"] = t("state.summarize_world")
    m["knowledge.retrieve_s"] = t("knowledge.embed_state", "knowledge.retrieve_topk")
    m["knowledge.subgraph_s"] = t("knowledge.extract_subgraph")
    m["knowledge.prompt_s"] = t("knowledge.build_prompt")
    m["knowledge.prompt_bytes"] = statistics.fmean(len(text.encode()) for _, text in loop.prompt_log)
    m["knowledge.embed_calls"] = calls("knowledge.embed")

    proposers = [n for n in table if n.startswith("backends.") and n.endswith(".propose")]
    m["backends.propose_calls"] = calls(*proposers)
    propose_ms = [d * 1e3 for n in proposers for d in probe.tracer.durations(n)]
    m["backends.propose_ms_p50"] = statistics.median(propose_ms)
    m["backends.fallback_ratio"] = summary["fallbacks"] / summary["cycles"]
    m["backends.wire_bytes_per_call"] = wire_bytes_per_call

    m["policy.global_s"] = t("policy.generate_global")
    m["policy.regional_s"] = t("policy.generate_regional")
    m["policy.local_s"] = t("policy.local_distribution_for")
    m["policy.cond_entropy_s"] = t("policy.conditional_entropy")

    m["translate.translate_s"] = t("translate.translate")
    m["translate.accuracy_s"] = t("translate.wrap_accuracy")
    m["translate.board_s"] = t(*board, self_time=True)
    m["translate.board_calls"] = calls(*board)
    b = loop.engine.board
    m["translate.board_size"] = sum(len(g) for g in (b.obstacles, b.routings, b.stops, b.reliefs, b.noops))
    statuses = [row["status"] for row in loop.instruction_rows]
    m["translate.accept_ratio"] = statuses.count("accepted") / len(statuses) if statuses else 0.0

    m["feedback.cycle_self_s"] = t("feedback.run_cycle", self_time=True)
    m["feedback.fold_s"] = t("feedback.aggregate")
    m["feedback.fold_calls"] = calls("feedback.aggregate")
    m["feedback.triggers"] = summary["triggers"]

    m["semeval.score_s"] = t("semeval.scs", "semeval.sds")
    m["harness.write_s"] = t("harness.run", self_time=True)
    m["heatmap.write_s"] = t("heatmap.save_density_dump", "heatmap.write_heatmap")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self_s for n, s in table.items() if n.split(".")[0] == layer)
    return m
