"""Decision-cycle orchestration, trigger logic, replanning feedback."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from floodloop import engine
from floodloop import feedback as fb
from floodloop import harness
from floodloop import metrics as m
from floodloop.backends import (
    BackendProposal,
    EmptyBackend,
    RuledBackend,
    ScriptedBackend,
    StrategyBackend,
    make_backend,
)
from floodloop.config import ENDPOINT_ENV_VAR, FeedbackConfig, PolicyConfig, RunConfig, WorldConfig
from floodloop.errors import BackendUnavailable, ConfigError
from floodloop.knowledge import Edge, EdgeType, KnowledgeGraph, Node, NodeType
from floodloop.mobility import Status
from floodloop.policy import HighLevelAction, PolicyDistribution, Verb
from floodloop.translate import _DIRECTIVE_TABLE, Tag
from floodloop.world import build_world
from test_golden import RUNS, WET_RUNS, run_config

SCORE_THRESHOLD = PolicyConfig().score_threshold
TRIGGER_FLOOR = FeedbackConfig().trigger_floor


def tiny_config(**kw):
    cfg = RunConfig(
        scenario=kw.pop("scenario", "light"),
        steps=kw.pop("steps", 30),
        seed=kw.pop("seed", 3),
        strategy=kw.pop("strategy", "empty"),
        out_dir="/tmp/unused",
        ablations=kw.pop("ablations", ()),
    )
    cfg.world.width = 16
    cfg.world.height = 16
    cfg.world.n_regions = 16
    cfg.mobility.initial_population = 20
    cfg.mobility.initial_stagger = 0
    cfg.mobility.spawn_rate = 0
    cfg.mobility.n_buses = 1
    cfg.mobility.n_pois = 6
    cfg.feedback.cycle_len = kw.pop("cycle_len", 10)
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


def make_loop(cfg, backend=None, fallback=None):
    return fb.DecisionLoop(cfg, backend or EmptyBackend(), fallback or RuledBackend(SCORE_THRESHOLD), None)


# --- aggregate --------------------------------------------------------------------

def test_aggregate_identity():
    acc: dict[str, int] = {}
    fb.aggregate(acc, {})
    assert acc == {}
    fb.aggregate(acc, {"advanced": 2, "waited": 1})
    fb.aggregate(acc, {})
    assert acc == {"advanced": 2, "waited": 1}


def test_aggregate_permutation_invariant():
    steps = [
        {"advanced": 1},
        {"cancelled": 1, "advanced": 1},
        {"waited": 1},
        {"advanced": 3, "replanned": 2},
    ]
    a: dict[str, int] = {}
    for events in steps:
        fb.aggregate(a, events)
    b: dict[str, int] = {}
    for events in reversed(steps):
        fb.aggregate(b, dict(reversed(list(events.items()))))
    assert a == b == {"advanced": 5, "cancelled": 1, "replanned": 2, "waited": 1}


def test_aggregate_counts_cancellations():
    acc: dict[str, int] = {}
    for _ in range(5):
        fb.aggregate(acc, {"cancelled": 1})
    assert acc["cancelled"] == 5
    fb.aggregate(acc, {"cancelled": 4})
    assert acc == {"cancelled": 9}


# --- should_replan ------------------------------------------------------------------

def window_from(js):
    window = m.FeedbackWindow(length=10)
    for j in js:
        window.push(j, window.gap_for(j))
    return window


def test_first_cycle_never_triggers():
    gap, delta, trig = fb.should_replan(m.FeedbackWindow(10), 0.9, TRIGGER_FLOOR)
    assert gap == 0.0
    assert delta == 0.015
    assert not trig


def test_trigger_on_large_gap():
    gap, delta, trig = fb.should_replan(window_from([0.40, 0.42]), 0.47, TRIGGER_FLOOR)
    assert gap == pytest.approx(0.07)
    assert trig


def test_new_best_never_triggers():
    gap, _, trig = fb.should_replan(window_from([0.40, 0.50]), 0.35, TRIGGER_FLOOR)
    assert gap < 0
    assert not trig


def test_should_replan_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        js = [float(v) for v in rng.uniform(0.2, 0.8, size=n)]
        window = m.FeedbackWindow(length=10)
        history = []
        gaps_hist = []
        for j in js:
            gap, delta, trig = fb.should_replan(window, j, TRIGGER_FLOOR)
            # brute force per the definitions
            gap_bf = j - min(history) if history else 0.0
            series = gaps_hist[-10:]
            if len(series) < 2:
                delta_bf = 0.015
            else:
                mu = float(np.mean(series))
                sd = float(np.std(series))
                delta_bf = max(mu + 1.0 * sd, 0.015)
            assert gap == pytest.approx(gap_bf, abs=1e-12)
            assert delta == pytest.approx(delta_bf, abs=1e-12)
            assert trig == (gap_bf >= delta_bf)
            window.push(j, gap)
            history.append(j)
            gaps_hist.append(gap_bf)


# --- trigger_replanning ----------------------------------------------------------------

def report_with(**kw):
    defaults = dict(
        cycle=2,
        snapshot=m.MetricsSnapshot(0.5, 0.505, 0.1, 0.6, 0.4, 29),
        gap=0.05,
        delta=0.015,
        triggered=True,
        delta_e=0.1581,
        planned={"f": 0.5, "t": 0.5, "c": 0.0, "r": 0.8},
        rejected_reasons=("routing infeasible: region 3 fully flooded",),
        backend_used="empty",
        fallback_used=False,
        h_raw=0.0,
        h_projected=0.0,
        h_conditional=0.0,
        lam=1.0,
        n_instructions=4,
        accumulator={},
        region_flood_end=(0.5, 0.95, 0.5, 0.5),
    )
    defaults.update(kw)
    return fb.CycleReport(**defaults)


def region_graph(n=4):
    g = KnowledgeGraph()
    for i in range(n):
        g.add_nodes((Node(f"region:{i}", NodeType.REGION, ()),))
    return g


def test_trigger_replanning_note_contents():
    g = region_graph()
    note, g2 = fb.trigger_replanning(report_with(), g)
    assert note.deviation_rms == pytest.approx(0.1581)
    assert dict(note.metric_deltas)["c"] == pytest.approx(0.1)
    assert set(note.degraded_metrics) == {"c", "r"}
    assert "routing infeasible" in note.rejected_reasons[0]


def test_trigger_replanning_adds_floodspot_idempotent():
    g = region_graph()
    _, g2 = fb.trigger_replanning(report_with(), g)
    assert "floodspot:1" in g2.nodes
    assert len(g2.nodes) == len(g.nodes) + 1
    _, g3 = fb.trigger_replanning(report_with(), g2)
    assert len(g3.nodes) == len(g2.nodes)
    assert len(g3.edges) == len(g2.edges)


def test_no_rejections_only_metric_deltas():
    g = region_graph()
    note, _ = fb.trigger_replanning(report_with(rejected_reasons=()), g)
    assert note.rejected_reasons == ()
    assert len(note.metric_deltas) == 4


# --- decision cycles -----------------------------------------------------------------------

def test_calm_cycle_empty_backend():
    # no rain, tiny trips that all finish inside the first cycle
    cfg = tiny_config(steps=30, cycle_len=10)
    cfg.world.inflow_coeff = 0.0
    cfg.mobility.n_buses = 0
    loop = make_loop(cfg)
    reports = loop.run()
    last = reports[-1]
    assert last.snapshot.c == 0.0
    assert last.snapshot.r == 1.0
    # calm world: f and t sit at the sigmoid center, so J = 0.3*f + 0.3*t
    assert last.snapshot.f == pytest.approx(0.5)
    assert last.snapshot.t == pytest.approx(0.5)
    assert last.snapshot.j == pytest.approx(0.3, abs=1e-9)


def test_cycle_reports_complete_and_deterministic():
    cfg = tiny_config(steps=30, strategy="scripted")
    script = [
        BackendProposal(
            PolicyDistribution(
                (
                    HighLevelAction(Verb.NOOP, 0),
                    HighLevelAction(Verb.DISPATCH_RELIEF, 3),
                    HighLevelAction(Verb.REROUTE_REGION, 5),
                ),
                (0.5, 0.25, 0.25),
            )
        )
    ]
    a = fb.DecisionLoop(tiny_config(steps=30), ScriptedBackend(script), RuledBackend(SCORE_THRESHOLD), None)
    b = fb.DecisionLoop(tiny_config(steps=30), ScriptedBackend(script), RuledBackend(SCORE_THRESHOLD), None)
    ra = a.run()
    rb = b.run()
    assert len(ra) == 3
    assert [r.snapshot for r in ra] == [r.snapshot for r in rb]
    assert a.instruction_rows == b.instruction_rows
    assert [t for _, t in a.prompt_log] == [t for _, t in b.prompt_log]


def test_partial_last_cycle_runs_every_step(tmp_path):
    cfg = tiny_config(steps=15, cycle_len=10, strategy="ruled")
    cfg.out_dir = str(tmp_path)
    result = harness.run(cfg, keep_loop=True)
    loop = result.loop
    assert len(loop.engine.step_records) == 15
    assert len(loop.reports) == 2
    assert result.summary["horizon_note"] == "15 steps in 2 cycles of 10"
    # each cycle's accumulator is the sum of its own steps' event counts
    for report, records in zip(loop.reports, (loop.engine.step_records[:10], loop.engine.step_records[10:])):
        expected: dict[str, int] = {}
        for record in records:
            for kind, count in record.events.items():
                expected[kind] = expected.get(kind, 0) + count
        assert report.accumulator == expected


class ExplodingBackend(StrategyBackend):
    name = "exploding"

    def propose(self, prompt, n_regions, tau, cycle):
        raise BackendUnavailable("synthetic outage")


@pytest.mark.parametrize("backend, refines", [(RuledBackend, True), (EmptyBackend, False)])
def test_only_regions_that_are_not_noop_are_refined_and_translated(monkeypatch, backend, refines):
    plans, entered = [], []
    generate_global = fb.generate_global

    stages = ("generate_regional", "translate", "wrap_accuracy")

    def recorded(*args, **kwargs):
        plans.append(generate_global(*args, **kwargs))
        entered.append({name: [] for name in stages})
        return plans[-1]

    monkeypatch.setattr(fb, "generate_global", recorded)
    for name in stages:

        def counted(items, *args, _name=name, _real=getattr(fb, name), **kwargs):
            entered[-1][_name].append(len(items))  # one entry per call: how many items it took
            return _real(items, *args, **kwargs)

        monkeypatch.setattr(fb, name, counted)
    cfg = tiny_config(steps=30, scenario="extreme")
    loop = fb.DecisionLoop(cfg, make_backend(backend.name, cfg), EmptyBackend(), None)
    loop.run()
    refined = [sum(a.verb is not Verb.NOOP for a in plan.sampled.values()) for plan in plans]
    assert (sum(refined) > 0) is refines
    assert sum(refined) < len(plans) * cfg.world.n_regions  # some sampled actions are NoOp
    # one call per stage per cycle, each over exactly the cycle's refined actions
    assert entered == [{name: [n] for name in stages} for n in refined]
    assert len(loop.diversity_sets) == len(plans) == 3
    assert all(len(vectors) == cfg.world.n_regions for vectors in loop.diversity_sets)


@pytest.mark.parametrize("name", sorted(RUNS | WET_RUNS))
def test_accuracy_pass_receives_windows_in_the_run_and_anchored_closures(monkeypatch, tmp_path, name):
    """Every instruction `wrap_accuracy` receives has its window inside the
    run and ending by the last step of the cycle that dispatches it, and a
    closure anchors on a road cell of its own region, or has no cell
    exactly when that region has no roads; so nothing is left to clip or
    snap, and no window is still in force when the next cycle summarizes
    its targeted regions."""
    received, calls, summarized = [], [], {}
    summarize_world, wrap_accuracy = fb.summarize_world, fb.wrap_accuracy

    def keep_world(world, *args):
        summarized[world.step] = world
        return summarize_world(world, *args)

    def spy(instructions, summary):
        calls.append(summary.step)
        received.extend((instr, summary.step, summarized[summary.step]) for instr in instructions)
        return wrap_accuracy(instructions, summary)

    monkeypatch.setattr(fb, "summarize_world", keep_world)
    monkeypatch.setattr(fb, "wrap_accuracy", spy)
    cfg = run_config(name, str(tmp_path))
    harness.run(cfg)
    # one call per cycle, at the cycle's first step
    assert calls == list(range(0, cfg.steps, cfg.feedback.cycle_len))
    assert received or cfg.strategy == "empty"
    for instr, step, world in received:
        assert 0 <= instr.window[0] <= instr.window[1] <= cfg.steps - 1
        # the dispatching cycle starts at the world's step and runs `cycle_len` steps
        assert instr.window[1] <= step + cfg.feedback.cycle_len - 1
        if instr.tag is Tag.OBSTACLE:
            rows, cols = np.nonzero((world.region_id == instr.region) & world.is_road)
            roads = set(zip(rows.tolist(), cols.tolist()))
            assert instr.cell in roads if instr.cell is not None else not roads


@pytest.mark.parametrize("name", sorted(RUNS | WET_RUNS))
def test_the_package_calls_meet_the_preconditions_its_callees_state(monkeypatch, tmp_path, name):
    """The callees state these preconditions and do not check them: every
    positive-mass action has a local entropy, every refined region is in
    range, every directive kind is in the table, both metric maps carry
    f, t, c and r, only a triggered report replans, demand comes from a
    nonempty POI set, only agents not yet terminal are stepped, and trip
    rates are asked for only once a trip was spawned."""
    cfg = run_config(name, str(tmp_path))
    preconditions = {
        (fb, "conditional_entropy"): lambda entropies, dist: all(
            a in entropies for a, q in zip(dist.support, dist.probs) if q > 0
        ),
        (fb, "generate_regional"): lambda actions, *_: all(0 <= a.region < cfg.world.n_regions for a in actions),
        (fb, "translate"): lambda directives, window: all(d.kind in _DIRECTIVE_TABLE for d in directives),
        (fb, "execution_deviation"): lambda planned, executed: set(planned) == set(executed) == set("ftcr"),
        (fb, "trigger_replanning"): lambda report, graph: report.triggered,
        (engine, "spawn_demand"): lambda pois, *_, **__: len(pois) > 0,
        (engine, "step_agent"): lambda agent, *_, **__: agent.status not in (Status.ARRIVED, Status.CANCELLED),
        (engine, "trip_rates"): lambda cancelled, on_time, spawned: spawned > 0,
    }
    calls: dict[str, int] = {}
    for (module, fn_name), holds in preconditions.items():

        def checked(*args, _real=getattr(module, fn_name), _name=fn_name, _holds=holds, **kwargs):
            assert _holds(*args, **kwargs), _name
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, fn_name, checked)
    harness.run(cfg)
    # the regional stages run once per cycle, over an empty list when every region is NoOp
    reached = {"conditional_entropy", "execution_deviation", "generate_regional", "translate"}
    reached |= {"spawn_demand", "step_agent", "trip_rates"}
    if name == "wet":
        reached.add("trigger_replanning")
    assert set(calls) == reached


def test_backend_failure_falls_back_and_completes():
    cfg = tiny_config(steps=20)
    loop = fb.DecisionLoop(cfg, ExplodingBackend(), EmptyBackend(), None)
    reports = loop.run()
    assert len(reports) == 2
    assert all(r.fallback_used for r in reports)
    assert all(r.backend_used == "empty" for r in reports)


def test_forced_trigger_injects_feedback_into_next_prompt():
    # script metrics degradation: run a loop, then force the window state
    cfg = tiny_config(steps=30)
    loop = make_loop(cfg)
    loop.run_cycle(0)
    # plant a deep historical best so the next cycle's gap crosses the floor
    loop.window.best_j = loop.window.best_j - 0.2
    report = loop.run_cycle(1)
    assert report.triggered
    assert loop.pending_feedback is not None
    report2 = loop.run_cycle(2)
    prompt_text = loop.prompt_log[-1][1]
    assert "deviation_rms" in prompt_text
    assert "## FEEDBACK\n(none)" not in prompt_text


def test_feedback_ablation_never_triggers():
    cfg = tiny_config(steps=30, ablations=("feedback_loop",))
    loop = make_loop(cfg)
    loop.run_cycle(0)
    loop.window.best_j = loop.window.best_j - 0.5
    report = loop.run_cycle(1)
    assert not report.triggered
    assert loop.pending_feedback is None


def test_entropy_chain_all_backends():
    for backend in (EmptyBackend(), RuledBackend(SCORE_THRESHOLD), ScriptedBackend([
        BackendProposal(PolicyDistribution(tuple(HighLevelAction(Verb.NOOP, i) for i in range(8)), (1.0 / 8,) * 8))
    ])):
        cfg = tiny_config(steps=20)
        loop = fb.DecisionLoop(cfg, backend, RuledBackend(SCORE_THRESHOLD), None)
        for report in loop.run():
            assert report.h_projected <= cfg.policy.tau + 1e-4
            assert report.h_conditional <= report.h_projected + 1e-6


def test_dual_indexing_ablation_empty_prompt_channels():
    cfg = tiny_config(steps=20, ablations=("dual_indexing",))
    loop = make_loop(cfg)
    loop.run()
    for _, text in loop.prompt_log:
        assert "## SUBGRAPH\n(none)" in text
        assert "## SEGMENTS\n(none)" in text


def test_deviation_matches_formula_on_logged_maps():
    cfg = tiny_config(steps=30)
    loop = make_loop(cfg)
    for report in loop.run():
        assert report.delta_e == pytest.approx(
            m.execution_deviation(report.planned, report.snapshot.as_map()), abs=1e-12
        )


def test_external_endpoint_required(monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    cfg = tiny_config(strategy="external")
    with pytest.raises(ConfigError, match="^external_endpoint: "):
        cfg.validate()


def former_default_graph(engine) -> KnowledgeGraph:
    """`feedback._default_graph` before it built from lists, kept verbatim as the oracle."""
    world = engine.world
    side = math.isqrt(world.n_regions)
    graph = KnowledgeGraph()
    road_counts = np.diff(world.road_runs.bounds)
    for region in range(world.n_regions):
        graph.add_nodes(
            (
                Node(
                    id=f"region:{region}",
                    type=NodeType.REGION,
                    attrs=(("road_cells", str(int(road_counts[region]))),),
                ),
            )
        )
    for region in range(world.n_regions):
        row, col = divmod(region, side)
        for dr, dc in ((0, 1), (1, 0)):
            nr, nc = row + dr, col + dc
            if nr < side and nc < side:
                other = nr * side + nc
                graph.add_edges((Edge(f"region:{region}", f"region:{other}", EdgeType.ADJACENT),))
    spacing = engine.config.world.road_spacing
    for kind, extent in (("row", world.height), ("col", world.width)):
        for idx in range(0, extent, spacing):
            road_id = f"road:{kind}:{idx}"
            graph.add_nodes((Node(id=road_id, type=NodeType.ROAD, attrs=((kind, str(idx)),)),))
            touched = (
                np.unique(world.region_id[idx, :]) if kind == "row" else np.unique(world.region_id[:, idx])
            )
            for region in touched:
                graph.add_edges((Edge(f"region:{int(region)}", road_id, EdgeType.CONTAINS),))
    return graph


@pytest.mark.parametrize(
    "width, height, n_regions, spacing", [(64, 64, 64, 4), (64, 64, 256, 4), (37, 21, 9, 5), (8, 30, 1, 1), (12, 12, 16, 7)]
)
def test_default_graph_equals_the_former_per_item_build(width, height, n_regions, spacing):
    world = build_world(WorldConfig(width, height, n_regions, road_spacing=spacing), 3)
    engine = SimpleNamespace(world=world, config=SimpleNamespace(world=SimpleNamespace(road_spacing=spacing)))
    got, expected = fb._default_graph(engine), former_default_graph(engine)
    assert list(got.nodes.items()) == list(expected.nodes.items())
    assert got.edges == expected.edges
    assert got._neighbors == expected._neighbors and got._out == expected._out
    assert got.render_index() == expected.render_index()
