"""The benchmark's trace points still name live package functions.

`bench/layers.py` wraps package functions where they are looked up and
fails a traced run when a span it expects is never entered, or when the
agents it counts before each step differ from the `step_agent` calls.
These tests catch a package change that would break either guard,
without running the benchmark itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from layers import TRACE_POINTS, RunProbe, missing_spans  # noqa: E402
from spans import Hook, Tracer  # noqa: E402
from test_golden import RUNS, external_config, golden_config, loopback_stub  # noqa: E402

from floodloop import harness  # noqa: E402


def test_every_trace_point_resolves():
    unresolved = []
    for target, _, _ in TRACE_POINTS:
        try:
            owner, attr = Hook(target, "contract").resolve()
            if not callable(getattr(owner, attr)):
                unresolved.append(target)
        except (ImportError, AttributeError):
            unresolved.append(target)
    assert unresolved == []


def test_golden_ruled_run_enters_every_span_expected_on_storm(tmp_path):
    strategy, ablations = RUNS["ruled"]
    with Tracer() as tracer:
        tracer.install([Hook(target, name) for target, name, _ in TRACE_POINTS])
        harness.run(golden_config(strategy, ablations, str(tmp_path)))
    assert missing_spans(tracer.entered, "storm") == []


def test_external_run_against_the_stub_enters_every_span_expected_on_dispatch(tmp_path):
    with loopback_stub() as stub, Tracer() as tracer:
        tracer.install([Hook(target, name) for target, name, _ in TRACE_POINTS])
        harness.run(external_config(str(tmp_path), stub.endpoint))
    assert missing_spans(tracer.entered, "dispatch") == []


def traced_agent_steps(run) -> tuple[int, int]:
    """(agents counted before each step, `step_agent` calls) of one run
    under every trace point, as `bench/run.py --trace 1` takes them."""
    with Tracer() as tracer:
        probe = RunProbe(tracer)
        tracer.install(probe.hooks([name for _, name, _ in TRACE_POINTS]))
        run()
    return probe.agent_steps, tracer.entered["mobility.step_agent"]


def test_golden_ruled_run_steps_each_counted_agent_once(tmp_path):
    counted, calls = traced_agent_steps(lambda: harness.run(golden_config(*RUNS["ruled"], str(tmp_path))))
    assert counted == calls > 0


def test_external_run_steps_each_counted_agent_once(tmp_path):
    with loopback_stub() as stub:
        counted, calls = traced_agent_steps(lambda: harness.run(external_config(str(tmp_path), stub.endpoint)))
    assert counted == calls > 0
