"""The benchmark's trace points still name live package functions.

`bench/layers.py` wraps package functions where they are looked up and
fails a traced run when a span it expects is never entered. These tests
catch a rename or deletion in the package that would break that, without
running the benchmark itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from layers import TRACE_POINTS, missing_spans  # noqa: E402
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
