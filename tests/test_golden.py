"""Golden end-to-end runs: small configs whose artifacts must stay byte-identical.

Each run's `metrics.csv`, `cycles.csv`, `trips.csv`, `instructions.csv`,
`prompts.jsonl` and `summary.json` are hashed (sha256) and compared with
`tests/golden/digests.json`; so are the tables of one small matrix run and
the report written from them. The `external` run is answered by the
benchmark's loopback stub (`bench/stub.py`), so the wire protocol, the
answer parsing and the fallback on a 503 are pinned as well.
A change that moves a digest changes behaviour; re-baseline deliberately with

    PYTHONPATH=src python tests/test_golden.py

which prints one `run: artifact` line for each digest it changed, and
name the behaviour change, with its metric deltas, in CHANGES.md.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from stub import FAIL_EVERY, StubServer  # noqa: E402

from floodloop import harness  # noqa: E402
from floodloop.config import RunConfig  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
ARTIFACTS = ("metrics.csv", "cycles.csv", "trips.csv", "instructions.csv", "prompts.jsonl", "summary.json")

# name -> (strategy, ablations); all share the config in `golden_config`
RUNS = {
    "empty": ("empty", ()),
    "ruled": ("ruled", ()),
    "scripted": ("scripted", ()),
    "ruled-no-dual-indexing": ("ruled", ("dual_indexing",)),
    "ruled-no-entropy-control": ("ruled", ("entropy_control",)),
    "ruled-no-feedback-loop": ("ruled", ("feedback_loop",)),
}
# the same, on the config in `wet_config`
WET_RUNS = {
    "wet": ("ruled", ()),
    "wet-no-feedback-loop": ("ruled", ("feedback_loop",)),
}
# the external backend against the benchmark's loopback stub, on the
# config in `external_config`
EXTERNAL_RUN = "external"
# empty and ruled on `golden_config`, two repeats each: the matrix tables and its report
MATRIX_RUN = "matrix"
MATRIX_ARTIFACTS = ("comparison.csv", "semantic.csv", "report.md")


def golden_config(strategy: str, ablations: tuple[str, ...], out_dir: str) -> RunConfig:
    """32x32, 30 steps, extreme rain, seed 1: the ruled run closes a cell,
    adds routing penalties and holds buses, so every board effect reaches
    the agents."""
    cfg = RunConfig(seed=1, out_dir=out_dir, strategy=strategy, ablations=ablations, scenario="extreme", steps=30)
    cfg.world.width = cfg.world.height = 32
    cfg.world.n_regions = 16
    cfg.mobility.initial_population = 120
    cfg.mobility.initial_stagger = 15
    cfg.mobility.spawn_rate = 2
    cfg.mobility.n_pois = 12
    cfg.mobility.n_buses = 3
    cfg.heatmap_steps = (10,)
    return cfg


def wet_config(strategy: str, ablations: tuple[str, ...], out_dir: str) -> RunConfig:
    """`golden_config` on seed 2 with 64 regions, heavier inflow, a low
    trigger floor and 5-step cycles: the ruled run triggers replanning, so
    prompts carry failure feedback and flood-spot nodes, and routing into
    fully flooded regions is rejected."""
    cfg = golden_config(strategy, ablations, out_dir)
    cfg.seed = 2
    cfg.world.n_regions = 64
    cfg.world.inflow_coeff = 0.08
    cfg.feedback.trigger_floor = 0.002
    cfg.feedback.cycle_len = 5
    return cfg


def external_config(out_dir: str, endpoint: str) -> RunConfig:
    """`golden_config` with one-step cycles, as on the `dispatch` workload,
    and enough of them that the stub's deliberate 503 sends one cycle to
    the ruled fallback, probes included."""
    cfg = golden_config("external", (), out_dir)
    cfg.steps = FAIL_EVERY + 2
    cfg.feedback.cycle_len = 1
    cfg.external_endpoint = endpoint
    return cfg


@contextmanager
def loopback_stub():
    """The stub, served while the proxy environment bypasses loopback."""
    saved = {var: os.environ.get(var) for var in ("NO_PROXY", "no_proxy")}
    os.environ.update(dict.fromkeys(saved, "127.0.0.1,localhost"))
    try:
        with StubServer() as stub:
            yield stub
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_config(name: str, out_dir: str) -> RunConfig:
    if name in WET_RUNS:
        return wet_config(*WET_RUNS[name], out_dir)
    return golden_config(*RUNS[name], out_dir)


def run_digests(name: str, out_dir: Path) -> dict[str, str]:
    if name == MATRIX_RUN:
        harness.run_matrix(golden_config("ruled", (), str(out_dir)), ["empty", "ruled"], ["extreme"], 2)
        harness.write_report(out_dir, None)
        return {a: hashlib.sha256((out_dir / a).read_bytes()).hexdigest() for a in MATRIX_ARTIFACTS}
    if name == EXTERNAL_RUN:
        with loopback_stub() as stub:
            harness.run(external_config(str(out_dir), stub.endpoint))
    else:
        harness.run(run_config(name, str(out_dir)))
    return {a: hashlib.sha256((out_dir / a).read_bytes()).hexdigest() for a in ARTIFACTS}


ALL_RUNS = sorted([*RUNS, *WET_RUNS, EXTERNAL_RUN, MATRIX_RUN])


@pytest.mark.parametrize("name", ALL_RUNS)
def test_golden_digests(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_digests(name, tmp_path) == expected


def test_ruled_golden_run_exercises_closures_and_penalties(tmp_path):
    strategy, ablations = RUNS["ruled"]
    harness.run(golden_config(strategy, ablations, str(tmp_path)))
    with open(tmp_path / "instructions.csv", newline="") as fh:
        accepted = {row["tag"] for row in csv.DictReader(fh) if row["status"] == "accepted"}
    assert {"obstacle", "routing", "stop"} <= accepted


def test_wet_golden_run_triggers_and_rejects(tmp_path):
    harness.run(run_config("wet", str(tmp_path)))
    with open(tmp_path / "cycles.csv", newline="") as fh:
        assert any(row["triggered"] == "1" for row in csv.DictReader(fh))
    with open(tmp_path / "instructions.csv", newline="") as fh:
        assert any(row["status"] == "rejected" for row in csv.DictReader(fh))
    prompts = (tmp_path / "prompts.jsonl").read_text()
    assert "deviation_rms" in prompts and "floodspot:" in prompts


def test_external_golden_run_falls_back_once(tmp_path):
    with loopback_stub() as stub:
        harness.run(external_config(str(tmp_path), stub.endpoint))
    with open(tmp_path / "cycles.csv", newline="") as fh:
        backends = [row["backend"] for row in csv.DictReader(fh)]
    assert backends.count("ruled") == 1 and backends[FAIL_EVERY - 1] == "ruled"
    assert set(backends) == {"external", "ruled"}


def test_ruled_golden_csv_floats_parse(tmp_path):
    strategy, ablations = RUNS["ruled"]
    harness.run(golden_config(strategy, ablations, str(tmp_path)))
    for name, text_columns in (("metrics.csv", ()), ("cycles.csv", ("backend",))):
        with open(tmp_path / name, newline="") as fh:
            for row in csv.DictReader(fh):
                for column, cell in row.items():
                    if column not in text_columns and cell:
                        assert cell != "-0.0", (name, column)
                        float(cell)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digests(name, Path(tmp) / name) for name in ALL_RUNS}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name, artifacts in digests.items():
        for artifact, digest in artifacts.items():
            if old.get(name, {}).get(artifact) != digest:
                print(f"{name}: {artifact}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
