"""The strategy x scenario matrix and the ablation suite."""

from __future__ import annotations

import csv
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from floodloop import cli, harness
from floodloop.config import ABLATIONS, ENDPOINT_ENV_VAR, RunConfig
from floodloop.errors import ConfigError
from floodloop.metrics import METRIC_NAMES, run_stability
from floodloop.world import ScenarioKind, generate_scenario, save_scenario


def tiny_matrix_config(out_dir: str, workers: int) -> RunConfig:
    cfg = RunConfig(seed=5, steps=10, out_dir=out_dir, workers=workers)
    cfg.world.width = cfg.world.height = 16
    cfg.world.n_regions = 4
    cfg.mobility.initial_population = 20
    cfg.mobility.spawn_rate = 1
    cfg.mobility.n_pois = 6
    cfg.mobility.n_buses = 1
    cfg.feedback.cycle_len = 5
    return cfg


def test_matrix_summaries_do_not_depend_on_workers(tmp_path):
    results = {}
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        harness.run_matrix(tiny_matrix_config(str(out), workers), ["empty", "ruled"], ["extreme"], repeats=2)
        cells = {p.parent.name: json.loads(p.read_text()) for p in sorted(out.glob("*/summary.json"))}
        results[workers] = ((out / "comparison.csv").read_bytes(), cells)
    comparison, cells = results[1]
    assert len(cells) == 4
    assert results[2] == (comparison, cells)


def written(out: Path) -> dict[str, bytes]:
    """Every file under `out`, by its path relative to `out`."""
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def test_ablation_suite_does_not_depend_on_workers(tmp_path):
    out = tmp_path / "ablate"
    files = {}
    for workers in (1, 2):
        report = harness.run_ablation_suite(tiny_matrix_config(str(out), workers))
        assert sorted(report["changed_files"]) == sorted(ABLATIONS)
        files[workers] = written(out)
        shutil.rmtree(out)
    assert {name.split("/")[0] for name in files[1]} == {"ablation_report.json", "full", *ABLATIONS}
    assert files[1].keys() == files[2].keys()
    for name, content in files[1].items():
        if name.endswith("config.json"):
            # each run records the config it ran, worker count included
            assert json.loads(content) | {"workers": 2} == json.loads(files[2][name])
        else:
            assert content == files[2][name], name


def test_a_matrix_with_a_variant_that_cannot_run_writes_nothing(tmp_path, monkeypatch):
    # the external variant is rejected before the ruled one, listed first, runs
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    out = tmp_path / "matrix"
    with pytest.raises(ConfigError, match="^external_endpoint: external strategy needs an endpoint") as failure:
        harness.run_matrix(tiny_matrix_config(str(out), workers=2), ["ruled", "external"], ["light"], repeats=1)
    assert failure.value.field == "external_endpoint"
    # not even the ruled run's directory
    assert not out.exists()


def test_a_matrix_cli_run_that_cannot_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "matrix"
    assert cli.main(["matrix", "--steps", "9", "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "ConfigError", "message": "steps: must be in [10, inf], got 9"}
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_matrix_with_a_scenario_file_that_fits_one_variant_writes_nothing(tmp_path, capsys, workers):
    # the light record would replay under the light run, listed first, but the extreme run rejects it
    scenario = tmp_path / "light.json"
    save_scenario(scenario, generate_scenario(ScenarioKind.LIGHT, 10, 0))
    out = tmp_path / "out"
    argv = ["matrix", "--steps", "10", "--strategies", "empty", "--scenarios", "light", "extreme", "--repeats", "1"]
    assert cli.main([*argv, "--scenario-file", str(scenario), "--out", str(out), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ConfigError", "message": "scenario_file: kind light, but the run is extreme"}
    assert not out.exists()


@pytest.mark.parametrize(
    "strategies, scenarios, message",
    [
        (["ruled", "ruled"], ["extreme"], "strategy 'ruled' is listed more than once"),
        (["empty", "ruled"], ["light", "extreme", "light"], "scenario 'light' is listed more than once"),
    ],
    ids=["strategy", "scenario"],
)
def test_a_matrix_rejects_a_repeated_strategy_or_scenario_before_any_run(tmp_path, strategies, scenarios, message):
    # the runs of a repeated entry would share their directories
    out = tmp_path / "matrix"
    with pytest.raises(ValueError, match=f"^{message}$"):
        harness.run_matrix(tiny_matrix_config(str(out), workers=1), strategies, scenarios, repeats=2)
    assert not out.exists()


def test_a_config_error_survives_a_pickle_round_trip():
    # a worker process hands its error back to the pool pickled
    back = pickle.loads(pickle.dumps(ConfigError("steps", "must be in [10, inf], got 9")))
    assert type(back) is ConfigError
    assert back.field == "steps"
    assert back.args == ("steps", "must be in [10, inf], got 9")
    assert str(back) == "steps: must be in [10, inf], got 9"


def test_a_config_error_raised_in_a_worker_process_reaches_the_caller(tmp_path, monkeypatch):
    # the launcher reads every variant's scenario file before any run starts; with that read
    # skipped here, the run's own read rejects the file, in a worker process
    monkeypatch.setattr(harness, "run_scenario", lambda config: None)
    scenario = tmp_path / "scenario.json"
    save_scenario(scenario, generate_scenario(ScenarioKind.LIGHT, 10, 0))
    cfg = tiny_matrix_config(str(tmp_path / "matrix"), workers=2)
    cfg.steps, cfg.scenario_file = 11, str(scenario)
    with pytest.raises(ConfigError, match="^scenario_file: curve covers 10 steps, the run needs 11$"):
        harness.run_matrix(cfg, ["empty", "ruled"], ["light"], repeats=1)


def test_run_validates_its_config_once(tmp_path, monkeypatch):
    calls = []
    validate = RunConfig.validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(RunConfig, "validate", counted)
    harness.run(tiny_matrix_config(str(tmp_path), workers=1))
    assert len(calls) == 1


def test_one_region_runs_complete_with_sds_undefined(tmp_path):
    # diversity is measured across regions, so one region leaves it undefined
    cfg = tiny_matrix_config(str(tmp_path), workers=1)
    cfg.world.n_regions = 1
    cfg.steps = 20
    harness.run_matrix(cfg, ["ruled"], ["extreme"], repeats=2)
    summaries = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*/summary.json"))]
    assert len(summaries) == 2
    assert all(s["sds"] is None and isinstance(s["scs"], float) for s in summaries)
    assert (tmp_path / "semantic.csv").read_text().splitlines()[0] == "module_setting,stability,scs,sds"
    variances = run_stability([{m: s["mean"][m] for m in METRIC_NAMES} for s in summaries])
    assert read_semantic_table(tmp_path / "semantic.csv") == [
        {
            "module_setting": "ruled/extreme",
            "stability": np.mean(list(variances.values())),
            "scs": np.mean([s["scs"] for s in summaries]),
            "sds": None,
        }
    ]


def read_semantic_table(path) -> list[dict[str, float | str | None]]:
    """The rows of a matrix's `semantic.csv`, with empty scores as None."""
    with open(path, newline="") as fh:
        return [
            {
                "module_setting": rec["module_setting"],
                "stability": float(rec["stability"]),
                "scs": float(rec["scs"]) if rec["scs"] else None,
                "sds": float(rec["sds"]) if rec["sds"] else None,
            }
            for rec in csv.DictReader(fh)
        ]


def test_a_ruled_run_reads_its_knowledge_from_files(tmp_path):
    # no node of this graph is a region, so no cycle's seed regions are in it
    graph = {
        "nodes": [{"id": "road:row:0", "type": "road"}, {"id": "spot:harbour", "type": "flood_spot"}],
        "edges": [{"src": "spot:harbour", "dst": "road:row:0", "type": "risks"}],
    }
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    ids = [f"log:{i}" for i in range(8)]
    texts = ["standing water near the river", "pumps deployed downtown", "buses detoured at the bridge"]
    lines = [json.dumps({"id": sid, "text": f"region {i} {texts[i % 3]}"}) for i, sid in enumerate(ids)]
    (tmp_path / "segments.jsonl").write_text("\n".join(lines) + "\n")
    cfg = tiny_matrix_config(str(tmp_path / "out"), workers=1)
    cfg.strategy, cfg.scenario, cfg.steps = "ruled", "extreme", 20
    cfg.knowledge.graph_file = str(tmp_path / "graph.json")
    cfg.knowledge.segments_file = str(tmp_path / "segments.jsonl")
    harness.run(cfg)
    prompts = [json.loads(line)["text"] for line in (tmp_path / "out" / "prompts.jsonl").read_text().splitlines()]
    assert len(prompts) == 4
    # some cycle has seed regions to look up, none of which the graph holds
    assert any("flooded_regions: region" in p or "congested_regions: region" in p for p in prompts)
    for text in prompts:
        assert "\n## SUBGRAPH\n(none)\n## SEGMENTS\n" in text
        segments = text.split("## SEGMENTS\n")[1].split("\n## TASK\n")[0].splitlines()
        assert len(segments) == 5
        assert all(line.split("]")[0][1:] in ids for line in segments)
