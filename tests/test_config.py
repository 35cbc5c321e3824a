"""Config values that cannot run are rejected before the run starts."""

from __future__ import annotations

import json

import pytest

from floodloop import cli
from floodloop.world import ScenarioKind, generate_scenario, save_scenario


@pytest.mark.parametrize(
    "field, data",
    [
        ("mobility.bus_stops", {"mobility": {"n_buses": 2, "bus_stops": 1}}),
        ("knowledge.embed_dim", {"knowledge": {"embed_dim": 0}}),
        ("world.road_spacing", {"world": {"road_spacing": 0}}),
        ("policy.routing_penalty", {"policy": {"routing_penalty": 4.0}}),
        ("knowledge.top_k", {"knowledge": {"top_k": 0}}),
        ("knowledge.subgraph_hops", {"knowledge": {"subgraph_hops": -1}}),
        ("world.inflow_coeff", {"world": {"inflow_coeff": 1.5}}),
        ("world.drainage_rate", {"world": {"drainage_rate": 3.0}}),
        ("world.diffusion_rate", {"world": {"diffusion_rate": -1.0}}),
        ("external_timeout", {"external_timeout": 0}),
        ("external_timeout", {"external_timeout": -1}),
        ("mobility.spawn_rate", {"mobility": {"spawn_rate": -2}}),
        ("mobility.n_pois", {"mobility": {"n_pois": -1}}),
        ("mobility.wait_probability", {"mobility": {"wait_probability": 1.5}}),
    ],
)
def test_run_rejects_config_naming_the_field(tmp_path, capsys, field, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"steps": 10, "out_dir": str(tmp_path / "out"), **data}))
    assert cli.main(["run", "--config", str(path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{field}: ")
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_scenario_file_shorter_than_the_run(tmp_path, capsys):
    # each step, and the prompt of each cycle, reads that step's rain from the curve
    scenario = tmp_path / "scenario.json"
    save_scenario(scenario, generate_scenario(ScenarioKind.LIGHT, 10, 0))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"steps": 11, "scenario_file": str(scenario), "out_dir": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("scenario_file: ")
    assert not (tmp_path / "out").exists()
