"""Config values that cannot run are rejected before the run starts."""

from __future__ import annotations

import dataclasses
import json

import pytest

from floodloop import cli
from floodloop.config import RunConfig, config_from_dict
from floodloop.errors import ConfigError
from floodloop.world import ScenarioKind, generate_scenario, save_scenario


def rejection(tmp_path, capsys, data) -> str:
    """The message of the ConfigError a run with `data` fails with, before
    it writes anything."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"steps": 10, "out_dir": str(tmp_path / "out"), **data}))
    assert cli.main(["run", "--config", str(path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()
    return record["message"]


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
        ("mobility.n_buses", {"mobility": {"n_buses": -1}}),
        ("mobility.initial_stagger", {"mobility": {"initial_stagger": -1}}),
        ("world.elevation_smoothing", {"world": {"elevation_smoothing": -1}}),
        ("policy.tau", {"policy": {"tau": 0}}),
        ("policy.alpha", {"policy": {"alpha": 1.5}}),
        ("policy.lambda_init", {"policy": {"lambda_init": -1}}),
        ("feedback.weights", {"feedback": {"weights": [0.5, 0.5, 0.5, 0.5]}}),
        ("feedback.weights", {"feedback": {"weights": [-0.2, 0.6, 0.3, 0.3]}}),
        # values of the wrong type
        ("policy.tau", {"policy": {"tau": "1.2"}}),
        ("steps", {"steps": 10.5}),
        ("seed", {"seed": True}),
        ("world.inflow_coeff", {"world": {"inflow_coeff": False}}),
        ("knowledge.graph_file", {"knowledge": {"graph_file": 3}}),
        ("heatmap_steps", {"heatmap_steps": [5.0]}),
        ("workers", {"workers": 2.5}),
        ("feedback.weights", {"feedback": {"weights": [0.25, 0.25, 0.25, "0.25"]}}),
        ("world", {"world": 5}),
        # regions tile the grid as a square
        ("world.n_regions", {"world": {"n_regions": 10}}),
        ("world.n_regions", {"world": {"n_regions": 0}}),
        # the rules that `make_backend` and `generate_scenario` rely on
        ("strategy", {"strategy": "quantum"}),
        ("strategy", {"strategy": "Ruled"}),
        ("steps", {"steps": 9}),
        # a grid too small in one dimension names that one
        ("world.width", {"world": {"width": 3}}),
        ("world.height", {"world": {"height": 2}}),
    ],
)
def test_run_rejects_config_naming_the_field(tmp_path, capsys, field, data):
    assert rejection(tmp_path, capsys, data).startswith(f"{field}: ")


@pytest.mark.parametrize(
    "data, message",
    [
        ({"external_timeout": 0}, "external_timeout: must be > 0 seconds, got 0"),
        ({"policy": {"tau": 0}}, "policy.tau: must be positive"),
    ],
)
def test_an_int_in_a_float_field_meets_the_range_rule(tmp_path, capsys, data, message):
    assert rejection(tmp_path, capsys, data) == message


@pytest.mark.parametrize("data", [[], 5, "steps"])
def test_a_config_that_is_not_an_object_is_rejected(data):
    with pytest.raises(ConfigError, match="^config: must be a JSON object, got "):
        config_from_dict(data)


def test_ints_in_float_fields_and_none_in_optional_fields_are_valid():
    config_from_dict(
        {"policy": {"tau": 1}, "feedback": {"weights": [1, 0, 0, 0]}, "knowledge": {"graph_file": None}}
    ).validate()


def nan_cases():
    """(field, data) setting one float to NaN, for every float field of
    `RunConfig` and its sections and for each entry of `feedback.weights`."""
    cfg = RunConfig()
    nan = float("nan")
    sections = [f.name for f in dataclasses.fields(cfg) if dataclasses.is_dataclass(getattr(cfg, f.name))]
    owners = [("", cfg)] + [(name, getattr(cfg, name)) for name in sections]
    for section, owner in owners:
        for f in dataclasses.fields(owner):
            field = f"{section}.{f.name}" if section else f.name
            values = {field: nan} if f.type == "float" else {}
            if f.type.startswith("tuple[float"):
                default = getattr(owner, f.name)
                values = {
                    f"{field}[{k}]": [nan if i == k else w for i, w in enumerate(default)] for k in range(len(default))
                }
            for case, value in values.items():
                yield pytest.param(field, {section: {f.name: value}} if section else {f.name: value}, id=case)


@pytest.mark.parametrize("field, data", nan_cases())
def test_run_rejects_nan_in_every_float_field(tmp_path, capsys, field, data):
    assert rejection(tmp_path, capsys, data).startswith(f"{field}: must be finite, got ")


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
