"""Config values that cannot run are rejected before the run starts, and
every setting that a config can hold is one that some caller varies."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from floodloop import cli
from floodloop.config import RunConfig, config_from_dict
from floodloop.errors import ConfigError
from floodloop.world import ScenarioKind, generate_scenario, save_scenario


ROOT = Path(__file__).resolve().parent.parent

# settings that no run varied, now module constants beside their readers; an
# old config.json that names one is rejected, even at the old default
RETIRED = {
    "world.elevation_relief", "world.elevation_smoothing", "world.road_depression",
    "mobility.bus_stops", "mobility.wait_probability",
    "policy.lambda_init", "policy.alpha",
    "knowledge.embed_dim", "knowledge.top_k",
    "feedback.window_length", "feedback.lambda_thr", "feedback.threshold_stat",
    "fallback_strategy",
}

# every setting of `RunConfig` -> (where a caller varies it, why it is kept).
# A `.py` file must assign the setting, or pass it by keyword; the other
# entries name the reason a setting no run varies yet is kept.
VARIED_BY = {
    "scenario": ("src/floodloop/cli.py", "--scenario"),
    "steps": ("src/floodloop/cli.py", "--steps"),
    "seed": ("src/floodloop/cli.py", "--seed"),
    "strategy": ("src/floodloop/cli.py", "--strategy"),
    "ablations": ("src/floodloop/cli.py", "--ablate"),
    "out_dir": ("src/floodloop/cli.py", "--out"),
    "scenario_file": ("src/floodloop/cli.py", "--scenario-file"),
    "external_endpoint": ("src/floodloop/cli.py", "--endpoint"),
    "external_timeout": ("deployment", "how long the remote backend may take"),
    "heatmap_steps": ("tests/test_golden.py", "the golden runs dump one step"),
    "workers": ("src/floodloop/cli.py", "matrix --workers"),
    "world.width": ("bench/workloads.py", "metro"),
    "world.height": ("bench/workloads.py", "metro"),
    "world.n_regions": ("bench/workloads.py", "dispatch"),
    "world.inflow_coeff": ("tests/test_golden.py", "the wet runs"),
    "world.drainage_rate": ("tests/test_world.py", "the mass-balance properties"),
    "world.diffusion_rate": ("tests/test_world.py", "the mass-balance properties"),
    "world.road_spacing": ("tests/test_routing_properties.py", "the routing properties"),
    "mobility.initial_population": ("bench/workloads.py", "metro and dispatch"),
    "mobility.initial_stagger": ("bench/workloads.py", "metro"),
    "mobility.spawn_rate": ("bench/workloads.py", "metro and dispatch"),
    "mobility.n_pois": ("tests/test_golden.py", "the golden runs"),
    "mobility.n_buses": ("tests/test_golden.py", "the golden runs"),
    "mobility.resident_block_depth": ("ROADMAP.md", "item 3: f may count the cells at this depth"),
    "mobility.bus_block_depth": ("ROADMAP.md", "item 3: the bus twin of resident_block_depth"),
    "policy.tau": ("ROADMAP.md", "item 4: the entropy cap's sign counts may move it"),
    "policy.score_threshold": ("ROADMAP.md", "item 4: rules that lower the ruled backend's bar"),
    "knowledge.subgraph_hops": ("ROADMAP.md", "item 4: bound the knowledge subgraph"),
    "knowledge.graph_file": ("deployment", "a graph snapshot to load"),
    "knowledge.segments_file": ("deployment", "a segment store to load"),
    "feedback.trigger_floor": ("tests/test_golden.py", "the wet runs"),
    "feedback.cycle_len": ("bench/workloads.py", "dispatch"),
    "feedback.weights": ("ROADMAP.md", "item 3: J's weights on the new indicators"),
}


def settings(section=RunConfig(), prefix: str = ""):
    """The dotted name of every setting of `RunConfig`, sections entered."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            yield from settings(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_every_setting_is_varied_by_a_caller_named_in_the_ledger():
    names = set(settings())
    assert not names & RETIRED
    assert sorted(names - VARIED_BY.keys()) == [], "a new setting needs a caller that varies it"
    assert sorted(VARIED_BY.keys() - names) == []


def test_each_caller_in_the_ledger_sets_its_setting():
    missing = []
    for name, (where, _) in VARIED_BY.items():
        if where.endswith(".py"):
            text = (ROOT / where).read_text()
            leaf = name.rsplit(".", 1)[-1]
            if not re.search(rf"\.{re.escape(name)} = |\b{re.escape(leaf)}=", text):
                missing.append(f"{name} in {where}")
    assert missing == []


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
        ("mobility.bus_stops", {"mobility": {"bus_stops": 4}}),
        ("knowledge.embed_dim", {"knowledge": {"embed_dim": 64}}),
        ("world.road_spacing", {"world": {"road_spacing": 0}}),
        ("policy.routing_penalty", {"policy": {"routing_penalty": 4.0}}),
        ("knowledge.top_k", {"knowledge": {"top_k": 5}}),
        ("knowledge.subgraph_hops", {"knowledge": {"subgraph_hops": -1}}),
        ("world.inflow_coeff", {"world": {"inflow_coeff": 1.5}}),
        ("world.drainage_rate", {"world": {"drainage_rate": 3.0}}),
        ("world.diffusion_rate", {"world": {"diffusion_rate": -1.0}}),
        ("external_timeout", {"external_timeout": 0}),
        ("external_timeout", {"external_timeout": -1}),
        ("mobility.spawn_rate", {"mobility": {"spawn_rate": -2}}),
        ("mobility.n_pois", {"mobility": {"n_pois": -1}}),
        ("mobility.wait_probability", {"mobility": {"wait_probability": 0.2}}),
        ("mobility.n_buses", {"mobility": {"n_buses": -1}}),
        ("mobility.initial_stagger", {"mobility": {"initial_stagger": -1}}),
        ("world.elevation_smoothing", {"world": {"elevation_smoothing": 1}}),
        ("policy.tau", {"policy": {"tau": 0}}),
        ("policy.alpha", {"policy": {"alpha": 0.05}}),
        ("policy.lambda_init", {"policy": {"lambda_init": 1.0}}),
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
        # the other retired settings; each case names its old default
        ("world.elevation_relief", {"world": {"elevation_relief": 12.0}}),
        ("world.road_depression", {"world": {"road_depression": 1.5}}),
        ("feedback.window_length", {"feedback": {"window_length": 10}}),
        ("feedback.lambda_thr", {"feedback": {"lambda_thr": 1.0}}),
        ("feedback.threshold_stat", {"feedback": {"threshold_stat": "gap"}}),
        ("fallback_strategy", {"fallback_strategy": "ruled"}),
    ],
)
def test_run_rejects_config_naming_the_field(tmp_path, capsys, field, data):
    message = rejection(tmp_path, capsys, data)
    assert message.startswith(f"{field}: ")
    if field in RETIRED:
        assert message == f"{field}: unknown field"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"external_timeout": 0}, "external_timeout: must be in (0.0, inf], got 0"),
        ({"policy": {"tau": 0}}, "policy.tau: must be in (0.0, inf], got 0"),
    ],
)
def test_an_int_in_a_float_field_meets_the_range_rule(tmp_path, capsys, data, message):
    assert rejection(tmp_path, capsys, data) == message


def ranged_settings():
    """(dotted name, default, low, high, open low) of each setting declared
    with a range."""
    cfg = RunConfig()
    sections = [f.name for f in dataclasses.fields(cfg) if dataclasses.is_dataclass(getattr(cfg, f.name))]
    for prefix, owner in [("", cfg)] + [(f"{name}.", getattr(cfg, name)) for name in sections]:
        for f in dataclasses.fields(owner):
            if "range" in f.metadata:
                yield pytest.param(prefix + f.name, f.default, *f.metadata["range"], id=prefix + f.name)


@pytest.mark.parametrize("name, default, low, high, open_low", ranged_settings())
def test_a_ranged_setting_is_accepted_at_its_edge_and_rejected_just_past_it(name, default, low, high, open_low):
    section, _, leaf = name.rpartition(".")

    def validate(value):
        cfg = RunConfig()
        setattr(getattr(cfg, section) if section else cfg, leaf, value)
        cfg.validate()

    def toward(edge, direction):
        return edge + direction if isinstance(default, int) else math.nextafter(edge, direction * math.inf)

    # an open edge is itself the first value past the range
    inside, outside = (toward(low, 1), low) if open_low else (low, toward(low, -1))
    cases = [(inside, outside)] + ([(high, toward(high, 1))] if high < math.inf else [])
    for accepted, rejected in cases:
        validate(accepted)
        with pytest.raises(ConfigError, match=f"^{re.escape(name)}: must be in .*, got {re.escape(repr(rejected))}$"):
            validate(rejected)


def test_the_ranges_cover_both_edge_kinds():
    ranges = [param.values for param in ranged_settings()]
    assert any(open_low for *_, open_low in ranges) and any(high < math.inf for *_, high, _ in ranges)


def test_a_flag_overrides_a_config_file_field_before_validation(tmp_path, capsys):
    # the file alone cannot run: its step count is below the minimum
    small = {"world": {"width": 16, "height": 16, "n_regions": 4}, "mobility": {"initial_population": 20}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"steps": 5, "out_dir": str(tmp_path / "out"), **small}))
    assert cli.main(["run", "--config", str(path), "--steps", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 12


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


def test_run_rejects_a_scenario_file_of_another_kind(tmp_path, capsys):
    # the prompts, summary.json and config.json would name the config's kind, not the curve's
    scenario = tmp_path / "scenario.json"
    save_scenario(scenario, generate_scenario(ScenarioKind.LIGHT, 10, 0))
    out = tmp_path / "out"
    assert cli.main(["run", "--steps", "10", "--scenario-file", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ConfigError", "message": "scenario_file: kind light, but the run is extreme"}
    assert not out.exists()


def test_a_scenario_file_replays_under_its_own_kind(tmp_path):
    scenario = tmp_path / "scenario.json"
    save_scenario(scenario, generate_scenario(ScenarioKind.LIGHT, 10, 0))
    out = tmp_path / "out"
    argv = ["run", "--steps", "10", "--scenario", "light", "--scenario-file", str(scenario), "--out", str(out)]
    assert cli.main(argv) == 0
    prompts = [json.loads(line)["text"] for line in (out / "prompts.jsonl").read_text().splitlines()]
    assert prompts and all("\nscenario: light\n" in text for text in prompts)
    assert json.loads((out / "summary.json").read_text())["scenario"] == "light"
    assert (out / "scenario.json").read_bytes() == scenario.read_bytes()


@pytest.mark.parametrize(
    "command, name, content, error, message",
    [
        (
            "load --segments", "segments.jsonl", '{"text": "pumps deployed"}\n', "ValueError",
            "line 1: segment record has no id",
        ),
        (
            "load --segments", "segments.jsonl", '{"id": "a", "text": "pumps"}\n{"id": "b"}\n', "ValueError",
            "line 2: segment record has no text",
        ),
        (
            "load --segments", "segments.jsonl", '{"id": "a", "text": "pumps"}\n\n{bad\n', "ValueError",
            "line 3: Expecting property name enclosed in double quotes at column 2",
        ),
        (
            "load --segments", "segments.jsonl", '{"id": "a", "text": "pumps"}\n[1, 2]\n', "TypeError",
            "line 2: a segment record must be a JSON object, got list",
        ),
        ("load --graph", "graph.json", json.dumps({"nodes": [{"type": "region"}]}), "KeyError", "'id'"),
        (
            "run --steps 10 --out {out} --scenario-file", "scenario.json", json.dumps({"kind": "light", "seed": 0}),
            "KeyError", "'curve'",
        ),
    ],
)
def test_a_malformed_input_file_gives_an_error_record(tmp_path, capsys, command, name, content, error, message):
    path = tmp_path / name
    path.write_text(content)
    assert cli.main([*command.format(out=tmp_path / "out").split(), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": error, "message": message}


@pytest.mark.parametrize("content, kind", [("[1]", "list"), ("3", "int"), ('"x"', "str")])
def test_a_graph_file_that_is_not_a_json_object_gives_an_error_record(tmp_path, capsys, content, kind):
    path = tmp_path / "graph.json"
    path.write_text(content)
    assert cli.main(["load", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "TypeError", "message": f"a graph snapshot must be a JSON object, got {kind}"}


@pytest.mark.parametrize(
    "field, name, content, error, message",
    [
        (
            "segments_file", "segments.jsonl", '{"id": "a", "text": 5}\n', "TypeError",
            "line 1: segment 'a' needs a string id and text, got str and int",
        ),
        (
            "segments_file", "segments.jsonl", '{"id": "a", "text": "pumps"}\n\n{"id": 5, "text": "rain"}\n', "TypeError",
            "line 3: segment 5 needs a string id and text, got int and str",
        ),
        (
            "segments_file", "segments.jsonl", '{"id": "a", "text": "pumps"}\n{"id": "b", "text": "?!"}\n', "EmptyQuery",
            "line 2: segment 'b' has no token to embed",
        ),
        (
            "segments_file", "segments.jsonl", '{"id": "a", "text": "pumps"}\n\n{"id": "a", "text": "rain"}\n', "ValueError",
            "line 3: duplicate segment id 'a'",
        ),
        (
            "graph_file", "graph.json", json.dumps({"nodes": [{"id": "region:0", "type": "region", "attributes": [1, 2]}]}),
            "TypeError", "node 'region:0': attributes must be a JSON object, got list",
        ),
    ],
)
@pytest.mark.parametrize("command", ["run", "load"])
def test_a_malformed_knowledge_record_gives_an_error_record_naming_it(
    tmp_path, capsys, command, field, name, content, error, message
):
    path = tmp_path / name
    path.write_text(content)
    if command == "run":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"steps": 10, "out_dir": str(tmp_path / "out"), "knowledge": {field: str(path)}}))
        argv = ["run", "--config", str(config)]
    else:
        argv = ["load", "--segments" if field == "segments_file" else "--graph", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": error, "message": message}
    assert not (tmp_path / "out").exists()
