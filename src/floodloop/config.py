"""Run configuration with documented defaults and JSON round-tripping.

Each setting is one dataclass field: its annotation is its type, and a
field made by `ranged` also carries the range its value must lie in.
`RunConfig.validate` checks type, finiteness and range in one walk over
the fields; only the rules that are not ranges are written out there.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

ENDPOINT_ENV_VAR = "FLOODLOOP_EXTERNAL_ENDPOINT"

STRATEGIES = ("empty", "ruled", "scripted", "external")
SCENARIO_KINDS = ("extreme", "intermittent", "light")
ABLATIONS = ("dual_indexing", "entropy_control", "feedback_loop")


def ranged(default, low, high=math.inf, open_low=False):
    """A setting with `default` that must lie in [low, high], or in
    (low, high] when `open_low`."""
    return field(default=default, metadata={"range": (low, high, open_low)})


@dataclass
class WorldConfig:
    width: int = ranged(64, 4)
    height: int = ranged(64, 4)
    n_regions: int = 64
    inflow_coeff: float = ranged(0.01, 0.0, 1.0)
    drainage_rate: float = ranged(0.05, 0.0, 1.0)
    diffusion_rate: float = ranged(0.2, 0.0, 1.0)
    road_spacing: int = ranged(4, 1)


@dataclass
class MobilityConfig:
    initial_population: int = ranged(500, 0)
    initial_stagger: int = ranged(60, 0)
    spawn_rate: int = ranged(3, 0)
    n_pois: int = ranged(16, 0)
    n_buses: int = ranged(8, 0)
    resident_block_depth: float = 0.3
    bus_block_depth: float = 0.25


@dataclass
class PolicyConfig:
    tau: float = ranged(1.2, 0.0, open_low=True)
    score_threshold: float = 0.7


@dataclass
class KnowledgeConfig:
    subgraph_hops: int = ranged(1, 0)
    graph_file: str | None = None
    segments_file: str | None = None


@dataclass
class FeedbackConfig:
    trigger_floor: float = 0.015
    cycle_len: int = ranged(10, 1)
    weights: tuple[float, float, float, float] = (0.3, 0.3, 0.2, 0.2)


@dataclass
class RunConfig:
    scenario: str = "extreme"
    steps: int = ranged(100, 10)
    seed: int = 7
    strategy: str = "ruled"
    ablations: tuple[str, ...] = ()
    out_dir: str = "out"
    scenario_file: str | None = None
    external_endpoint: str | None = None
    external_timeout: float = ranged(5.0, 0.0, open_low=True)
    heatmap_steps: tuple[int, ...] = (5, 30, 40, 45)
    workers: int = ranged(1, 1)
    world: WorldConfig = field(default_factory=WorldConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    knowledge: KnowledgeConfig = field(default_factory=KnowledgeConfig)
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)

    def resolved_endpoint(self) -> str | None:
        return self.external_endpoint or os.environ.get(ENDPOINT_ENV_VAR)

    def validate(self) -> None:
        _check_fields(self, "")
        if self.scenario not in SCENARIO_KINDS:
            raise ConfigError("scenario", f"must be one of {SCENARIO_KINDS}, got {self.scenario!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"must be one of {STRATEGIES}, got {self.strategy!r}")
        for ab in self.ablations:
            if ab not in ABLATIONS:
                raise ConfigError("ablations", f"unknown ablation {ab!r}, valid: {ABLATIONS}")
        if self.world.n_regions < 1 or math.isqrt(self.world.n_regions) ** 2 != self.world.n_regions:
            # regions tile the grid as a square checkerboard (`world.partition_regions`)
            raise ConfigError("world.n_regions", f"must be a positive perfect square, got {self.world.n_regions}")
        if len(self.feedback.weights) != 4 or any(w < 0 for w in self.feedback.weights):
            raise ConfigError("feedback.weights", "need four non-negative weights")
        if abs(sum(self.feedback.weights) - 1.0) > 1e-9:
            raise ConfigError("feedback.weights", f"must sum to 1, got {sum(self.feedback.weights)}")
        if self.strategy == "external" and not self.resolved_endpoint():
            raise ConfigError(
                "external_endpoint", f"external strategy needs an endpoint (flag or ${ENDPOINT_ENV_VAR})"
            )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


_hints = functools.cache(typing.get_type_hints)


def _fits(hint, value) -> bool:
    """Whether `value` has the type `hint`; a float field takes an int, and
    no field takes a bool."""
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_fits(typing.get_args(hint)[0], v) for v in value)
    if isinstance(hint, types.UnionType):
        return any(_fits(h, value) for h in typing.get_args(hint))
    return not isinstance(value, bool) and isinstance(value, (int, float) if hint is float else hint)


def _check_fields(section, prefix: str) -> None:
    """The type, finiteness and range rules of every setting of `section`,
    its sections and tuple entries included."""
    for f in dataclasses.fields(section):
        name, value, hint = prefix + f.name, getattr(section, f.name), _hints(type(section))[f.name]
        entries = value if isinstance(value, tuple) else (value,)
        if not _fits(hint, value):
            raise ConfigError(name, f"must be {f.type}, got {value!r}")
        if dataclasses.is_dataclass(hint):
            _check_fields(value, name + ".")
        elif any(isinstance(v, float) and not math.isfinite(v) for v in entries):
            raise ConfigError(name, f"must be finite, got {value!r}")
        elif "range" in f.metadata:
            low, high, open_low = f.metadata["range"]
            if not (low < value if open_low else low <= value) or value > high:
                raise ConfigError(name, f"must be in {'(' if open_low else '['}{low}, {high}], got {value!r}")


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(path or "config", f"must be a JSON object, got {data!r}")
    hints = _hints(cls)
    kwargs = {}
    for key, value in data.items():
        name = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(name, "unknown field")
        if dataclasses.is_dataclass(hints[key]):
            value = _build_section(hints[key], value, name)
        elif typing.get_origin(hints[key]) is tuple and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    return _build_section(RunConfig, data, "")


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return config_from_dict(data)
