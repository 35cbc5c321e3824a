"""Run configuration with documented defaults and JSON round-tripping."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

ENDPOINT_ENV_VAR = "FLOODLOOP_EXTERNAL_ENDPOINT"

STRATEGIES = ("empty", "ruled", "scripted", "external")
SCENARIO_KINDS = ("extreme", "intermittent", "light")
ABLATIONS = ("dual_indexing", "entropy_control", "feedback_loop")


@dataclass
class WorldConfig:
    width: int = 64
    height: int = 64
    n_regions: int = 64
    inflow_coeff: float = 0.01
    drainage_rate: float = 0.05
    diffusion_rate: float = 0.2
    road_spacing: int = 4


@dataclass
class MobilityConfig:
    initial_population: int = 500
    initial_stagger: int = 60
    spawn_rate: int = 3
    n_pois: int = 16
    n_buses: int = 8
    resident_block_depth: float = 0.3
    bus_block_depth: float = 0.25


@dataclass
class PolicyConfig:
    tau: float = 1.2
    score_threshold: float = 0.7


@dataclass
class KnowledgeConfig:
    subgraph_hops: int = 1
    graph_file: str | None = None
    segments_file: str | None = None


@dataclass
class FeedbackConfig:
    trigger_floor: float = 0.015
    cycle_len: int = 10
    weights: tuple[float, float, float, float] = (0.3, 0.3, 0.2, 0.2)


@dataclass
class RunConfig:
    scenario: str = "extreme"
    steps: int = 100
    seed: int = 7
    strategy: str = "ruled"
    ablations: tuple[str, ...] = ()
    out_dir: str = "out"
    scenario_file: str | None = None
    external_endpoint: str | None = None
    external_timeout: float = 5.0
    heatmap_steps: tuple[int, ...] = (5, 30, 40, 45)
    workers: int = 1
    world: WorldConfig = field(default_factory=WorldConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    knowledge: KnowledgeConfig = field(default_factory=KnowledgeConfig)
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)

    def resolved_endpoint(self) -> str | None:
        return self.external_endpoint or os.environ.get(ENDPOINT_ENV_VAR)

    def validate(self) -> None:
        # one type rule and one finiteness rule for every setting, tuple entries included
        for prefix, section in [("", self)] + [(f"{name}.", getattr(self, name)) for name in _SECTION_TYPES]:
            for f in dataclasses.fields(section):
                value = getattr(section, f.name)
                if not _fits(f.type, value):
                    raise ConfigError(prefix + f.name, f"must be {f.type}, got {value!r}")
                entries = value if isinstance(value, tuple) else (value,)
                if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                    raise ConfigError(prefix + f.name, f"must be finite, got {value!r}")
        if self.scenario not in SCENARIO_KINDS:
            raise ConfigError("scenario", f"must be one of {SCENARIO_KINDS}, got {self.scenario!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.steps < 10:
            raise ConfigError("steps", f"must be >= 10, got {self.steps}")
        for ab in self.ablations:
            if ab not in ABLATIONS:
                raise ConfigError("ablations", f"unknown ablation {ab!r}, valid: {ABLATIONS}")
        if self.workers < 1:
            raise ConfigError("workers", "must be >= 1")
        for name in ("width", "height"):
            if getattr(self.world, name) < 4:
                raise ConfigError(f"world.{name}", "grid must be at least 4x4")
        if self.world.n_regions < 1 or math.isqrt(self.world.n_regions) ** 2 != self.world.n_regions:
            # regions tile the grid as a square checkerboard (`world.partition_regions`)
            raise ConfigError("world.n_regions", f"must be a positive perfect square, got {self.world.n_regions}")
        if self.world.road_spacing < 1:
            raise ConfigError("world.road_spacing", "must be >= 1")
        for name in ("inflow_coeff", "drainage_rate", "diffusion_rate"):
            if not 0.0 <= getattr(self.world, name) <= 1.0:
                raise ConfigError(f"world.{name}", "must be in [0, 1]")
        for name in ("initial_population", "initial_stagger", "spawn_rate", "n_pois", "n_buses"):
            if getattr(self.mobility, name) < 0:
                raise ConfigError(f"mobility.{name}", "must be >= 0")
        if self.knowledge.subgraph_hops < 0:
            raise ConfigError("knowledge.subgraph_hops", "must be >= 0")
        if not (0 < self.policy.tau):
            raise ConfigError("policy.tau", "must be positive")
        if self.feedback.cycle_len < 1:
            raise ConfigError("feedback.cycle_len", "must be >= 1")
        if len(self.feedback.weights) != 4 or any(w < 0 for w in self.feedback.weights):
            raise ConfigError("feedback.weights", "need four non-negative weights")
        if abs(sum(self.feedback.weights) - 1.0) > 1e-9:
            raise ConfigError("feedback.weights", f"must sum to 1, got {sum(self.feedback.weights)}")
        if not self.external_timeout > 0:
            raise ConfigError("external_timeout", f"must be > 0 seconds, got {self.external_timeout}")
        if self.strategy == "external" and not self.resolved_endpoint():
            raise ConfigError(
                "external_endpoint", f"external strategy needs an endpoint (flag or ${ENDPOINT_ENV_VAR})"
            )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


_SECTION_TYPES = {
    "world": WorldConfig,
    "mobility": MobilityConfig,
    "policy": PolicyConfig,
    "knowledge": KnowledgeConfig,
    "feedback": FeedbackConfig,
}

_TUPLE_FIELDS = {"ablations", "heatmap_steps", "weights"}

_FIELD_TYPES = {"int": int, "float": (int, float), "str": str} | {cls.__name__: cls for cls in _SECTION_TYPES.values()}


def _fits(annotation: str, value) -> bool:
    """Whether `value` has the type of a field annotated `annotation`; a
    float field takes an int, and no field takes a bool."""
    if annotation.endswith(" | None"):
        return value is None or _fits(annotation.removesuffix(" | None"), value)
    if annotation.startswith("tuple["):
        return isinstance(value, tuple) and all(_fits(annotation[6:-1].split(",")[0], v) for v in value)
    return not isinstance(value, bool) and isinstance(value, _FIELD_TYPES[annotation])


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(path or "config", f"must be a JSON object, got {data!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
        if key in _SECTION_TYPES:
            value = _build_section(_SECTION_TYPES[key], value, key)
        elif key in _TUPLE_FIELDS and isinstance(value, list):
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
    cfg = config_from_dict(data)
    cfg.validate()
    return cfg
