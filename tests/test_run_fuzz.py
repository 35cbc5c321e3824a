"""Every config either runs as stated or is rejected: small random
`RunConfig`s drawn near the validation edges, run end to end.

A drawn config must either raise `ConfigError` before the run writes any
file, or run to a summary that passes the benchmark's `check_summary`
and write artifacts that a second run repeats byte for byte. The draws
cover grids of 3 to 24 cells a side, 0 to 100 regions (non-squares among
them), road spacing from 0 to past the grid, zero population, POIs,
buses and spawn rate, `cycle_len` from 0 to past `steps`, every strategy
but `external`, every scenario and ablation subset, and heatmap steps
past the run; about half the draws push one setting just past its
validation edge. Config `i` is drawn from `random.Random(i)`, so the same
configs run on every pass.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from checks import check_summary  # noqa: E402

from floodloop import harness  # noqa: E402
from floodloop.config import ABLATIONS, SCENARIO_KINDS, RunConfig  # noqa: E402
from floodloop.errors import ConfigError  # noqa: E402

N_CONFIGS = 150

# a value just past the validation edge of each setting a draw may break, one setting a draw
PAST_EDGE = {
    "steps": (9,),
    "world.width": (3,),
    "world.height": (0, 3),
    "world.n_regions": (0, 2, 8, 99),
    "world.road_spacing": (0,),
    "world.inflow_coeff": (-0.01, 1.01),
    "mobility.n_pois": (-1,),
    "policy.tau": (0.0,),
    "feedback.cycle_len": (0,),
}


def edge_config(index: int) -> RunConfig:
    """The `index`th drawn config, from a stream seeded with `index`."""
    rng = random.Random(index)
    steps = rng.randint(10, 40)
    cfg = RunConfig(
        scenario=rng.choice(SCENARIO_KINDS),
        steps=steps,
        seed=rng.randrange(2**31),
        strategy=rng.choice(["empty", "ruled", "scripted"]),
        ablations=tuple(ab for ab in ABLATIONS if rng.random() < 0.3),
        heatmap_steps=tuple(rng.randint(0, steps + 10) for _ in range(rng.randint(0, 3))),
    )
    cfg.world.width, cfg.world.height = rng.randint(4, 24), rng.randint(4, 24)
    cfg.world.n_regions = rng.choice([1, 4, 9, 16, 25, 36, 49, 64, 81, 100])
    cfg.world.road_spacing = rng.randint(1, max(cfg.world.width, cfg.world.height) + 2)
    cfg.world.inflow_coeff = rng.choice([0.0, 0.01, 0.2, 1.0])
    cfg.mobility.initial_population = rng.choice([0, 1, 60])
    cfg.mobility.initial_stagger = rng.randint(0, 20)
    cfg.mobility.spawn_rate = rng.randint(0, 3)
    cfg.mobility.n_pois = rng.randint(0, 4)
    cfg.mobility.n_buses = rng.randint(0, 3)
    cfg.mobility.resident_block_depth = rng.choice([0.0, 0.3])
    cfg.knowledge.subgraph_hops = rng.randint(0, 2)
    cfg.feedback.cycle_len = rng.randint(1, steps + 5)
    # about half the draws break one setting
    broken = rng.choice([None] * len(PAST_EDGE) + list(PAST_EDGE))
    if broken is not None:
        section, _, name = broken.rpartition(".")
        setattr(getattr(cfg, section) if section else cfg, name, rng.choice(PAST_EDGE[broken]))
    return cfg


def artifacts(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("index", range(N_CONFIGS))
def test_a_config_runs_as_stated_or_is_rejected(index):
    cfg = edge_config(index)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        cfg.out_dir = str(out)
        try:
            first = harness.run(cfg)
        except ConfigError:
            assert not out.exists()
            return
        assert check_summary(first.summary) == []
        written = artifacts(out)
        shutil.rmtree(out)
        harness.run(cfg)
        assert artifacts(out) == written


def test_the_draws_reach_both_outcomes_and_every_edge():
    # the fuzz is only a check if its configs both run and fail validation, at the edges named above
    seen: set[str] = set()
    for index in range(N_CONFIGS):
        cfg = edge_config(index)
        try:
            cfg.validate()
        except ConfigError as exc:
            seen.add(f"rejected {exc.field}")
            continue
        seen.update({"runs", cfg.strategy, cfg.scenario, *cfg.ablations})
        if cfg.mobility.initial_population == 0:
            seen.add("no population")
        if cfg.mobility.n_pois == 0 and cfg.mobility.initial_population:
            seen.add("trips without POIs")
        if cfg.mobility.n_buses == 0:
            seen.add("no buses")
        if cfg.feedback.cycle_len > cfg.steps:
            seen.add("one cycle past the run")
        if any(step >= cfg.steps for step in cfg.heatmap_steps):
            seen.add("heatmap step past the run")
        if cfg.world.road_spacing > max(cfg.world.width, cfg.world.height):
            seen.add("road spacing past the grid")
        if cfg.world.n_regions > cfg.world.width * cfg.world.height // 4:
            seen.add("regions of a few cells")
        if len(cfg.ablations) == len(ABLATIONS):
            seen.add("every ablation")
    assert {"runs", "empty", "ruled", "scripted", *SCENARIO_KINDS, *ABLATIONS, "every ablation"} <= seen
    assert {
        "no population", "trips without POIs", "no buses", "one cycle past the run",
        "heatmap step past the run", "road spacing past the grid", "regions of a few cells",
    } <= seen
    assert {f"rejected {name}" for name in PAST_EDGE} <= seen
