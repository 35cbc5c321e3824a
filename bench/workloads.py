"""The benchmark's workloads: `RunConfig` overrides plus the number of
inputs (seeds) one measuring round runs.

A single simulated city is one large random draw, so run time moves a lot
from seed to seed. One round therefore runs `inputs` different seeds,
derived from the benchmark's `--seed`, and the end-to-end metrics pool
over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from floodloop.config import RunConfig

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: int
    configure: Callable[[RunConfig], None]
    uses_stub: bool = False
    gated: bool = True

    def seeds(self, seed: int) -> list[int]:
        """Input seeds of one round; the first is `seed` itself."""
        return [seed + SEED_STRIDE * i for i in range(self.inputs)]

    def config(self, seed: int, out_dir: str, endpoint: str | None = None) -> RunConfig:
        cfg = RunConfig(seed=seed, out_dir=out_dir)
        self.configure(cfg)
        if self.uses_stub:
            cfg.external_endpoint = endpoint
        cfg.validate()
        return cfg


def _storm(cfg: RunConfig) -> None:
    """RunConfig defaults: 64x64, 64 regions, ruled, extreme, 100 steps."""


def _metro(cfg: RunConfig) -> None:
    cfg.world.width = cfg.world.height = 128
    cfg.mobility.initial_population = 1000
    cfg.mobility.initial_stagger = 40
    cfg.mobility.spawn_rate = 6
    cfg.steps = 60
    cfg.scenario = "intermittent"


def _dispatch(cfg: RunConfig) -> None:
    cfg.world.n_regions = 256
    cfg.feedback.cycle_len = 1
    cfg.steps = 120
    cfg.mobility.initial_population = 100
    cfg.mobility.spawn_rate = 1
    cfg.scenario = "intermittent"
    cfg.strategy = "external"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("storm", inputs=14, configure=_storm),
        Workload("dispatch", inputs=5, configure=_dispatch, uses_stub=True),
        # run by hand only: with the six inputs that fit the time budget its
        # spread over seeds stays close to the largest bound allowed
        Workload("metro", inputs=6, configure=_metro, gated=False),
    )
}
