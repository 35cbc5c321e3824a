"""The package runs without scipy, which only the tests need: a small run
in a fresh interpreter where every scipy import fails completes and loads
no scipy module."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = """
import json, sys
sys.modules["scipy"] = None  # from here on, importing scipy or any submodule raises ImportError
from floodloop import harness
from floodloop.config import RunConfig
cfg = RunConfig(seed=5, steps=10, strategy="ruled", out_dir=sys.argv[1])
cfg.world.width = cfg.world.height = 16
cfg.world.n_regions = 4
cfg.mobility.initial_population = 20
cfg.mobility.n_pois = 6
cfg.mobility.n_buses = 1
cfg.feedback.cycle_len = 5
harness.run(cfg)
print(json.dumps(sorted(name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None)))
"""


def test_a_run_loads_no_scipy_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", RUN, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
    assert json.loads((tmp_path / "summary.json").read_text())["steps"] == 10
