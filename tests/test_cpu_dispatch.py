"""The golden runs give the same bytes at every CPU dispatch level.

numpy picks the SIMD code of its ufuncs (`exp` and `log` among them) by
the CPU it runs on, and glibc picks the variant of its maths functions
the same way. Equal configs must give byte-identical artifacts on any
x86-64 host, so every golden run (`tests/test_golden.py`, `external`
against the benchmark's stub included) is run in subprocesses: once as
the host runs it, once per numpy dispatch target that the host has, with
that target and every later one switched off through
`NPY_DISABLE_CPU_FEATURES`, and once with glibc's AVX2 and FMA variants
switched off through `GLIBC_TUNABLES`. Every digest must equal the native
run's.

On a host that runs numpy's AVX-512 code this fails today: with it
switched off, the last bits of `np.exp` in `metrics._sigmoid_scores`
move, and with them `metrics.csv` and the artifacts that read J.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

GLIBC_TUNABLES = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX2_Usable,-FMA_Usable"

# run in a fresh interpreter: prints {run: {artifact: sha256}} of every golden run
CHILD = """
import json, tempfile
from pathlib import Path
from test_golden import ALL_RUNS, run_digests
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps({name: run_digests(name, Path(tmp) / name) for name in ALL_RUNS}))
"""

# a dispatch target switched off by `NPY_DISABLE_CPU_FEATURES` reads False here
RUNS_AVX512 = any(__cpu_features__.get(t) for t in __cpu_dispatch__ if t.startswith(("AVX512", "X86_V4")))


def golden_digests(env: dict[str, str]) -> dict[str, dict[str, str]]:
    """The digests of every golden run, made in a subprocess under `env`
    added to this process's environment."""
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode:
        raise RuntimeError(f"the golden runs failed under {env}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def dispatch_levels() -> tuple[list[str], list[str]]:
    """(`NPY_DISABLE_CPU_FEATURES` values to run, dispatch targets the host
    lacks). Each value switches off one target the host has, and every
    later target that it has too."""
    levels, lacking = [], []
    for i, target in enumerate(__cpu_dispatch__):
        if __cpu_features__.get(target):
            levels.append(" ".join(t for t in __cpu_dispatch__[i:] if __cpu_features__.get(t)))
        else:
            lacking.append(target)
    return levels, lacking


# only a digest mismatch is the expected failure: a run that crashes fails the test
@pytest.mark.xfail(
    RUNS_AVX512,
    reason="numpy's AVX-512 exp and log differ in the last bit from its AVX2 and baseline code (ROADMAP item 13)",
    raises=AssertionError,
    strict=True,
)
def test_golden_digests_do_not_depend_on_the_cpu_dispatch_level():
    levels, lacking = dispatch_levels()
    variants = {f"NPY_DISABLE_CPU_FEATURES={level}": {"NPY_DISABLE_CPU_FEATURES": level} for level in levels}
    variants[f"GLIBC_TUNABLES={GLIBC_TUNABLES}"] = {"GLIBC_TUNABLES": GLIBC_TUNABLES}
    native = golden_digests({})
    differ = [
        f"{variant}: {run} {artifact}"
        for variant, env in variants.items()
        for run, artifacts in golden_digests(env).items()
        for artifact, digest in artifacts.items()
        if native[run][artifact] != digest
    ]
    lacked = f" (dispatch targets this host lacks, not run: {', '.join(lacking)})" if lacking else ""
    assert differ == [], f"{len(differ)} digests differ from the native run's{lacked}"
