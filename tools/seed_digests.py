"""Print the output digest of every gated benchmark input of a checkout.

    python tools/seed_digests.py <checkout>

Runs `harness.run` once on each input seed of each gated workload in the
checkout's `bench/workloads.py`, from the benchmark's default seed, with
the `dispatch` inputs answered by the checkout's `bench/stub.py`. Prints
`bench/checks.py`'s `output_digest` of each run as one JSON object in the
layout of `bench/seed_digests.json`: workload -> seed -> digest. The
package and the benchmark modules are imported from the checkout, without
writing bytecode, and the runs write into a temporary directory, so
nothing in the checkout changes. Two checkouts print the same object when
their runs write byte-identical artifacts. About 20 s on a 2-vCPU VM.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

SEED = 7  # `bench/run.py --seed` default


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(args[0]).resolve()
    if not (root / "src" / "floodloop" / "__init__.py").is_file() or not (root / "bench" / "workloads.py").is_file():
        print(f"{root} holds no src/floodloop package and bench/ directory", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    from checks import output_digest
    from floodloop import harness
    from stub import StubServer
    from workloads import WORKLOADS

    # the stub listens on loopback; never send its requests through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp, StubServer() as stub:
        for workload in WORKLOADS.values():
            if not workload.gated:
                continue
            for seed in workload.seeds(SEED):
                cfg = workload.config(seed, str(Path(tmp) / workload.name / f"seed{seed}"), endpoint=stub.endpoint)
                digests.setdefault(workload.name, {})[str(seed)] = output_digest(harness.run(cfg).out_dir)
    print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
