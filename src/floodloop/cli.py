"""Command-line interface.

Subcommands: run, matrix, ablate, heatmap, report, load. Exits 0 on
success; on failure prints a machine-readable JSON error record to stderr
and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ABLATIONS, ENDPOINT_ENV_VAR, SCENARIO_KINDS, STRATEGIES, RunConfig, load_config
from .errors import FloodloopError


def _base_config(args) -> RunConfig:
    config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "scenario", None):
        config.scenario = args.scenario
    if getattr(args, "strategy", None):
        config.strategy = args.strategy
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "steps", None) is not None:
        config.steps = args.steps
    if getattr(args, "ablate", None):
        config.ablations = tuple(args.ablate)
    if getattr(args, "out", None):
        config.out_dir = args.out
    if getattr(args, "endpoint", None):
        config.external_endpoint = args.endpoint
    if getattr(args, "scenario_file", None):
        config.scenario_file = args.scenario_file
    if getattr(args, "workers", None) is not None:
        config.workers = args.workers
    return config


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--scenario", choices=SCENARIO_KINDS)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--ablate", action="append", choices=ABLATIONS, help="repeatable")
    p.add_argument("--out", help="output directory")
    p.add_argument("--endpoint", help=f"external backend URL (or ${ENDPOINT_ENV_VAR})")
    p.add_argument("--scenario-file", dest="scenario_file", help="replay a saved scenario record")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="floodloop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one full simulation run")
    _add_common(p_run)

    p_matrix = sub.add_parser("matrix", help="strategies x scenarios x repeats comparison")
    _add_common(p_matrix)
    p_matrix.add_argument("--strategies", nargs="+", default=["empty", "ruled"], choices=STRATEGIES)
    p_matrix.add_argument("--scenarios", nargs="+", default=list(SCENARIO_KINDS), choices=SCENARIO_KINDS)
    p_matrix.add_argument("--repeats", type=int, default=5)
    p_matrix.add_argument("--workers", type=int)

    p_ablate = sub.add_parser("ablate", help="full run plus each single ablation, with log diffs")
    _add_common(p_ablate)

    p_heat = sub.add_parser("heatmap", help="render a density dump as SVG")
    p_heat.add_argument("dump", help="density dump CSV")
    p_heat.add_argument("--palette", default="density", choices=["density", "water"])
    p_heat.add_argument("--out", help="output SVG path")

    p_report = sub.add_parser("report", help="markdown digest of a matrix directory's comparison.csv")
    p_report.add_argument("matrix_dir")
    p_report.add_argument("--out", help="output markdown path")

    p_load = sub.add_parser("load", help="validate knowledge graph/segment files")
    p_load.add_argument("--graph", help="graph snapshot JSON")
    p_load.add_argument("--segments", help="segment store JSONL")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            from .harness import run

            artifacts = run(_base_config(args))
            print(json.dumps(artifacts.summary, indent=2, sort_keys=True))
        elif args.command == "matrix":
            from .harness import run_matrix

            config = _base_config(args)
            result = run_matrix(config, args.strategies, list(args.scenarios), args.repeats)
            print(json.dumps({"runs": result["runs"], "out_dir": result["out_dir"]}, indent=2))
        elif args.command == "ablate":
            from .harness import run_ablation_suite

            report = run_ablation_suite(_base_config(args))
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "heatmap":
            from .heatmap import load_density_dump, write_heatmap

            values = load_density_dump(args.dump)
            out = args.out or str(Path(args.dump).with_suffix(".svg"))
            write_heatmap(out, values, args.palette)
            print(out)
        elif args.command == "report":
            from .harness import write_report

            print(write_report(args.matrix_dir, args.out))
        elif args.command == "load":
            from .knowledge import EMBED_DIM, HashingEmbedder, load_graph, load_segments

            record = {}
            if args.graph:
                graph = load_graph(args.graph)
                record["graph"] = {"nodes": len(graph.nodes), "edges": len(graph.edges)}
            if args.segments:
                store = load_segments(args.segments, HashingEmbedder(EMBED_DIM))
                record["segments"] = len(store)
            if not record:
                raise FloodloopError("nothing to load: pass --graph and/or --segments")
            print(json.dumps(record, indent=2, sort_keys=True))
    except (FloodloopError, OSError, ValueError, KeyError, TypeError) as exc:
        # KeyError and TypeError: a graph, segment or scenario record that lacks a field or has the wrong shape
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
