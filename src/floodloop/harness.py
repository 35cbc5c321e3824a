"""Experiment harness: single runs, the strategy x scenario matrix,
ablation diffs, and report emission.

The matrix and the ablation suite are each a batch of variants of one
config, and both run their batch through one launcher. It validates every
variant and takes its rainfall before the first run starts, so a batch
that cannot run, or whose scenario file does not fit every variant,
writes nothing; then the variants run in order, in a pool of `workers`
processes when that is above 1. The matrix lays its variants out
strategy x scenario x seed, so each (strategy, scenario) cell is one
consecutive chunk of `repeats` summaries, read once to give that cell's
row of `comparison.csv` and `semantic.csv`. `report` reads `comparison.csv`.

Every run writes the same artifact set into its own directory: per-step
metrics CSV, cycle log, trip log, instruction log, prompt log, scenario
record, density dumps with SVG heatmaps, and a JSON summary. Runs are
fully determined by their config, so equal configs produce byte-identical
CSVs. Every float in the metrics, cycle, comparison and semantic CSVs and
in the density dumps is written by `heatmap.csv_float`.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .backends import make_backend
from .config import ABLATIONS, RunConfig, config_from_dict
from .feedback import DecisionLoop, run_scenario
from .heatmap import csv_float, save_density_dump, write_heatmap
from .metrics import METRIC_NAMES, run_stability
from .semeval import scs, sds
from .world import save_scenario

METRICS_HEADER = ("step", "f", "t", "c", "r", "J", "gap", "delta", "triggered")
CYCLE_HEADER = (
    "cycle",
    "start_step",
    "end_step",
    "backend",
    "fallback_used",
    "h_raw",
    "h_projected",
    "h_conditional",
    "lambda",
    "f",
    "t",
    "c",
    "r",
    "J",
    "gap",
    "delta",
    "triggered",
    "delta_e",
    "n_instructions",
    "n_rejected",
)
TRIP_HEADER = ("id", "role", "departure_step", "outcome", "travel_steps", "planned_steps")
INSTRUCTION_HEADER = ("cycle", "region", "tag", "anchor", "window_start", "window_end", "status", "reason")


@dataclass
class RunArtifacts:
    out_dir: Path
    summary: dict
    loop: DecisionLoop | None


def run(config: RunConfig, keep_loop: bool = False) -> RunArtifacts:
    """Execute one full run and write its artifact set."""
    config.validate()
    backend = make_backend(config.strategy, config)
    fallback = make_backend("ruled", config)
    loop = DecisionLoop(config, backend, fallback)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    loop.run()

    save_scenario(out / "scenario.json", loop.scenario)
    _write_csv(out / "metrics.csv", METRICS_HEADER, _metrics_rows(loop))
    _write_csv(out / "cycles.csv", CYCLE_HEADER, _cycle_rows(loop))
    _write_csv(out / "trips.csv", TRIP_HEADER, _trip_rows(loop))
    instructions = map(itemgetter(*INSTRUCTION_HEADER), loop.instruction_rows)
    _write_csv(out / "instructions.csv", INSTRUCTION_HEADER, instructions)
    _write_prompt_log(out / "prompts.jsonl", loop)
    for step, dump in sorted(loop.engine.density_dumps.items()):
        save_density_dump(out / f"density_step{step:03d}.csv", dump)
        write_heatmap(out / f"density_step{step:03d}.svg", dump, "density")

    summary = _summarize_run(config, loop)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    (out / "config.json").write_text(config.to_json() + "\n")
    return RunArtifacts(out_dir=out, summary=summary, loop=loop if keep_loop else None)


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row; the callers write every float
    cell with `csv_float`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _metrics_rows(loop: DecisionLoop) -> Iterator[list]:
    by_step = {r.snapshot.step: r for r in loop.reports}
    for rec in loop.engine.step_records:
        report = by_step.get(rec.step)
        s = rec.snapshot
        row = [rec.step, *map(csv_float, (s.f, s.t, s.c, s.r, s.j))]
        if report is not None:
            yield row + [csv_float(report.gap), csv_float(report.delta), str(int(report.triggered))]
        else:
            yield row + ["", "", ""]


def _cycle_rows(loop: DecisionLoop) -> Iterator[list]:
    cycle_len = loop.config.feedback.cycle_len
    for r in loop.reports:
        s = r.snapshot
        yield [
            r.cycle,
            r.cycle * cycle_len,
            s.step,
            r.backend_used,
            int(r.fallback_used),
            *map(csv_float, (r.h_raw, r.h_projected, r.h_conditional, r.lam, s.f, s.t, s.c, s.r, s.j, r.gap, r.delta)),
            int(r.triggered),
            csv_float(r.delta_e),
            r.n_instructions,
            len(r.rejected_reasons),
        ]


def _trip_rows(loop: DecisionLoop) -> Iterator[list]:
    for t in loop.engine.trip_log.records:
        yield [t.agent_id, t.role.value, t.departure_step, t.outcome.value, t.travel_steps, t.planned_steps]


def _write_prompt_log(path: Path, loop: DecisionLoop) -> None:
    with open(path, "w") as fh:
        for cycle, text in loop.prompt_log:
            fh.write(json.dumps({"cycle": cycle, "text": text}) + "\n")


def _summarize_run(config: RunConfig, loop: DecisionLoop) -> dict:
    engine = loop.engine
    enroute = engine.trip_counts()[3]
    per_cycle = {name: [getattr(r.snapshot, name.lower()) for r in loop.reports] for name in (*METRIC_NAMES, "J")}
    summary = {
        "scenario": config.scenario,
        "strategy": config.strategy,
        "seed": config.seed,
        "steps": config.steps,
        "horizon_note": f"{config.steps} steps in {loop.n_cycles} cycles of {config.feedback.cycle_len}",
        "ablations": sorted(config.ablations),
        "cycles": loop.n_cycles,
        "triggers": sum(1 for r in loop.reports if r.triggered),
        "fallbacks": sum(1 for r in loop.reports if r.fallback_used),
        "rejected_instructions": sum(len(r.rejected_reasons) for r in loop.reports),
        "mean": {name: float(np.mean(values)) for name, values in per_cycle.items()},
        "variance": {name: float(np.var(values)) for name, values in per_cycle.items()},
        "final_j": loop.reports[-1].snapshot.j,
        "trips": {
            "spawned": engine.trip_log.spawned,
            "arrived": engine.trip_log.arrived,
            "on_time": engine.trip_log.arrived_on_time,
            "cancelled": engine.trip_log.cancelled,
            "enroute": enroute,
            # the active agents are the ones not yet terminal: enroute or waiting
            "waiting": len(engine.active) - enroute,
        },
        "scs": scs(loop.consistency_sets),
        # diversity is across regions, so it is undefined for a single one
        "sds": sds(loop.diversity_sets) if config.world.n_regions > 1 else None,
    }
    return summary


# --- batches of runs ---------------------------------------------------------

def _run_settings(settings: dict) -> dict:
    """The summary of one run of a config given as a dict, so that a worker
    process can take it."""
    return run(config_from_dict(settings)).summary


def _launch(config: RunConfig, variants: list[dict]) -> list[dict]:
    """The summaries of the runs of `config` with each variant's top-level
    settings in place of its own, in order; in a pool of `config.workers`
    processes when that is above 1. Every variant is validated, and its
    rainfall taken, before the first run starts, so a batch with one that
    cannot run writes nothing."""
    base = dataclasses.asdict(config)
    batch = [base | variant for variant in variants]
    for settings in batch:
        variant = config_from_dict(settings)
        variant.validate()
        run_scenario(variant)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(_run_settings, batch))
    return [_run_settings(settings) for settings in batch]


COMPARISON_HEADER = (
    "strategy",
    "scenario",
    "repeats",
    *(f"{stat}_{metric}" for metric in ("J", *METRIC_NAMES) for stat in ("mean", "var")),
    "triggers_mean",
)
SEMANTIC_TABLE_HEADER = ("module_setting", "stability", "scs", "sds")


def run_matrix(config: RunConfig, strategies: list[str], scenarios: list[str], repeats: int) -> dict:
    """strategies x scenarios x repeats runs; seeds config.seed ..
    config.seed + repeats - 1.

    Writes `comparison.csv`, the mean and variance over seeds of each
    cell's run means of J, f, t, c and r, and, when repeats >= 2,
    `semantic.csv`: each cell's stability (the mean over f, t, c and r of
    the cross-run variance) with its mean SCS and SDS. Returns the run
    count and the output directory.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for kind, names in (("strategy", strategies), ("scenario", scenarios)):
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            # each cell is one run directory per seed, and one chunk of the summaries below
            raise ValueError(f"{kind} {repeated[0]!r} is listed more than once")
    out_root = Path(config.out_dir)
    cells = [(st, sc) for st in strategies for sc in scenarios]
    variants = [
        {"strategy": st, "scenario": sc, "seed": seed, "out_dir": str(out_root / f"{st}_{sc}_seed{seed}")}
        for st, sc in cells
        for seed in range(config.seed, config.seed + repeats)
    ]
    summaries = _launch(config, variants)
    out_root.mkdir(parents=True, exist_ok=True)

    comparison, semantic = [], []
    for i, (strategy, scenario) in enumerate(cells):
        cell = summaries[i * repeats : (i + 1) * repeats]
        stats = [float(f([s["mean"][m] for s in cell])) for m in ("J", *METRIC_NAMES) for f in (np.mean, np.var)]
        stats.append(float(np.mean([s["triggers"] for s in cell])))
        comparison.append([strategy, scenario, repeats, *map(csv_float, stats)])
        if repeats >= 2:
            variances = run_stability([{m: s["mean"][m] for m in METRIC_NAMES} for s in cell])
            # every run of a cell has the same region count, so all or none of its SDS are defined
            cell_sds = "" if cell[0]["sds"] is None else csv_float(np.mean([s["sds"] for s in cell]))
            semantic.append(
                [
                    f"{strategy}/{scenario}",
                    csv_float(np.mean(list(variances.values()))),
                    csv_float(np.mean([s["scs"] for s in cell])),
                    cell_sds,
                ]
            )

    _write_csv(out_root / "comparison.csv", COMPARISON_HEADER, comparison)
    if semantic:
        _write_csv(out_root / "semantic.csv", SEMANTIC_TABLE_HEADER, semantic)
    return {"runs": len(variants), "out_dir": str(out_root)}


# --- ablation diffs ----------------------------------------------------------

DIFFABLE_FILES = ("metrics.csv", "cycles.csv", "trips.csv", "instructions.csv", "prompts.jsonl")


def run_ablation_suite(config: RunConfig) -> dict:
    """Full run plus one run per single ablation, then a file-level diff."""
    out_root = Path(config.out_dir)
    variants = [{"ablations": (), "out_dir": str(out_root / "full")}]
    variants += [{"ablations": (ab,), "out_dir": str(out_root / ab)} for ab in ABLATIONS]
    _launch(config, variants)
    full = out_root / "full"
    diff = {
        ab: [name for name in DIFFABLE_FILES if (full / name).read_bytes() != (out_root / ab / name).read_bytes()]
        for ab in ABLATIONS
    }
    report = {"changed_files": diff, "out_dir": str(out_root)}
    (out_root / "ablation_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def write_report(matrix_dir: str | Path, out_path: str | Path | None) -> str:
    """Markdown digest of the `comparison.csv` of a matrix output directory,
    written to `out_path`, or to its `report.md` when that is None."""
    matrix_dir = Path(matrix_dir)
    lines = ["# Comparison report", ""]
    header = "| strategy | scenario | mean J | var J | mean c | mean r | triggers |"
    lines += [header, "|" + "---|" * 7]
    with open(matrix_dir / "comparison.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            lines.append(
                f"| {row['strategy']} | {row['scenario']} | {float(row['mean_J']):.4f} | {float(row['var_J']):.6f} "
                f"| {float(row['mean_c']):.4f} | {float(row['mean_r']):.4f} | {float(row['triggers_mean']):.1f} |"
            )
    text = "\n".join(lines) + "\n"
    out_path = Path(out_path) if out_path else matrix_dir / "report.md"
    out_path.write_text(text)
    return text
