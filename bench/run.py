"""The floodloop benchmark: times `floodloop.harness.run` from outside.

    python3 bench/run.py --workload storm --seed 7 --seconds 50 --trace 0

`--trace 0` measures: one untimed warm-up run, then rounds of the
workload's inputs (one run each, one at a time) until the next round would
end past `--seconds`. Only the loop boundaries are wrapped. It prints the
end-to-end metrics. `--trace 1` makes one traced run of the first input,
with every public function of the package wrapped, and prints the
per-layer metrics. Both check every run's outputs. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. `--workload all` runs every workload in turn.

Artifacts, the spans of the traced run and a report with the run
context go to `.bench_out/<workload>/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))  # before `main` pins the process to one core
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

if not (ROOT / "src" / "floodloop" / "__init__.py").is_file():
    print(f"no floodloop package under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
    raise SystemExit(2)

from floodloop import harness

from checks import check_summary, output_digest, rounding_notes
from hostspeed import SpeedTimeline
from layers import TIMED_POINTS, TRACE_POINTS, RunProbe, layer_metrics, missing_spans
from spans import Tracer, child_intervals, percentile, span_table
from stub import StubServer
from workloads import WORKLOADS

MIN_COVERAGE = 0.95
# printed and reported, but not in BENCHMARK.json: its spread over ten seeds
# (about 0.14) is more than a third of the largest bound allowed
UNGATED = {"step_ms_p90": "ms"}


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """name -> unit of the end-to-end and the per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


@dataclass
class Timings:
    run_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    decide_s: list[float] = field(default_factory=list)


def timings(spans, start: float, end: float, length) -> Timings:
    """Run, set-up, step and decide times, each interval measured by `length(a, b)`."""

    def lengths(name):
        return [length(a, b) for n, a, b, _ in spans if n == name]

    return Timings(
        run_s=length(start, end),
        setup_s=lengths("feedback.loop_init"),
        step_s=lengths("engine.step"),
        decide_s=[
            length(*cycle) - sum(length(*steps) for steps in inner)
            for cycle, inner in child_intervals(spans, "feedback.run_cycle", "engine.run_steps")
        ],
    )


@dataclass
class RunResult:
    seed: int
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    finished: bool = False
    agent_steps: int = 0
    raw: Timings = field(default_factory=Timings)  # wall seconds
    ref: Timings | None = None  # seconds at the reference host speed (timed runs)


class Bench:
    def __init__(self, workload, seed: int, stub=None):
        self.workload = workload
        self.seed = seed
        self.stub = stub
        self.out = OUT_ROOT / workload.name
        self.results: list[RunResult] = []

    def config(self, seed: int):
        return self.workload.config(
            seed, str(self.out / f"seed{seed}"), endpoint=self.stub.endpoint if self.stub else None
        )

    def run(self, seed: int, points=(), keep_loop: bool = False, calibrate: bool = False):
        """One `harness.run` with the named span points wrapped and, with
        `calibrate`, host-speed samples around it and before each step and
        cycle.

        Returns the result, the tracer, its probe and the loop (when kept).
        An exception or a failed output check is recorded as a problem.
        """
        result = RunResult(seed)
        self.results.append(result)
        timeline = SpeedTimeline() if calibrate else None
        tracer = Tracer()
        probe = RunProbe(tracer, timeline)
        try:
            cfg = self.config(seed)
            gc.collect()
            with tracer:
                tracer.install(probe.hooks(points))
                if timeline:
                    timeline.sample()
                start = time.perf_counter()
                artifacts = harness.run(cfg, keep_loop=keep_loop)
                end = time.perf_counter()
                if timeline:
                    timeline.sample()
            result.finished = True
            result.problems += [f"seed {seed}: {p}" for p in check_summary(artifacts.summary)]
            result.notes += [f"seed {seed}: {n}" for n in rounding_notes(artifacts.summary)]
            result.digest = output_digest(artifacts.out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result.problems.append(f"seed {seed}: run raised {sys.exc_info()[1]!r}")
            return result, tracer, probe, None
        result.agent_steps = probe.agent_steps
        if timeline:
            result.raw = timings(tracer.spans, start, end, timeline.wall)
            result.ref = timings(tracer.spans, start, end, timeline.scaled)
        else:
            result.raw = timings(tracer.spans, start, end, lambda a, b: b - a)
        return result, tracer, probe, artifacts.loop

    # --- checks over all runs of the invocation ---------------------------

    def problems(self) -> list[str]:
        out = [p for r in self.results for p in r.problems]
        digests: dict[int, set[str]] = {}
        for r in self.results:
            if r.digest is not None:
                digests.setdefault(r.seed, set()).add(r.digest)
        out += [f"seed {s}: runs gave {len(d)} different output digests" for s, d in digests.items() if len(d) > 1]
        return out

    def failed_runs(self) -> int:
        return sum(1 for r in self.results if r.problems)

    def outputs_match(self) -> bool | None:
        """Whether the digests equal those recorded from the seed commit (information only)."""
        known = json.loads((BENCH_DIR / "seed_digests.json").read_text()).get(self.workload.name, {})
        pairs = [(known[str(r.seed)], r.digest) for r in self.results if str(r.seed) in known and r.digest]
        return all(a == b for a, b in pairs) if pairs else None

    def context(self) -> dict:
        cfg = json.loads(self.config(self.seed).to_json())
        cfg["out_dir"] = cfg["external_endpoint"] = None
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "input_seeds": self.workload.seeds(self.seed),
            "git_sha": git_sha(),
            "config_sha256": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": NPROC,
            "outputs_match": self.outputs_match(),
        }


def measure(bench: Bench, seconds: float) -> list[list[RunResult]]:
    """Warm-up, then whole rounds of the workload's inputs until the next
    round would end past `seconds`."""
    seeds = bench.workload.seeds(bench.seed)
    bench.run(seeds[0])
    rounds: list[list[RunResult]] = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        rounds.append([bench.run(s, TIMED_POINTS, calibrate=True)[0] for s in seeds])
        now = time.perf_counter()
        if now - begin + (now - started) > seconds:
            break
    return rounds


def end_to_end(rounds: list[list[RunResult]], scale: str) -> dict[str, float]:
    """Metrics from the `raw` or `ref` timings of every run that finished,
    whether or not its outputs passed the checks. A percentile is left out
    when fewer than ten samples lie beyond it."""
    done = [[getattr(r, scale) for r in rnd if r.finished] for rnd in rounds]
    runs = [t for rnd in done for t in rnd]
    if not runs:
        return {}
    agent_steps = sum(r.agent_steps for rnd in rounds for r in rnd if r.finished)
    steps = [s * 1e3 for t in runs for s in t.step_s]
    decides = [s * 1e3 for t in runs for s in t.decide_s]
    m = {
        # a round's runs cover different inputs, so take their mean, then the median over rounds
        "run_s": statistics.median(statistics.fmean(t.run_s for t in rnd) for rnd in done if rnd),
        "setup_s": statistics.median(s for t in runs for s in t.setup_s),
        "agent_steps_per_s": agent_steps / sum(sum(t.step_s) for t in runs),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "decide_ms_p50": percentile(decides, 50),
        "decide_ms_p90": percentile(decides, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: v for k, v in m.items() if v is not None}


def trace(bench: Bench) -> tuple[dict, list[str]]:
    """Untraced reference runs, then one traced run of the first input; the
    per-layer metrics and any guard that failed."""
    seed = bench.workload.seeds(bench.seed)[0]
    bench.run(seed)
    reference = bench.run(seed)[0]
    if bench.stub:
        bench.stub.reset_counters()
    result, tracer, probe, loop = bench.run(seed, [name for _, name, _ in TRACE_POINTS], keep_loop=True)
    if loop is None:
        return {}, []
    table = span_table(tracer.spans)
    guards = [f"span {name} was never entered" for name in missing_spans(tracer.entered, bench.workload.name)]
    covered = sum(s.self_s for s in table.values())
    coverage = covered / result.raw.run_s
    if coverage < MIN_COVERAGE:
        guards.append(f"span self times cover {coverage:.3f} of the traced run, below {MIN_COVERAGE}")
    if probe.agent_steps != tracer.entered["mobility.step_agent"]:
        guards.append(
            f"agents counted before each step ({probe.agent_steps}) != step_agent calls "
            f"({tracer.entered['mobility.step_agent']})"
        )
    summary = json.loads((bench.out / f"seed{seed}" / "summary.json").read_text())
    wire = bench.stub.wire_bytes / bench.stub.requests if bench.stub and bench.stub.requests else 0.0
    m = layer_metrics(table, probe, loop, summary, wire)
    m["trace.run_s"] = result.raw.run_s
    m["trace.overhead_s"] = result.raw.run_s - reference.raw.run_s
    m["trace.coverage_ratio"] = coverage
    write_trace(bench.out, tracer.spans, table)
    return m, guards


def write_trace(out: Path, spans, table) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "spans.csv", "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        t0 = spans[0][1] if spans else 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
    layers = {name: vars(stats) for name, stats in sorted(table.items(), key=lambda kv: -kv[1].self_s)}
    (out / "layers.json").write_text(json.dumps(layers, indent=2) + "\n")


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from `.git`, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- reporting ---------------------------------------------------------------

def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.4g} [q1 {q1:.4g}, q3 {q3:.4g}] n={len(values)}"


def print_report(bench: Bench, metrics: dict, raw: dict, rounds, units: dict[str, str]) -> None:
    runs = [r.raw for rnd in rounds for r in rnd if r.finished]
    pools = {
        "run_s": [t.run_s for t in runs],
        "setup_s": [s for t in runs for s in t.setup_s],
        "step_ms": [s * 1e3 for t in runs for s in t.step_s],
        "decide_ms": [s * 1e3 for t in runs for s in t.decide_s],
    }
    w = bench.workload
    print(f"== {w.name}: {len(w.seeds(bench.seed))} inputs per round, {len(rounds)} round(s), seed {bench.seed}")
    print(f"  {'metric':<20} {'at ref. speed':<17} {'wall clock':<12} wall-clock samples")
    for name, unit in units.items():
        if name not in metrics:
            print(f"  {name:<20} n/a (fewer than ten samples beyond it)")
            continue
        pool = pools.get(name) or pools.get(name.rsplit("_", 1)[0], [])
        note = "  (not gated)" if name in UNGATED else ""
        wall = raw.get(name, float("nan"))
        print(f"  {name:<20} {metrics[name]:<12.6g} {unit:<4} {wall:<12.6g} {quartiles(pool)}{note}")


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    e2e_units, layer_units = declared_metrics()
    units = layer_units if traced else e2e_units | UNGATED
    report: dict = {"trace": traced}
    with StubServer() if workload.uses_stub else nullcontext() as stub:
        bench = Bench(workload, seed, stub)
        if traced:
            metrics, guards = trace(bench)
        else:
            rounds, guards = measure(bench, seconds), []
            metrics, raw = end_to_end(rounds, "ref"), end_to_end(rounds, "raw")
            report["wall_clock_metrics"] = raw
    attempted, failed = len(bench.results), bench.failed_runs()
    problems = bench.problems() + guards
    notes = sorted({n for r in bench.results for n in r.notes})
    if workload.gated:
        problems += [f"metric {name} was not measured" for name in units if name not in metrics]
        problems += [f"metric {name} is not declared in BENCHMARK.json" for name in metrics if name not in units]
    if traced:
        print(f"== {workload.name}: traced run of seed {seed}")
        for name, value in metrics.items():
            print(f"  {name:<34} {value:.6g} {units.get(name, '')}")
    else:
        print_report(bench, metrics, raw, rounds, units)
    print(f"  {'fail_ratio':<20} {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")
    for n in notes:
        print(f"  NOTE: {n}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    context = bench.context()
    print("  context: " + json.dumps(context, sort_keys=True))
    report |= {
        "context": context,
        "metrics": metrics,
        "problems": problems,
        "notes": notes,
        "digests": {str(r.seed): r.digest for r in bench.results},
    }
    bench.out.mkdir(parents=True, exist_ok=True)
    (bench.out / f"report-trace{int(traced)}.json").write_text(json.dumps(report, indent=2) + "\n")
    return {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k not in UNGATED},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    # the stub listens on loopback; never send its requests through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    # one core for every thread: the host-speed samples then time the core the
    # stub runs on too, and requests need no wake-up across cores
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = None
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if not result["metrics"]:
            print(f"{name}: no run finished, so there is nothing to report", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
