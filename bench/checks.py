"""Output checks on one run's artifacts, and the digest that pins them."""

from __future__ import annotations

import hashlib
from pathlib import Path

DIGEST_FILES = ("metrics.csv", "cycles.csv", "trips.csv", "instructions.csv", "prompts.jsonl", "summary.json")

# Documented ranges of the semantic scores (`floodloop.semeval`), and the
# float rounding they are judged at: the package's own tests compare these
# scores with abs=1e-12. `scs` is (|sum e|^2 - n) / (n (n - 1)) over unit
# vectors, so identical responses can give 1 plus a few ulps.
SCORE_RANGES = {"scs": (-1.0, 1.0), "sds": (0.0, 2.0)}
ROUNDING = 1e-12


def _in_range(value, low: float, high: float, slack: float = 0.0) -> bool:
    return isinstance(value, (int, float)) and low - slack <= value <= high + slack


def check_summary(summary: dict) -> list[str]:
    """Every invariant of `summary.json` that fails, as readable lines."""
    problems = []
    trips = summary["trips"]
    accounted = trips["arrived"] + trips["cancelled"] + trips["enroute"] + trips["waiting"]
    if trips["spawned"] != accounted:
        problems.append(
            f"spawned {trips['spawned']} != arrived + cancelled + enroute + waiting = {accounted}"
        )
    for name in ("f", "t", "c", "r"):
        value = summary["mean"][name]
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            problems.append(f"mean {name} = {value!r} outside [0, 1]")
    for name, (low, high) in SCORE_RANGES.items():
        value = summary[name]
        if value is not None and not _in_range(value, low, high, ROUNDING):
            problems.append(f"{name} = {value!r} outside [{low:g}, {high:g}] by more than {ROUNDING:g}")
    return problems


def rounding_notes(summary: dict) -> list[str]:
    """Scores that leave their documented range by rounding only (ROADMAP
    item 2f): not a failed check, but reported."""
    return [
        f"{name} = {summary[name]!r} leaves [{low:g}, {high:g}] by rounding only"
        for name, (low, high) in SCORE_RANGES.items()
        if _in_range(summary[name], low, high, ROUNDING) and not _in_range(summary[name], low, high)
    ]


def output_digest(out_dir: str | Path) -> str:
    """sha256 over the deterministic artifacts, in a fixed order."""
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update(name.encode() + b"\0")
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()
