"""Spans recorded from outside the package, by wrapping its public
functions where they are looked up.

A `Hook` names an attribute (`"floodloop.engine:step_agent"` or
`"floodloop.engine:SimulationEngine.step"`) and the span it records. The
`Tracer` swaps each attribute for a wrapper, keeps every span in memory
as `(name, start, end, parent)` and puts the originals back on `remove`.
The package runs single-threaded, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class Hook:
    target: str
    name: str
    before: Callable | None = None  # before(args), outside the span
    after: Callable | None = None  # after(args, result), outside the span

    def resolve(self) -> tuple[object, str]:
        """(owner, attribute): a module or class and the name patched on it."""
        module_name, _, path = self.target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.entered: Counter[str] = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self, hooks: Sequence[Hook]) -> None:
        for hook in hooks:
            owner, attr = hook.resolve()
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, hook))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        """Put every original back and check that none is still wrapped."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
            current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        spans, stack, entered, clock = self.spans, self._stack, self.entered, time.perf_counter
        name, before, after = hook.name, hook.before, hook.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            entered[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_table(spans: Sequence[tuple[str, float, float, int]]) -> dict[str, SpanStats]:
    """Calls, inclusive time and self time per span name."""
    table: dict[str, SpanStats] = {}
    for name, start, end, parent in spans:
        stats = table.setdefault(name, SpanStats())
        stats.calls += 1
        stats.total_s += end - start
        stats.self_s += end - start
        if parent >= 0:
            table.setdefault(spans[parent][0], SpanStats()).self_s -= end - start
    return table


def child_intervals(spans: Sequence[tuple[str, float, float, int]], parent_name: str, child_name: str):
    """Per `parent_name` span: its (start, end) and those of its direct `child_name` children."""
    parents = {i: ((start, end), []) for i, (n, start, end, _) in enumerate(spans) if n == parent_name}
    for name, start, end, parent in spans:
        if name == child_name and parent in parents:
            parents[parent][1].append((start, end))
    return list(parents.values())


def percentile(samples: Sequence[float], q: float) -> float | None:
    """The q-th percentile (linear interpolation), or None unless at least
    ten samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for s in ordered if s > value)
    return value if beyond >= 10 else None
