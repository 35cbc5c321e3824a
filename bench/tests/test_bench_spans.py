"""Span arithmetic, the percentile rule and hook removal."""

import sys
import types

import pytest

from spans import Hook, Tracer, child_intervals, percentile, span_table


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
    ]
    table = span_table(spans)
    assert table["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert table["a"].self_s == pytest.approx(3.0 - 1.0)
    assert table["b"].self_s == pytest.approx(1.0)
    assert table["c"].self_s == pytest.approx(4.0)
    assert table["root"].total_s == pytest.approx(10.0)
    assert sum(s.self_s for s in table.values()) == pytest.approx(10.0)


def test_self_time_pools_repeated_names():
    spans = [
        ("step", 0.0, 5.0, -1),
        ("plan", 1.0, 2.0, 0),
        ("plan", 3.0, 4.5, 0),
        ("step", 6.0, 7.0, -1),
    ]
    table = span_table(spans)
    assert table["step"].calls == 2
    assert table["step"].self_s == pytest.approx(5.0 - 2.5 + 1.0)
    assert table["plan"].calls == 2
    assert table["plan"].self_s == pytest.approx(2.5)


def test_child_intervals_pairs_each_parent_with_its_children():
    spans = [
        ("cycle", 0.0, 10.0, -1),
        ("steps", 2.0, 9.0, 0),
        ("cycle", 10.0, 13.0, -1),
        ("steps", 11.0, 12.0, 2),
    ]
    assert child_intervals(spans, "cycle", "steps") == [((0.0, 10.0), [(2.0, 9.0)]), ((10.0, 13.0), [(11.0, 12.0)])]


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90) is not None  # 10 samples above 89.1
    assert percentile(list(range(91)), 90) is None  # 9 samples above 81
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None


def test_percentile_counts_ties_as_not_beyond():
    assert percentile([1.0] * 200, 50) is None


@pytest.fixture
def fake_module(monkeypatch):
    """A module whose `outer` calls `inner` and `Box.work` through lookups."""
    module = types.ModuleType("bench_fake_module")

    class Box:
        def work(self, x):
            return module.inner(x) + 1

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    def outer(x):
        return Box().work(x)

    module.Box, module.inner, module.outer = Box, inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_tracer_records_nesting_and_restores_originals(fake_module):
    originals = (fake_module.outer, fake_module.inner, vars(fake_module.Box)["work"])
    seen = []
    with Tracer() as tracer:
        tracer.install(
            [
                Hook("bench_fake_module:outer", "fake.outer"),
                Hook("bench_fake_module:Box.work", "fake.work"),
                Hook("bench_fake_module:inner", "fake.inner", after=lambda args, result: seen.append(result)),
            ]
        )
        assert fake_module.outer(3) == 7
        with pytest.raises(ValueError):
            fake_module.outer(-1)
    assert (fake_module.outer, fake_module.inner, vars(fake_module.Box)["work"]) == originals
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [
        ("fake.outer", -1), ("fake.work", 0), ("fake.inner", 1),
        ("fake.outer", -1), ("fake.work", 3), ("fake.inner", 4),
    ]
    assert tracer.entered["fake.inner"] == 2
    assert seen == [6]  # `after` runs only when the call returns
    table = span_table(tracer.spans)
    assert sum(s.self_s for s in table.values()) == pytest.approx(table["fake.outer"].total_s)
