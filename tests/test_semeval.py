"""Consistency/diversity scores and the stability report table."""

from __future__ import annotations

import csv
import itertools

import numpy as np
import pytest

from floodloop import harness
from floodloop import semeval as se
from floodloop.errors import InsufficientResponses
from floodloop.metrics import run_stability


def rset(embeddings):
    """One prompt's responses: a tuple of float-tuple embeddings."""
    return tuple(tuple(float(v) for v in e) for e in embeddings)


def brute_force_mean_cosine(embeddings):
    unit = [np.asarray(e) / np.linalg.norm(e) for e in embeddings]
    sims = [float(np.dot(a, b)) for a, b in itertools.combinations(unit, 2)]
    return float(np.mean(sims))


def test_scs_identical_responses():
    e = (1.0, 0.0, 0.0)
    assert se.scs([rset([e, e, e])]) == pytest.approx(1.0, abs=1e-12)


def test_identical_non_unit_responses_score_exactly_one():
    # the sum identity gives 1 + 2 ulps and 1 + 6 ulps for these before clamping
    for e in ((3.0, 4.0), (0.5, 0.5, 0.5)):
        sets = [rset([e, e, e])]
        assert se.scs(sets) == 1.0
        assert se.sds(sets) == 0.0


def test_scs_orthogonal():
    sets = [rset([(1, 0, 0), (0, 1, 0)])]
    assert se.scs(sets) == pytest.approx(0.0, abs=1e-12)


def test_scs_one_third_fixture():
    # e1 = e2 orthogonal to e3: pairs (1, 0, 0) -> mean 1/3
    sets = [rset([(1, 0, 0), (1, 0, 0), (0, 1, 0)])]
    assert se.scs(sets) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_sds_identical():
    e = (0.5, 0.5, 0.0)
    assert se.sds([rset([e, e])]) == pytest.approx(0.0, abs=1e-12)


def test_sds_orthogonal():
    assert se.sds([rset([(1, 0, 0), (0, 1, 0)])]) == pytest.approx(1.0, abs=1e-12)


def test_sds_two_thirds_fixture():
    sets = [rset([(1, 0, 0), (1, 0, 0), (0, 1, 0)])]
    assert se.sds(sets) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_incremental_equals_brute_force_up_to_20():
    rng = np.random.default_rng(13)
    for n in range(2, 21):
        embeddings = [rng.standard_normal(16) for _ in range(n)]
        sets = [rset(embeddings)]
        expected = brute_force_mean_cosine(embeddings)
        assert se.scs(sets) == pytest.approx(expected, abs=1e-9)
        assert se.sds(sets) == pytest.approx(1.0 - expected, abs=1e-9)


def test_complementarity_per_pair_set():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        sets = [rset([rng.standard_normal(8) for _ in range(n)])]
        assert se.scs(sets) + se.sds(sets) == pytest.approx(1.0, abs=1e-9)


def test_reorder_invariance():
    rng = np.random.default_rng(31)
    embeddings = [rng.standard_normal(8) for _ in range(6)]
    a = [rset(embeddings)]
    b = [rset(list(reversed(embeddings)))]
    assert se.scs(a) == pytest.approx(se.scs(b), abs=1e-12)
    assert se.sds(a) == pytest.approx(se.sds(b), abs=1e-12)


def test_mean_over_prompts():
    s1 = rset([(1, 0), (1, 0)])      # scs 1
    s2 = rset([(1, 0), (0, 1)])      # scs 0
    assert se.scs([s1, s2]) == pytest.approx(0.5)


def test_insufficient_responses():
    with pytest.raises(InsufficientResponses):
        se.scs([rset([(1, 0)])])
    with pytest.raises(InsufficientResponses):
        se.sds([])


# --- stability report -----------------------------------------------------------------

def test_stability_identical_runs_zero():
    runs = [{"f": 0.4, "t": 0.5, "c": 0.0, "r": 1.0}] * 3
    rows = se.stability_report({"full": runs}, {}, {})
    assert rows[0].stability == 0.0
    assert run_stability(runs) == {"f": 0.0, "t": 0.0, "c": 0.0, "r": 0.0}


def test_stability_hand_variance():
    runs = [{"f": 0.4}, {"f": 0.6}]
    rows = se.stability_report({"setting": runs}, {"setting": 0.8}, {"setting": 0.4})
    assert rows[0].stability == pytest.approx(0.01)
    assert rows[0].scs == 0.8
    assert rows[0].sds == 0.4


def read_semantic_table(path) -> list[dict[str, float | str | None]]:
    """The rows `harness.write_semantic_table` wrote, with empty scores as None."""
    with open(path, newline="") as fh:
        return [
            {
                "module_setting": rec["module_setting"],
                "stability": float(rec["stability"]),
                "scs": float(rec["scs"]) if rec["scs"] else None,
                "sds": float(rec["sds"]) if rec["sds"] else None,
            }
            for rec in csv.DictReader(fh)
        ]


def test_semantic_table_roundtrip_reference_row(tmp_path):
    # the published-style reference row is a parsing fixture only
    rows = [se.SemanticRow("full framework", 0.0047, 0.872, 0.443)]
    path = tmp_path / "semantic.csv"
    harness.write_semantic_table(path, rows)
    back = read_semantic_table(path)
    assert back[0]["stability"] == pytest.approx(0.0047)
    assert back[0]["scs"] == pytest.approx(0.872)
    assert back[0]["sds"] == pytest.approx(0.443)
