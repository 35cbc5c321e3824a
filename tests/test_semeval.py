"""Consistency and diversity scores."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from floodloop import semeval as se
from floodloop.errors import InsufficientResponses


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
