"""Semantic-level evaluation of strategy outputs.

Consistency is the mean pairwise cosine similarity of responses to one
prompt; diversity is the mean pairwise cosine distance across agents for
one prompt. Both average over the prompt corpus, which here is the set of
cycle prompts of a run. Scores are computed from the sum-of-embeddings
identity rather than an explicit O(n^2) pair loop; for unit vectors,
mean pairwise cosine = (|sum e|^2 - n) / (n (n - 1)).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InsufficientResponses


def _unit_rows(embeddings: Sequence[Sequence[float]]) -> np.ndarray:
    arr = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return arr / norms


def _mean_pairwise_cosine(embeddings: Sequence[Sequence[float]]) -> float:
    """In [-1, 1]: the identity can leave that range by a few ulps, for
    example 1.0000000000000002 for identical responses, so it is clamped."""
    n = len(embeddings)
    if n < 2:
        raise InsufficientResponses(f"need >= 2 responses, got {n}")
    unit = _unit_rows(embeddings)
    total = unit.sum(axis=0)
    return min(1.0, max(-1.0, float((np.dot(total, total) - n) / (n * (n - 1)))))


def scs(sets: Sequence[Sequence[Sequence[float]]]) -> float:
    """Mean over prompts of mean pairwise cosine similarity; in [-1, 1].

    `sets` holds, per prompt, one embedding (a float sequence or a 1-D
    float64 array) per response.
    """
    if not sets:
        raise InsufficientResponses("no response sets")
    return float(np.mean([_mean_pairwise_cosine(s) for s in sets]))


def sds(sets: Sequence[Sequence[Sequence[float]]]) -> float:
    """Mean over prompts of mean pairwise (1 - cosine); in [0, 2]; `sets` as for `scs`."""
    if not sets:
        raise InsufficientResponses("no response sets")
    return float(np.mean([1.0 - _mean_pairwise_cosine(s) for s in sets]))
