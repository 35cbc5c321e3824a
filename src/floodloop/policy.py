"""Hierarchical strategy generation under an entropy budget.

A global distribution over (verb, region) actions is projected so its
Shannon entropy never exceeds the threshold tau, then one action is
sampled per region; the regions whose draw is not NoOp act, each refined
into one local directive, drawn from probabilities whose conditional
entropy is capped by the global entropy. The refinement is one
`generate_regional` call per cycle over all the acting regions, in region
order. The penalty coefficient lambda tracks how far raw generation sits
from tau.

The local candidate weights read each region's flood and congestion
scores from the cycle's `StateSummary`, which copies the scores that
`metrics` computed once for the cycle-boundary world state; this module
computes none of its own.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidDistribution
from .rng import child_seeds, pystream

PROJECTION_BAND = 1e-4
LAMBDA_INIT = 1.0  # the entropy penalty lambda at a run's start
LAMBDA_ALPHA = 0.05  # the rate alpha of lambda's update


class Verb(str, Enum):
    REROUTE_REGION = "reroute_region"
    CLOSE_ROAD = "close_road"
    HOLD_TRANSIT = "hold_transit"
    DISPATCH_RELIEF = "dispatch_relief"
    NOOP = "noop"


VERB_ORDER = tuple(Verb)
VERB_INDEX = {verb: i for i, verb in enumerate(VERB_ORDER)}


class HighLevelAction(NamedTuple):
    """A (verb, region) action; it hashes and orders as the plain tuple."""

    verb: Verb
    region: int

    def key(self) -> str:
        return f"{self.verb.value}@{self.region}"


@lru_cache(maxsize=8)
def action_vocabulary(n_regions: int) -> tuple[HighLevelAction, ...]:
    """Verb-major canonical ordering; index 0 is the first verb at region 0."""
    return tuple(HighLevelAction(verb, region) for verb in VERB_ORDER for region in range(n_regions))


@dataclass(frozen=True)
class PolicyDistribution:
    """Probability vector over a duplicate-free list of actions.

    `validate` runs where a distribution enters the program from outside,
    in `ScriptedBackend`. Every other distribution is valid by
    construction.
    """

    support: tuple[HighLevelAction, ...]
    probs: tuple[float, ...]

    def validate(self) -> None:
        if not self.support:
            raise InvalidDistribution("empty support")
        if len(self.support) != len(self.probs):
            raise InvalidDistribution("support/probs length mismatch")
        if len(set(self.support)) != len(self.support):
            raise InvalidDistribution("duplicate actions in support")
        arr = np.asarray(self.probs, dtype=np.float64)
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise InvalidDistribution("probabilities must be finite and non-negative")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise InvalidDistribution(f"probabilities sum to {float(arr.sum())!r}")

    @staticmethod
    def onehot(action: HighLevelAction) -> "PolicyDistribution":
        return PolicyDistribution(support=(action,), probs=(1.0,))


def entropy_of(probs: Sequence[float]) -> float:
    """Shannon entropy in nats with the 0*ln(0) = 0 convention; the
    positive entries are picked out only when some entry is not positive."""
    arr = np.asarray(probs, dtype=np.float64)
    nz = arr if arr.size and arr.min() > 0.0 else arr[arr > 0]
    return float(-np.sum(nz * np.log(nz)))


def conditional_entropy(
    local_entropies: Mapping[HighLevelAction, float],
    global_dist: PolicyDistribution,
) -> float:
    """Expected local entropy under the global distribution.

    `local_entropies` maps each positive-mass action to the entropy of its
    local distribution, as `local_distribution_for` computes them; the sum
    of p * H runs in support order.
    """
    total = 0.0
    for action, p in zip(global_dist.support, global_dist.probs):
        if p > 0:
            total += p * local_entropies[action]
    return total


def _mix_toward_argmax(probs: np.ndarray, top: int, beta: float) -> np.ndarray:
    """(1 - beta) * probs + beta * onehot(top), as one array: beta is added
    at `top` alone, since adding the one-hot's 0 elsewhere changes no bit
    of a row without a negative zero."""
    mixed = (1.0 - beta) * probs
    mixed[top] += beta
    return mixed


def project_entropy(probs: np.ndarray, tau: float) -> np.ndarray:
    """Cap the entropy of a probability array at tau while preserving its argmax.

    Returns `probs` itself when already within budget; otherwise mixes
    toward the one-hot argmax, with the mixing weight found by bisection so
    the result lands in [tau - 1e-4, tau] (the one-hot itself when tau is
    no more than 1e-4). Mixing only ever adds mass to the argmax, so the
    mode never moves. A convex mix is used instead of temperature scaling
    because temperature cannot lower the entropy of a uniform distribution.
    """
    if entropy_of(probs) <= tau:
        return probs
    top = int(np.argmax(probs))
    if tau <= PROJECTION_BAND:
        return _mix_toward_argmax(probs, top, 1.0)
    # the one-hot at hi = 1 has entropy 0, below tau - PROJECTION_BAND
    lo, hi, h_hi = 0.0, 1.0, 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        h_mid = entropy_of(_mix_toward_argmax(probs, top, mid))
        if h_mid > tau:
            lo = mid
        else:
            hi, h_hi = mid, h_mid
        if h_hi >= tau - PROJECTION_BAND:
            break
    return _mix_toward_argmax(probs, top, hi)


def update_lambda(lam: float, alpha: float, h: float, tau: float) -> float:
    """lambda' = max(0, lambda + alpha * (H - tau)).

    The raw update can go negative, which would reward entropy deviation,
    so the coefficient is clamped at zero.
    """
    return max(0.0, lam + alpha * (h - tau))


@dataclass
class EntropyController:
    """Mutable entropy budget state: threshold tau from `PolicyConfig.tau`,
    whose range `RunConfig.validate` checks; penalty lambda, which starts
    at `LAMBDA_INIT` and moves at rate `LAMBDA_ALPHA`.
    """

    tau: float
    lam: float = field(default=LAMBDA_INIT, init=False)

    def observe(self, h: float) -> float:
        self.lam = update_lambda(self.lam, LAMBDA_ALPHA, h, self.tau)
        return self.lam


# --- regional refinement ---------------------------------------------------

class Directive(NamedTuple):
    """One region-local executable intent produced by refinement."""

    kind: str
    region: int
    cell: tuple[int, int] | None
    params: tuple[tuple[str, float], ...]

    def text(self) -> str:
        cell = f" cell=({self.cell[0]},{self.cell[1]})" if self.cell else ""
        params = " ".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.kind} region={self.region}{cell}" + (f" {params}" if params else "")


# verb -> its two candidate directives, as (kind, anchors on the region's
# worst road cell, params), in the column order of `_candidate_weights`;
# NoOp has none
_REFINEMENTS: dict[Verb, tuple[tuple[str, bool, tuple[tuple[str, float], ...]], ...]] = {
    Verb.REROUTE_REGION: (
        ("avoid_region", False, (("penalty", 4.0),)),
        ("avoid_region_strong", False, (("penalty", 8.0),)),
    ),
    Verb.CLOSE_ROAD: (("close_cell", True, ()), ("close_cell_brief", True, ())),
    Verb.HOLD_TRANSIT: (("hold_buses", False, ()), ("hold_buses_brief", False, ())),
    Verb.DISPATCH_RELIEF: (
        ("deploy_pumps", False, (("multiplier", 1.5),)),
        ("deploy_pumps_surge", False, (("multiplier", 5.0),)),
    ),
}


def _candidate_weights(
    verbs: np.ndarray, flood: np.ndarray, congestion: np.ndarray, blocked_roads: np.ndarray
) -> np.ndarray:
    """(n, 2) weights of the candidate directives of n actions that are not
    NoOp, from their verb codes (`VERB_INDEX`) and their regions' scores.

    Weights lean on the local observation so wetter or more congested
    regions prefer the stronger variant.
    """
    reroute = verbs == VERB_INDEX[Verb.REROUTE_REGION]
    relief = verbs == VERB_INDEX[Verb.DISPATCH_RELIEF]
    first = np.select([reroute, relief], [1.0 + congestion, 1.0], 1.0 + flood)
    surge = (0.25 + flood) + np.where(blocked_roads >= 3, 1.0, 0.0)
    second = np.select(
        [reroute, verbs == VERB_INDEX[Verb.CLOSE_ROAD], verbs == VERB_INDEX[Verb.HOLD_TRANSIT]],
        [0.5 + flood, 0.5, 0.75],
        surge,
    )
    return np.stack((first, second), axis=1)


@dataclass(frozen=True)
class LocalPolicies:
    """The capped local directive probabilities of each positive-mass
    action of one global distribution that is not NoOp, and the entropies
    of all of them (0.0 for a NoOp, which has no directives)."""

    probs: dict[HighLevelAction, tuple[float, ...]]
    entropies: dict[HighLevelAction, float]


def local_distribution_for(
    dist: PolicyDistribution,
    flood: Sequence[float],
    congestion: Sequence[float],
    blocked_roads: Sequence[int],
    cap: float,
) -> LocalPolicies:
    """Local directive probabilities of every positive-mass action of
    `dist`, each with its entropy capped at `cap`, in one array pass.

    `flood`, `congestion` and `blocked_roads` are indexed by region. The
    decision loop passes cap = min(global entropy, tau), so uncertainty
    never grows while descending the hierarchy and a deterministic parent
    forces a deterministic child; `math.inf` leaves the weights uncapped.
    A NoOp has no candidate directives, so it gets no probabilities and
    entropy 0.0.
    Only rows whose entropy exceeds `cap` go through `project_entropy`.
    """
    actions = [a for a, p in zip(dist.support, dist.probs) if p > 0]
    probs: dict[HighLevelAction, tuple[float, ...]] = {}
    entropies = dict.fromkeys(actions, 0.0)
    refined = [a for a in actions if a.verb is not Verb.NOOP]
    if refined:
        regions = np.array([a.region for a in refined])
        weights = _candidate_weights(
            np.array([VERB_INDEX[a.verb] for a in refined]),
            np.asarray(flood, dtype=np.float64)[regions],
            np.asarray(congestion, dtype=np.float64)[regions],
            np.asarray(blocked_roads)[regions],
        )
        rows = weights / (weights[:, 0] + weights[:, 1])[:, None]
        terms = rows * np.log(rows)  # weights are positive, so no 0 * ln(0)
        h = -(terms[:, 0] + terms[:, 1])
        local, hs = rows.tolist(), h.tolist()
        for i in np.flatnonzero(h > cap).tolist():
            capped = project_entropy(rows[i], cap)
            local[i], hs[i] = capped.tolist(), entropy_of(capped)
        probs.update(zip(refined, map(tuple, local)))
        entropies.update(zip(refined, hs))
    return LocalPolicies(probs, entropies)


def generate_regional(
    actions: Sequence[HighLevelAction],
    worst: Sequence[tuple[int, int] | None],
    local_probs: Mapping[HighLevelAction, Sequence[float]],
    seed: int,
    cycle: int,
) -> list[Directive]:
    """The one local directive of each sampled global action that is not
    NoOp, in the order of `actions`: a draw from the action's two
    probabilities in `local_probs`, which `local_distribution_for` made.
    `worst` holds each region's worst road cell, or None without roads,
    and closures anchor on it.

    Each region draws from its own stream, seeded with
    `derive_seed(seed, "regional", cycle, region)`; one `Random` is reseeded
    per region, which gives the state a fresh one would have. The pick
    `random() * (p0 + p1) >= p0` is what `choices(..., k=1)` computes over
    two weights.
    """
    region_seed = child_seeds(seed, "regional", cycle)
    rng = random.Random()
    directives = []
    for action in actions:
        p0, p1 = local_probs[action]
        rng.seed(region_seed(action.region))
        kind, anchored, params = _REFINEMENTS[action.verb][rng.random() * (p0 + p1) >= p0]
        directives.append(Directive(kind, action.region, worst[action.region] if anchored else None, params))
    return directives


# --- global generation ------------------------------------------------------

@dataclass
class GlobalPlan:
    """Outcome of one global generation pass; `sampled` holds the drawn
    actions that are not NoOp, in region order."""

    projected: PolicyDistribution
    sampled: list[HighLevelAction]
    h_raw: float
    h_projected: float


def sample_per_region(dist: PolicyDistribution, seed: int, cycle: int) -> list[HighLevelAction]:
    """The drawn actions that are not NoOp, in region order: the
    distribution restricted to a region is renormalized and sampled,
    visiting only the regions that carry mass, in region order. Each draw
    is the one `choices(actions, weights, k=1)` makes: `bisect` of
    `random() * total` into the cumulative weights."""
    by_region: dict[int, list[tuple[HighLevelAction, float]]] = {}
    for action, p in zip(dist.support, dist.probs):
        if p > 0:
            by_region.setdefault(action.region, []).append((action, p))
    draw = pystream(seed, "policy-sample", cycle).random
    acting = []
    for region in sorted(by_region):
        pairs = by_region[region]
        cum = list(accumulate(p for _, p in pairs))
        action = pairs[bisect(cum, draw() * cum[-1], 0, len(cum) - 1)][0]
        if action.verb is not Verb.NOOP:
            acting.append(action)
    return acting


def generate_global(
    proposal_dist: PolicyDistribution,
    controller: EntropyController,
    seed: int,
    cycle: int,
    entropy_control: bool,
) -> GlobalPlan:
    """Project a backend's raw distribution, sample actions, update lambda;
    with `entropy_control` off, the raw distribution is sampled and lambda
    stays.

    Lambda is updated from the pre-projection entropy: the budget controller
    reacts to how uncertain generation was before enforcement.
    """
    h_raw = entropy_of(proposal_dist.probs)
    projected = proposal_dist
    if entropy_control:
        probs = project_entropy(np.asarray(proposal_dist.probs, dtype=np.float64), controller.tau)
        projected = PolicyDistribution(proposal_dist.support, tuple(probs.tolist()))
        controller.observe(h_raw)
    return GlobalPlan(
        projected=projected,
        sampled=sample_per_region(projected, seed, cycle),
        h_raw=h_raw,
        h_projected=entropy_of(projected.probs),
    )
