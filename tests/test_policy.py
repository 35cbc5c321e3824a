"""Entropy math, projection, the lambda controller, hierarchical generation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop import policy as p
from floodloop.config import PolicyConfig
from floodloop.errors import InvalidDistribution

POLICY = PolicyConfig()


def controller(tau=POLICY.tau):
    """An entropy controller started as the decision loop starts it, from `PolicyConfig`."""
    return p.EntropyController(tau)


def dist_over(probs, n_regions=None):
    n_regions = n_regions or len(probs)
    vocab = p.action_vocabulary(n_regions)
    return p.PolicyDistribution(support=tuple(vocab[: len(probs)]), probs=tuple(probs))


@dataclass(frozen=True)
class Observation:
    """What the former per-action code read of one region."""

    flood_score: float
    congestion_score: float
    blocked_roads: int
    worst_road_cell: tuple[int, int] | None


def obs(flood=0.5, congestion=0.5, blocked=0, cell=(0, 0)):
    return Observation(flood_score=flood, congestion_score=congestion, blocked_roads=blocked, worst_road_cell=cell)


def local_policies_for(action, observation, cap, n_regions=4):
    """`local_distribution_for` of a point mass on `action`, whose region sees `observation`."""
    flood, congestion, blocked = [0.0] * n_regions, [0.0] * n_regions, [0] * n_regions
    flood[action.region] = observation.flood_score
    congestion[action.region] = observation.congestion_score
    blocked[action.region] = observation.blocked_roads
    return p.local_distribution_for(p.PolicyDistribution.onehot(action), flood, congestion, blocked, cap)


def local_for(action, observation, cap, n_regions=4):
    return local_policies_for(action, observation, cap, n_regions).probs[action]


def entropies(locals_map):
    return {action: p.entropy_of(probs) for action, probs in locals_map.items()}


# --- entropy ---------------------------------------------------------------------

def test_entropy_uniform_four():
    assert p.entropy_of([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_deterministic():
    assert p.entropy_of([1.0]) == 0.0


def test_entropy_hand_value():
    # -(0.5 ln 0.5 + 2 * 0.25 ln 0.25) = 1.0397207708399179
    assert p.entropy_of([0.5, 0.25, 0.25]) == pytest.approx(1.0397207708399179, abs=1e-9)


def test_entropy_zero_prob_terms_ignored():
    assert p.entropy_of([0.5, 0.5, 0.0]) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        raw = rng.uniform(0, 1, size=n) + 1e-9
        probs = raw / raw.sum()
        h = p.entropy_of(probs)
        assert -1e-12 <= h <= math.log(n) + 1e-9


def test_invalid_distributions_rejected():
    with pytest.raises(InvalidDistribution):
        dist_over([0.5, 0.6]).validate()
    with pytest.raises(InvalidDistribution):
        dist_over([]).validate()
    with pytest.raises(InvalidDistribution):
        dist_over([-0.1, 1.1]).validate()
    with pytest.raises(InvalidDistribution):
        dist_over([float("nan"), 1.0]).validate()
    dup = p.PolicyDistribution(
        support=(p.HighLevelAction(p.Verb.NOOP, 0), p.HighLevelAction(p.Verb.NOOP, 0)),
        probs=(0.5, 0.5),
    )
    with pytest.raises(InvalidDistribution):
        dup.validate()


# --- conditional entropy ------------------------------------------------------------

def test_conditional_entropy_deterministic_locals():
    g = dist_over([0.3, 0.7])
    locals_map = {a: (1.0,) for a in g.support}
    assert p.conditional_entropy(entropies(locals_map), g) == 0.0


def test_conditional_entropy_collapses_on_deterministic_global():
    g = dist_over([1.0, 0.0])
    locals_map = {g.support[0]: (0.5, 0.5), g.support[1]: (0.25, 0.25, 0.25, 0.25)}
    assert p.conditional_entropy(entropies(locals_map), g) == pytest.approx(math.log(2), abs=1e-12)


def test_conditional_entropy_hand_expectation():
    g = dist_over([0.5, 0.5])
    h1 = (0.6, 0.2, 0.2)  # entropy != 1 exactly; use distributions with known entropies
    locals_map = {
        g.support[0]: (0.5, 0.5),            # ln 2
        g.support[1]: (0.77469009, 0.22530991),  # entropy 0.5341...
    }
    expected = 0.5 * math.log(2) + 0.5 * p.entropy_of(locals_map[g.support[1]])
    assert p.conditional_entropy(entropies(locals_map), g) == pytest.approx(expected, abs=1e-12)


def test_conditional_entropy_uniform_two_hand_values():
    # global uniform over 2, local entropies 0 (one-hot) and ln 2 -> ln 2 / 2
    g = dist_over([0.5, 0.5])
    locals_map = {g.support[0]: (1.0,), g.support[1]: (0.5, 0.5)}
    assert p.conditional_entropy(entropies(locals_map), g) == pytest.approx(math.log(2) / 2, abs=1e-15)


# --- projection -----------------------------------------------------------------------

def test_projection_noop_when_within_budget():
    probs = np.array([0.7, 0.2, 0.1])
    assert p.project_entropy(probs, 2.0) is probs


def test_projection_deterministic_unchanged():
    probs = np.array([1.0, 0.0, 0.0])
    assert p.project_entropy(probs, 0.5) is probs


def test_projection_uniform_eight():
    probs = np.full(8, 0.125)
    assert p.entropy_of(probs) == pytest.approx(2.0794415416798357, abs=1e-9)
    out = p.project_entropy(probs, 1.2)
    h = p.entropy_of(out)
    assert 1.2 - 1e-4 <= h <= 1.2
    assert int(np.argmax(out)) == 0  # ties break to the lowest index


def test_projection_soundness_random():
    rng = np.random.default_rng(31)
    for tau in (0.3, 0.8, 1.2):
        for _ in range(1000):
            n = int(rng.integers(2, 20))
            raw = rng.uniform(0, 1, size=n) + 1e-12
            probs = raw / raw.sum()
            out = p.project_entropy(probs, tau)
            h = p.entropy_of(out)
            assert h <= tau + 1e-4
            assert int(np.argmax(out)) == int(np.argmax(probs))
            if p.entropy_of(probs) > tau:
                assert h >= tau - 1e-4


def test_projection_monotone_in_mix():
    rng = np.random.default_rng(7)
    raw = rng.uniform(0, 1, size=10)
    probs = raw / raw.sum()
    hs = [p.entropy_of(p._mix_toward_argmax(probs, int(np.argmax(probs)), b)) for b in np.linspace(0, 1, 50)]
    assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))


# --- lambda ------------------------------------------------------------------------------

def test_lambda_fixed_point():
    assert p.update_lambda(0.8, 0.05, 1.2, 1.2) == pytest.approx(0.8)


def test_lambda_hand_update():
    assert p.update_lambda(1.0, 0.05, 1.4, 1.2) == pytest.approx(1.01, abs=1e-12)


def test_lambda_clamped_at_zero():
    assert p.update_lambda(0.01, 0.05, 0.0, 1.2) == 0.0


def test_lambda_dynamics():
    lam = 1.0
    for _ in range(10):
        nxt = p.update_lambda(lam, 0.05, 1.5, 1.2)
        assert nxt == pytest.approx(lam + 0.05 * 0.3)
        lam = nxt
    lam = 0.2
    seen = []
    for _ in range(30):
        lam = p.update_lambda(lam, 0.05, 0.5, 1.2)
        seen.append(lam)
    assert seen[-1] == 0.0
    assert all(b <= a for a, b in zip(seen, seen[1:]))


# --- global generation ----------------------------------------------------------------------

def test_generate_global_projects_and_updates_lambda():
    ctl = p.EntropyController(tau=1.2)
    d = dist_over([0.125] * 8, n_regions=8)
    plan = p.generate_global(d, ctl, seed=5, cycle=0, n_regions=8, entropy_control=True)
    assert plan.h_raw == pytest.approx(math.log(8))
    assert plan.h_projected <= 1.2 + 1e-9
    expected_lam = 1.0 + 0.05 * (math.log(8) - 1.2)
    assert ctl.lam == pytest.approx(expected_lam)


def test_generate_global_ablated_controls():
    ctl = controller()
    d = dist_over([0.125] * 8, n_regions=8)
    plan = p.generate_global(d, ctl, seed=5, cycle=0, n_regions=8, entropy_control=False)
    assert plan.h_projected == pytest.approx(math.log(8))
    assert ctl.lam == 1.0  # frozen


def test_generate_global_sampling_deterministic():
    d = dist_over([0.5, 0.25, 0.25], n_regions=4)
    a = p.generate_global(d, controller(), seed=9, cycle=3, n_regions=4, entropy_control=True)
    b = p.generate_global(d, controller(), seed=9, cycle=3, n_regions=4, entropy_control=True)
    assert a.sampled == b.sampled


def test_sample_per_region_covers_all_regions():
    d = dist_over([1.0])  # mass only on region 0
    sampled = p.sample_per_region(d, 4, seed=1, cycle=0)
    assert set(sampled) == {0, 1, 2, 3}
    for region in (1, 2, 3):
        assert sampled[region] == p.HighLevelAction(p.Verb.NOOP, region)


def former_sample_per_region(dist, n_regions, seed, cycle):
    """`sample_per_region` when it visited every region, kept verbatim as the
    oracle but for the weight variable, renamed off this module's `p`."""
    by_region: dict[int, list[tuple[p.HighLevelAction, float]]] = {}
    for action, q in zip(dist.support, dist.probs):
        if q > 0:
            by_region.setdefault(action.region, []).append((action, q))
    sampled: dict[int, p.HighLevelAction] = {}
    noops = p.action_vocabulary(n_regions)[p.VERB_INDEX[p.Verb.NOOP] * n_regions :]
    rng = p.pystream(seed, "policy-sample", cycle)
    for region in range(n_regions):
        entries = by_region.get(region)
        if not entries:
            sampled[region] = noops[region]
            continue
        actions = [a for a, _ in entries]
        weights = [w for _, w in entries]
        sampled[region] = rng.choices(actions, weights=weights, k=1)[0]
    return sampled


@st.composite
def sparse_distributions(draw):
    """A distribution over a shuffled subset of the vocabulary, zeros
    included, so some regions carry no mass."""
    n_regions = draw(st.integers(1, 9))
    vocab = p.action_vocabulary(n_regions)
    support = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=len(vocab), unique=True))
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=len(support), max_size=len(support))
    )
    if not any(weights):
        weights[0] = 1.0
    total = sum(weights)
    return p.PolicyDistribution(tuple(support), tuple(w / total for w in weights)), n_regions


@settings(deadline=None, max_examples=300)
@given(sparse_distributions(), st.integers(0, 2**31), st.integers(0, 50))
def test_sample_per_region_matches_the_loop_over_every_region(case, seed, cycle):
    dist, n_regions = case
    got = p.sample_per_region(dist, n_regions, seed, cycle)
    assert list(got.items()) == list(former_sample_per_region(dist, n_regions, seed, cycle).items())


# --- regional refinement -----------------------------------------------------------------------

def worst_cells(action, observation, n_regions=4):
    """Each region's worst road cell: `observation`'s in the action's region."""
    return [observation.worst_road_cell if r == action.region else None for r in range(n_regions)]


def regional(action, observation, cap, seed=1):
    probs = local_for(action, observation, cap)
    [directive] = p.generate_regional([action], worst_cells(action, observation), {action: probs}, seed=seed, cycle=0)
    return directive


def test_regional_noop_empty_directives():
    noop = p.HighLevelAction(p.Verb.NOOP, 2)
    local = local_policies_for(noop, obs(), 1.2)
    assert local.probs == {}
    assert local.entropies == {noop: 0.0}


def test_regional_deterministic_parent_forces_deterministic_local():
    action = p.HighLevelAction(p.Verb.DISPATCH_RELIEF, 1)
    directive = regional(action, obs(), cap=0.0, seed=3)
    assert p.entropy_of(local_for(action, obs(), 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert directive.kind in ("deploy_pumps", "deploy_pumps_surge")


def test_regional_close_names_the_flooded_cell():
    directive = regional(p.HighLevelAction(p.Verb.CLOSE_ROAD, 0), obs(blocked=1, cell=(3, 4)), cap=1.2, seed=2)
    assert directive.cell == (3, 4)


def test_constraint_chain_local_capped_by_parent():
    rng = np.random.default_rng(12)
    for _ in range(100):
        cap = float(rng.uniform(0, 1.2))
        action = p.HighLevelAction(p.Verb.REROUTE_REGION, 0)
        probs = local_for(action, obs(flood=float(rng.uniform(0, 1))), cap)
        assert p.entropy_of(probs) <= cap + 1e-4


# --- properties of the single entropy cap ------------------------------------------------------
#
# `_before_*` are verbatim copies of the pre-array code, where
# `generate_regional` and `local_distribution_for` each capped the local
# probabilities themselves through a `PolicyDistribution` over a fake
# support; the single `local_distribution_for` must reproduce them bit for bit.

def _before_candidate_directives(action, obs):
    r = action.region
    cell = obs.worst_road_cell
    if action.verb is p.Verb.REROUTE_REGION:
        return [
            ("avoid_region", 1.0 + obs.congestion_score, p.Directive("avoid_region", r, cell=None, params=(("penalty", 4.0),))),
            ("avoid_region_strong", 0.5 + obs.flood_score, p.Directive("avoid_region_strong", r, cell=None, params=(("penalty", 8.0),))),
        ]
    if action.verb is p.Verb.CLOSE_ROAD:
        return [
            ("close_cell", 1.0 + obs.flood_score, p.Directive("close_cell", r, cell=cell, params=())),
            ("close_cell_brief", 0.5, p.Directive("close_cell_brief", r, cell=cell, params=())),
        ]
    if action.verb is p.Verb.HOLD_TRANSIT:
        return [
            ("hold_buses", 1.0 + obs.flood_score, p.Directive("hold_buses", r, cell=None, params=())),
            ("hold_buses_brief", 0.75, p.Directive("hold_buses_brief", r, cell=None, params=())),
        ]
    if action.verb is p.Verb.DISPATCH_RELIEF:
        surge_w = 0.25 + obs.flood_score + (1.0 if obs.blocked_roads >= 3 else 0.0)
        return [
            ("deploy_pumps", 1.0, p.Directive("deploy_pumps", r, cell=None, params=(("multiplier", 1.5),))),
            ("deploy_pumps_surge", surge_w, p.Directive("deploy_pumps_surge", r, cell=None, params=(("multiplier", 5.0),))),
        ]
    return []


def _former_mix_toward_argmax(probs, beta):
    # the mix the oracles below called, verbatim; the package now takes the argmax once per projection
    onehot = np.zeros_like(probs)
    onehot[int(np.argmax(probs))] = 1.0
    return (1.0 - beta) * probs + beta * onehot


def _before_project_entropy(dist, tau):
    dist.validate()
    h = p.entropy_of(dist.probs)
    if h <= tau:
        return dist
    probs = np.asarray(dist.probs, dtype=np.float64)
    if tau <= p.PROJECTION_BAND:
        out = _former_mix_toward_argmax(probs, 1.0)
        return p.PolicyDistribution(support=dist.support, probs=tuple(out))
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if p.entropy_of(_former_mix_toward_argmax(probs, mid)) > tau:
            lo = mid
        else:
            hi = mid
        if p.entropy_of(_former_mix_toward_argmax(probs, hi)) >= tau - p.PROJECTION_BAND:
            break
    out = _former_mix_toward_argmax(probs, hi)
    return p.PolicyDistribution(support=dist.support, probs=tuple(out))


def _before_generate_regional(action, obs, controller, seed, cycle, entropy_cap, n_regions, entropy_control=True):
    """The directive the pre-array code drew, or None for a NoOp, which drew none."""
    candidates = _before_candidate_directives(action, obs)
    if not candidates:
        return None
    weights = np.array([w for _, w, _ in candidates], dtype=np.float64)
    probs = weights / weights.sum()
    if entropy_control:
        cap = min(entropy_cap, controller.tau)
        if cap <= p.PROJECTION_BAND:
            onehot = np.zeros_like(probs)
            onehot[int(np.argmax(probs))] = 1.0
            probs = onehot
        elif p.entropy_of(probs) > cap:
            fake_support = tuple(p.HighLevelAction(p.Verb.NOOP, i) for i in range(len(probs)))
            projected = _before_project_entropy(p.PolicyDistribution(fake_support, tuple(probs)), cap)
            probs = np.asarray(projected.probs)
    rng = p.pystream(seed, "regional", cycle, action.region)
    pick = rng.choices(range(len(candidates)), weights=probs.tolist(), k=1)[0]
    return candidates[pick][2]


def _before_local_distribution_for(action, obs, controller, entropy_cap, entropy_control=True):
    candidates = _before_candidate_directives(action, obs)
    if not candidates:
        return (1.0,)
    weights = np.array([w for _, w, _ in candidates], dtype=np.float64)
    probs = weights / weights.sum()
    if entropy_control:
        cap = min(entropy_cap, controller.tau)
        if cap <= p.PROJECTION_BAND:
            onehot = np.zeros_like(probs)
            onehot[int(np.argmax(probs))] = 1.0
            return tuple(onehot)
        if p.entropy_of(probs) > cap:
            fake_support = tuple(p.HighLevelAction(p.Verb.NOOP, i) for i in range(len(probs)))
            projected = _before_project_entropy(p.PolicyDistribution(fake_support, tuple(probs)), cap)
            return tuple(projected.probs)
    return tuple(float(p) for p in probs)


N_REGIONS = 4
TAU = 1.2

# flood and congestion scores are sigmoid indices, so they lie in [0, 1]
observations = st.builds(
    obs,
    flood=st.floats(0.0, 1.0),
    congestion=st.floats(0.0, 1.0),
    blocked=st.integers(0, 6),
    cell=st.one_of(st.none(), st.tuples(st.integers(0, 31), st.integers(0, 31))),
)
# below the projection band, between the band and tau (and above it), and uncapped
caps = st.one_of(st.floats(0.0, p.PROJECTION_BAND), st.floats(p.PROJECTION_BAND, 1.5), st.just(math.inf))
probability_arrays = st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=24).map(
    lambda ws: np.asarray(ws) / np.sum(ws)
)


def _bits(probs):
    return [float(x).hex() for x in probs]


@settings(deadline=None, max_examples=400)
@given(
    observations,
    st.sampled_from(list(p.Verb)),
    st.integers(0, N_REGIONS - 1),
    caps,
    st.integers(0, 2**31),
    st.integers(0, 50),
)
def test_single_cap_matches_both_former_copies_bit_for_bit(observation, verb, region, cap, seed, cycle):
    action = p.HighLevelAction(verb, region)
    ctl = controller(TAU)
    control = not math.isinf(cap)
    local = local_policies_for(action, observation, min(cap, TAU), N_REGIONS)
    before = _before_local_distribution_for(action, observation, ctl, cap, entropy_control=control)
    before_drawn = _before_generate_regional(action, observation, ctl, seed, cycle, cap, N_REGIONS, control)
    if verb is p.Verb.NOOP:
        # the decision loop skips a NoOp region: the former code drew nothing
        # for it either, and its point mass (1.0,) had entropy 0
        assert before_drawn is None
        assert action not in local.probs
        assert local.entropies[action] == p.entropy_of(before) == 0.0
    else:
        probs = local.probs[action]
        assert _bits(probs) == _bits(before)
        worst = worst_cells(action, observation, N_REGIONS)
        assert p.generate_regional([action], worst, {action: probs}, seed, cycle) == [before_drawn]


@settings(deadline=None, max_examples=400)
@given(probability_arrays, st.floats(0.05, 3.0))
def test_projected_array_lands_in_band_and_keeps_argmax(probs, tau):
    out = p.project_entropy(probs, tau)
    h = p.entropy_of(out)
    assert h <= tau
    if p.entropy_of(probs) > tau:
        assert h >= tau - p.PROJECTION_BAND
    assert int(np.argmax(out)) == int(np.argmax(probs))
    assert math.isclose(float(out.sum()), 1.0, abs_tol=1e-9)


@settings(deadline=None, max_examples=300)
@given(probability_arrays, observations, st.sampled_from(list(p.Verb)))
def test_local_entropy_within_global_and_tau(global_probs, observation, verb):
    plan = p.generate_global(
        dist_over(list(global_probs), n_regions=len(global_probs)),
        controller(TAU),
        seed=0,
        cycle=0,
        n_regions=len(global_probs),
        entropy_control=True,
    )
    cap = min(plan.h_projected, TAU)
    action = p.HighLevelAction(verb, 0)
    local = local_policies_for(action, observation, cap)
    h = local.entropies[action] if verb is p.Verb.NOOP else p.entropy_of(local.probs[action])
    assert h <= min(plan.h_projected, TAU)



# --- one array pass per cycle -------------------------------------------------------------------
#
# `_per_action_*` are verbatim copies of the code before the batch: one
# `local_distribution_for` call per positive-mass action, the
# `conditional_entropy` loop that recomputed every local entropy, and the
# bisection that computed two entropies per iteration. The batch must
# reproduce them bit for bit.

def _per_action_project_entropy(probs, tau):
    if p.entropy_of(probs) <= tau:
        return probs
    if tau <= p.PROJECTION_BAND:
        return _former_mix_toward_argmax(probs, 1.0)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if p.entropy_of(_former_mix_toward_argmax(probs, mid)) > tau:
            lo = mid
        else:
            hi = mid
        if p.entropy_of(_former_mix_toward_argmax(probs, hi)) >= tau - p.PROJECTION_BAND:
            break
    return _former_mix_toward_argmax(probs, hi)


def _per_action_local_distribution_for(action, obs, cap):
    candidates = _before_candidate_directives(action, obs)
    if not candidates:
        return (1.0,)
    weights = np.array([w for _, w, _ in candidates], dtype=np.float64)
    return tuple(_per_action_project_entropy(weights / weights.sum(), cap).tolist())


def _per_action_conditional_entropy(locals_map, global_dist):
    global_dist.validate()
    total = 0.0
    for action, prob in zip(global_dist.support, global_dist.probs):
        if prob <= 0:
            continue
        total += prob * p.entropy_of(locals_map[action])
    return total


@st.composite
def cycles(draw):
    """A global distribution over a random vocabulary, with zeros kept in
    the support or dropped from it, the regions' observations and a cap.
    Caps come from below the band, from between the band and ln 2 (every
    two-way row is projected) and above, and `inf`; some supports carry
    mass on NoOps only."""
    n_regions = draw(st.integers(1, 6))
    vocab = p.action_vocabulary(n_regions)
    weights = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=len(vocab), max_size=len(vocab)))
    if draw(st.booleans()):
        weights = [w if a.verb is p.Verb.NOOP else 0.0 for a, w in zip(vocab, weights)]
    if not any(weights):
        weights[-1] = 1.0  # noop at the last region
    pairs = [(a, w) for a, w in zip(vocab, weights)]
    if draw(st.booleans()):
        pairs = [(a, w) for a, w in pairs if w > 0]
    total = sum(w for _, w in pairs)
    dist = p.PolicyDistribution(tuple(a for a, _ in pairs), tuple(w / total for _, w in pairs))
    region_obs = draw(st.lists(observations, min_size=n_regions, max_size=n_regions))
    cap = draw(
        st.floats(0.0, p.PROJECTION_BAND)
        | st.floats(p.PROJECTION_BAND, math.log(2))
        | st.floats(math.log(2), 1.5)
        | st.just(math.inf)
    )
    return dist, region_obs, cap


@settings(deadline=None, max_examples=400)
@given(cycles())
def test_batched_locals_and_conditional_entropy_equal_per_action_code_bit_for_bit(cycle):
    dist, region_obs, cap = cycle
    local = p.local_distribution_for(
        dist,
        [o.flood_score for o in region_obs],
        [o.congestion_score for o in region_obs],
        [o.blocked_roads for o in region_obs],
        cap,
    )
    before = {
        a: _per_action_local_distribution_for(a, region_obs[a.region], cap)
        for a, prob in zip(dist.support, dist.probs)
        if prob > 0
    }
    refined = {a: v for a, v in before.items() if a.verb is not p.Verb.NOOP}
    assert {a: _bits(v) for a, v in local.probs.items()} == {a: _bits(v) for a, v in refined.items()}
    h_cond = p.conditional_entropy(local.entropies, dist)
    assert h_cond.hex() == _per_action_conditional_entropy(before, dist).hex()


@settings(deadline=None, max_examples=400)
@given(probability_arrays, st.floats(0.0, 3.5))
def test_project_entropy_equals_the_two_entropy_bisection_bit_for_bit(probs, tau):
    assert _bits(p.project_entropy(probs, tau)) == _bits(_per_action_project_entropy(probs, tau))

def test_vocab_ordering_verb_major():
    vocab = p.action_vocabulary(3)
    assert vocab[0] == p.HighLevelAction(p.Verb.REROUTE_REGION, 0)
    assert vocab[3] == p.HighLevelAction(p.Verb.CLOSE_ROAD, 0)
    assert len(vocab) == 15
    assert len(set(vocab)) == 15
