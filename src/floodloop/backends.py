"""Strategy backends: where the global action distribution comes from.

Four interchangeable sources sit behind one interface: Empty (do nothing),
Ruled (threshold rule table over the current state summary), Scripted
(replays recorded distributions, for tests and ablation diffs), and
External (an HTTP endpoint speaking the wire protocol below). Any failure
of the external endpoint, or a response entry it cannot use as stated,
raises BackendUnavailable; the decision loop falls back to a local backend
and logs the event.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import urllib.parse
import urllib.request
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .config import RunConfig
from .errors import BackendUnavailable
from .knowledge import HybridPrompt
from .metrics import METRIC_NAMES
from .policy import VERB_INDEX, VERB_ORDER, HighLevelAction, PolicyDistribution, Verb, action_vocabulary
from .state import StateSummary

PREEMPT_FRACTION = 0.5  # of the blocking depth: the bar for preventive pumping on open roads
CALM_BLOCKED_LIMIT = 40  # blocked road cells on the whole map at or below which it counts as calm


@dataclass(frozen=True)
class BackendProposal:
    distribution: PolicyDistribution
    planned_metrics: dict[str, float] | None = None


class StrategyBackend:
    name = "base"

    def propose(self, prompt: HybridPrompt, n_regions: int, tau: float, cycle: int) -> BackendProposal:
        raise NotImplementedError


NOOP_PROPOSAL = BackendProposal(distribution=PolicyDistribution.onehot(HighLevelAction(Verb.NOOP, 0)))

# rows of the rule table
_REROUTE, _CLOSE, _HOLD, _RELIEF, _NOOP = (
    VERB_INDEX[v] for v in (Verb.REROUTE_REGION, Verb.CLOSE_ROAD, Verb.HOLD_TRANSIT, Verb.DISPATCH_RELIEF, Verb.NOOP)
)


class EmptyBackend(StrategyBackend):
    """No planning at all: a point mass on NoOp, entropy zero."""

    name = "empty"

    def propose(self, prompt, n_regions, tau, cycle):
        return NOOP_PROPOSAL


class RuledBackend(StrategyBackend):
    """Static threshold rules over the prompt's structured state summary
    and failure feedback, read directly; the prompt text is not parsed.

    Regions whose relative flood score crosses `score_threshold`
    (`PolicyConfig.score_threshold`) attract reroute/close mass; regions
    with actually blocked roads or depths near the blocking threshold
    (`PREEMPT_FRACTION` of it) also attract relief and transit holds. When
    the prompt carries failure feedback from a triggered cycle,
    intervention weights escalate and the wetness bar drops, widening the
    response.

    The rules are a pure function of the prompt, so asking again about the
    same prompt object returns the kept proposal object; the consistency
    probes of a cycle cost nothing.
    """

    name = "ruled"

    def __init__(self, score_threshold: float):
        self.score_threshold = score_threshold
        # the last prompt asked about is held, so no other prompt can take its id
        self._asked: tuple[HybridPrompt | None, int] = (None, 0)
        self._answer = NOOP_PROPOSAL

    def propose(self, prompt, n_regions, tau, cycle):
        if self._asked[0] is prompt and self._asked[1] == n_regions:
            return self._answer
        self._answer = BackendProposal(distribution=self._rule_table(prompt.summary, prompt.feedback, n_regions))
        self._asked = (prompt, n_regions)
        return self._answer

    def _rule_table(self, summary: StateSummary, feedback, n_regions: int) -> PolicyDistribution:
        """One weight row per verb over the regions; each row adds its terms
        in the order of the per-region rules, and the support is every
        (verb, region) pair a rule fired on, in vocabulary order."""
        boost = 1.0
        preempt_bar = PREEMPT_FRACTION * summary.blocking_depth
        degraded: tuple[str, ...] = ()
        if feedback is not None:
            boost = 1.0 + min(2.0, 10.0 * feedback.deviation_rms)
            degraded = feedback.degraded_metrics
            preempt_bar *= 0.75
            if "c" in degraded or "r" in degraded:
                boost *= 1.5
                preempt_bar *= 0.75
        calm_map = sum(summary.region_blocked_roads) <= CALM_BLOCKED_LIMIT
        f_a = np.array(summary.region_flood[:n_regions], dtype=np.float64)
        t_a = np.array(summary.region_congestion[:n_regions], dtype=np.float64)
        depth = np.array(summary.region_max_depth[:n_regions], dtype=np.float64)
        blocked = np.array(summary.region_blocked_roads[:n_regions], dtype=np.int64)
        # relative hot spots only matter when they are wet in absolute
        # terms; otherwise detour/closure would punish mild weather
        if summary.blocking_depth > 0:
            wetness = np.minimum(1.0, depth / summary.blocking_depth)
        else:
            wetness = np.zeros(n_regions)
        hot = (f_a > self.score_threshold) & (wetness >= 0.85)
        open_roads = blocked == 0
        # preventive pumping on wet-but-open regions: routine maintenance
        # while the map is calm, or escalated coverage after a triggered
        # cycle; deliberately lighter than the reactive response
        preempt = open_roads & (depth >= preempt_bar) & (calm_map or feedback is not None)
        jammed = t_a > self.score_threshold
        relief = (1.0 + f_a) * boost
        if "c" in degraded or "r" in degraded:
            relief *= 2.0

        fired = np.zeros((len(VERB_ORDER), n_regions), dtype=bool)
        weights = np.zeros((len(VERB_ORDER), n_regions))
        fired[_CLOSE] = hot
        weights[_CLOSE] = np.where(hot, 0.4 * f_a * wetness, 0.0)
        fired[_REROUTE] = hot | ~open_roads | jammed
        weights[_REROUTE] = (
            np.where(hot, f_a * wetness, 0.0)
            + np.where(open_roads, 0.0, 0.6 * boost)
            + np.where(jammed, 0.8 * t_a * (1.5 if "t" in degraded else 1.0), 0.0)
        )
        fired[_RELIEF] = ~open_roads | preempt
        weights[_RELIEF] = np.where(open_roads, np.where(preempt, 0.5 * boost, 0.0), relief)
        fired[_HOLD] = blocked >= 3
        weights[_HOLD] = np.where(fired[_HOLD], 0.5 * boost, 0.0)
        fired[_NOOP, 0] = True
        weights[_NOOP, 0] = 0.5

        at = np.flatnonzero(fired)
        kept = weights.ravel()[at]
        vocab = action_vocabulary(n_regions)
        return PolicyDistribution(tuple(vocab[i] for i in at.tolist()), tuple((kept / kept.sum()).tolist()))


class ScriptedBackend(StrategyBackend):
    """Replays a fixed per-cycle list of proposals; cycles wrap around.

    Indexed by cycle number, not call count, so repeated queries within one
    cycle return the identical proposal. Every distribution of the script
    is validated once, here.
    """

    name = "scripted"

    def __init__(self, script: Sequence[BackendProposal]):
        if not script:
            raise ValueError("scripted backend needs at least one proposal")
        self.script = list(script)
        for proposal in self.script:
            proposal.distribution.validate()

    def propose(self, prompt, n_regions, tau, cycle):
        return self.script[cycle % len(self.script)]


def default_script(n_regions: int) -> list[BackendProposal]:
    """Benign built-in script: moderate-entropy mixture of gentle actions."""
    support = (
        HighLevelAction(Verb.NOOP, 0),
        HighLevelAction(Verb.DISPATCH_RELIEF, 0),
        HighLevelAction(Verb.REROUTE_REGION, min(1, n_regions - 1)),
    )
    return [BackendProposal(distribution=PolicyDistribution(support, (0.5, 0.25, 0.25)))]


class ExternalBackend(StrategyBackend):
    """HTTP wire protocol for out-of-process strategy generators.

    Request JSON: {"prompt": str, "vocabulary": [action keys], "tau": float,
    "cycle": int}. Response JSON is an object that carries "probabilities"
    (one finite, non-negative float per vocabulary entry; zeros are
    dropped) and may carry a "planned" map of expected f/t/c/r, each in
    [0, 1]. Any other body is unusable.

    Each call is one `http.client` connection that POSTs the body with
    `Connection: close` and is closed before the call returns; the request
    head is header for header the one `urllib` sent, `User-Agent` included.
    There is no keep-alive yet: the loopback stub the benchmark measures
    against speaks HTTP/1.0 and closes every connection, so a kept
    connection would save nothing that can be measured. The route is fixed
    when the backend is made, from the proxy environment as it stands then
    (`http_proxy`, `https_proxy`, `no_proxy`). An http endpoint is POSTed
    to the proxy with the absolute URL as target, over TLS when the proxy
    URL is https (any other proxy scheme is refused); an https one is
    tunnelled through the proxy with CONNECT. Credentials in the proxy URL
    are sent as Basic `Proxy-Authorization`. A status outside 2xx is a
    failure, a redirect included, since the body cannot follow it.

    The consistency probes of a cycle resend the first call's request, and
    a stable endpoint answers them with the same bytes. So the last usable
    answer is kept with its proposal: identical answer bytes are parsed
    once, and the same proposal object is returned. Failures are not kept.
    """

    name = "external"

    def __init__(self, endpoint: str, timeout: float):
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ValueError(f"external endpoint must be an http(s) URL, got {endpoint!r}")
        self.endpoint = endpoint
        self.timeout = timeout
        # urllib's request head, header for header: http.client puts Accept-Encoding and
        # Content-Length first, and Connection goes last, after any proxy credentials
        self._headers = {
            "Host": url.netloc,
            "User-Agent": f"Python-urllib/{urllib.request.__version__}",
            "Content-Type": "application/json",
        }
        self._target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        self._tunnel: tuple[str, dict[str, str]] | None = None
        address, scheme = url.netloc, url.scheme
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"{url.scheme}://{proxy}")
            address = proxy_url.netloc.rpartition("@")[2]
            auth = {}
            if proxy_url.username and proxy_url.password:
                credentials = f"{urllib.parse.unquote(proxy_url.username)}:{urllib.parse.unquote(proxy_url.password)}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode("ascii")
            if url.scheme == "https":
                # CONNECT goes to the proxy in the clear; TLS then runs end to end through the tunnel
                self._tunnel = (url.netloc, auth)
            else:
                # the request itself goes to the proxy, over TLS when the proxy URL says https
                if proxy_url.scheme not in ("http", "https"):
                    raise ValueError(f"proxy for an http endpoint must be an http(s) URL, got {proxy!r}")
                scheme = proxy_url.scheme
                self._target = urllib.parse.urlunsplit(url._replace(fragment=""))
                self._headers |= auth
        self._headers["Connection"] = "close"
        connection = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        self._connect = partial(connection, address)
        self._body_key: tuple | None = None
        self._body = b""
        self._answer_key: tuple[bytes, int] | None = None
        self._answer: BackendProposal | None = None

    def _request_body(self, prompt, n_regions, tau, cycle) -> bytes:
        """The UTF-8 JSON request, byte for byte `json.dumps` of the request
        with `allow_nan=False`; the first call and the probes of one cycle
        send the same body, so the last one is kept."""
        key = (prompt.text, n_regions, tau, cycle)
        if key != self._body_key:
            self._body = b'{"prompt": %s, "vocabulary": %s, "tau": %s, "cycle": %s}' % (
                json.dumps(prompt.text).encode(),
                _vocabulary_json(n_regions),
                json.dumps(tau, allow_nan=False).encode(),
                json.dumps(cycle).encode(),
            )
            self._body_key = key
        return self._body

    def _post(self, body: bytes) -> bytes:
        """The response body of one POST over a connection of its own."""
        connection = self._connect(timeout=self.timeout)
        try:
            if self._tunnel is not None:
                connection.set_tunnel(self._tunnel[0], headers=self._tunnel[1])
            connection.request("POST", self._target, body, self._headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if not 200 <= response.status < 300:
            raise BackendUnavailable(f"external backend failed: HTTP Error {response.status}: {response.reason}")
        return raw

    def propose(self, prompt, n_regions, tau, cycle):
        try:
            raw = self._post(self._request_body(prompt, n_regions, tau, cycle))
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # OSError: refused connections and timeouts; ValueError: NaN in the payload
            raise BackendUnavailable(f"external backend failed: {exc}") from exc
        key = (raw, n_regions)
        if key != self._answer_key:
            self._answer = _parse_answer(raw, n_regions)
            self._answer_key = key
        return self._answer


@lru_cache(maxsize=8)
def _vocabulary_json(n_regions: int) -> bytes:
    """The request's vocabulary array, encoded once per region count."""
    return json.dumps([a.key() for a in action_vocabulary(n_regions)]).encode()


def _parse_answer(raw: bytes, n_regions: int) -> BackendProposal:
    """The proposal of one response body, or BackendUnavailable."""
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # a body that is not JSON, or nested too deep to parse
        raise BackendUnavailable(f"external backend failed: {exc}") from exc
    if not isinstance(body, dict) or "probabilities" not in body:
        raise BackendUnavailable("unusable external response: it carries no probabilities")
    planned = body.get("planned")
    if planned is not None:
        try:
            planned = dict(zip(METRIC_NAMES, _numbers([planned[k] for k in METRIC_NAMES])))
            for k, v in planned.items():
                if not 0.0 <= v <= 1.0:  # also refuses NaN
                    raise ValueError(f"{k} is {v!r}, not in [0, 1]")
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendUnavailable(f"malformed planned metrics: {exc}") from exc
    try:
        dist = _probabilities_to_distribution(_numbers(body["probabilities"]), n_regions)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer too large for a float
        raise BackendUnavailable(f"unusable external response: {exc}") from exc
    return BackendProposal(distribution=dist, planned_metrics=planned)


def _numbers(values) -> list[float]:
    """The entries of a JSON array of numbers as floats; `float` alone would
    also take a string such as "0.5", a boolean, or a string's characters."""
    floats = [float(v) for v in values]
    if not set(map(type, values)) <= {int, float}:
        raise TypeError(f"{next(v for v in values if type(v) not in (int, float))!r} is not a JSON number")
    return floats


def _probabilities_to_distribution(probs: list[float], n_regions: int) -> PolicyDistribution:
    """One finite, non-negative weight per vocabulary entry, normalised over
    the positive ones; the support keeps vocabulary order."""
    vocab = action_vocabulary(n_regions)
    if len(probs) != len(vocab):
        raise ValueError(f"expected {len(vocab)} probabilities, got {len(probs)}")
    weights = np.array(probs, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"probability of {vocab[i].key()} is {probs[i]!r}, not finite and non-negative")
    kept_at = np.flatnonzero(weights).tolist()
    kept = [probs[i] for i in kept_at]
    total = sum(kept)  # entries are checked, but their sum can overflow
    if not 0 < total < math.inf:
        raise ValueError(f"probabilities sum to {total!r}")
    return PolicyDistribution(tuple(vocab[i] for i in kept_at), tuple(p / total for p in kept))


def make_backend(strategy: str, config: RunConfig) -> StrategyBackend:
    """The backend of a strategy name that `RunConfig.validate` accepted,
    set up from `config`: the ruled threshold, the scripted region count,
    the external endpoint and timeout."""
    if strategy == "empty":
        return EmptyBackend()
    if strategy == "ruled":
        return RuledBackend(config.policy.score_threshold)
    if strategy == "scripted":
        return ScriptedBackend(default_script(config.world.n_regions))
    return ExternalBackend(config.resolved_endpoint(), config.external_timeout)
