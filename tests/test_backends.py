"""Strategy backends and the external wire protocol."""

from __future__ import annotations

import base64
import contextlib
import gc
import http.client
import json
import math
import re
import socket
import struct
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodloop import backends as b
from floodloop import policy as p
from floodloop.config import PolicyConfig, RunConfig
from floodloop.errors import BackendUnavailable, InvalidDistribution
from floodloop.knowledge import FeedbackNote, KnowledgeGraph, build_prompt
from floodloop.state import StateSummary

SCORE_THRESHOLD = PolicyConfig().score_threshold


def summary_with(n_regions=4, flood=None, depth=None, blocked=None, congestion=None):
    flood = flood or [0.5] * n_regions
    congestion = congestion or [0.5] * n_regions
    depth = depth or [0.0] * n_regions
    blocked = blocked or [0] * n_regions
    return StateSummary(
        step=0,
        scenario_kind="extreme",
        intensity=0.5,
        region_flood=tuple(flood),
        region_congestion=tuple(congestion),
        region_max_depth=tuple(depth),
        region_blocked_roads=tuple(blocked),
        region_road_cells=tuple(max(b, 8) for b in blocked),
        region_worst_road=((0, 0),) * n_regions,
        blocking_depth=0.3,
        flooded_regions=tuple(i for i, v in enumerate(flood) if v > 0.7),
        congested_regions=tuple(i for i, v in enumerate(congestion) if v > 0.7),
        targeted_regions=(),
        spawned=10,
        arrived=2,
        cancelled=0,
        enroute=8,
    )


def prompt_for(summary, feedback=None):
    return build_prompt(summary, KnowledgeGraph(), [], feedback, set())


# --- empty ---------------------------------------------------------------------

def test_empty_backend_noop_everywhere():
    prompt = prompt_for(summary_with())
    proposal = b.EmptyBackend().propose(prompt, 4, 1.2, 0)
    assert b.EmptyBackend().propose(prompt_for(summary_with(n_regions=8)), 8, 0.5, 3) is proposal
    assert p.entropy_of(proposal.distribution.probs) == 0.0
    sampled = p.sample_per_region(proposal.distribution, 4, seed=0, cycle=0)
    assert all(a.verb is p.Verb.NOOP for a in sampled.values())


# --- ruled ---------------------------------------------------------------------

def test_ruled_concentrates_on_hot_region():
    flood = [0.2, 0.2, 0.95, 0.2]
    depth = [0.0, 0.0, 0.31, 0.0]
    prompt = prompt_for(summary_with(flood=flood, depth=depth))
    proposal = b.RuledBackend(SCORE_THRESHOLD).propose(prompt, 4, 1.2, 0)
    mass = {}
    for action, prob in zip(proposal.distribution.support, proposal.distribution.probs):
        mass[(action.verb, action.region)] = prob
    hot = mass.get((p.Verb.REROUTE_REGION, 2), 0.0) + mass.get((p.Verb.CLOSE_ROAD, 2), 0.0)
    assert hot > 0.5
    for region in (0, 1, 3):
        assert mass.get((p.Verb.REROUTE_REGION, region), 0.0) == 0.0
        assert mass.get((p.Verb.CLOSE_ROAD, region), 0.0) == 0.0


def test_ruled_rule_table_oracle_preventive():
    # independent recomputation of the score table: hot region, wet but not
    # yet blocked -> close/reroute from the hot-spot rule plus light
    # preventive pumping
    flood = [0.2, 0.9, 0.2, 0.2]
    depth = [0.0, 0.30, 0.0, 0.0]
    summary = summary_with(flood=flood, depth=depth)
    proposal = b.RuledBackend(SCORE_THRESHOLD).propose(prompt_for(summary), 4, 1.2, 0)
    wetness = min(1.0, 0.30 / 0.3)
    expected = {
        (p.Verb.NOOP, 0): 0.5,
        (p.Verb.CLOSE_ROAD, 1): 0.4 * 0.9 * wetness,
        (p.Verb.REROUTE_REGION, 1): 0.9 * wetness,
        (p.Verb.DISPATCH_RELIEF, 1): 0.5,
    }
    total = sum(expected.values())
    got = {(a.verb, a.region): prob for a, prob in zip(proposal.distribution.support, proposal.distribution.probs)}
    assert set(got) == set(expected)
    for key, weight in expected.items():
        assert got[key] == pytest.approx(weight / total, abs=1e-9), key


def test_ruled_rule_table_oracle_reactive():
    # blocked roads switch the region to the full reactive response
    flood = [0.2, 0.9, 0.2, 0.2]
    depth = [0.0, 0.45, 0.0, 0.0]
    blocked = [0, 4, 0, 0]
    summary = summary_with(flood=flood, depth=depth, blocked=blocked)
    proposal = b.RuledBackend(SCORE_THRESHOLD).propose(prompt_for(summary), 4, 1.2, 0)
    expected = {
        (p.Verb.NOOP, 0): 0.5,
        (p.Verb.CLOSE_ROAD, 1): 0.4 * 0.9 * 1.0,
        (p.Verb.REROUTE_REGION, 1): 0.9 * 1.0 + 0.6,
        (p.Verb.DISPATCH_RELIEF, 1): 1.0 + 0.9,
        (p.Verb.HOLD_TRANSIT, 1): 0.5,
    }
    total = sum(expected.values())
    got = {(a.verb, a.region): prob for a, prob in zip(proposal.distribution.support, proposal.distribution.probs)}
    assert set(got) == set(expected)
    for key, weight in expected.items():
        assert got[key] == pytest.approx(weight / total, abs=1e-9), key


def test_ruled_quiet_map_is_mostly_noop():
    proposal = b.RuledBackend(SCORE_THRESHOLD).propose(prompt_for(summary_with()), 4, 1.2, 0)
    got = {(a.verb, a.region): pr for a, pr in zip(proposal.distribution.support, proposal.distribution.probs)}
    assert got[(p.Verb.NOOP, 0)] == pytest.approx(1.0)


def test_ruled_feedback_escalates():
    flood = [0.2, 0.2, 0.8, 0.2]
    depth = [0.0, 0.0, 0.35, 0.0]
    blocked = [0, 0, 4, 0]
    ruled = b.RuledBackend(SCORE_THRESHOLD)
    base = ruled.propose(prompt_for(summary_with(flood=flood, depth=depth, blocked=blocked)), 4, 1.2, 0)
    note = FeedbackNote(0.2, (("c", 0.1),), ("c",), ())
    esc = ruled.propose(prompt_for(summary_with(flood=flood, depth=depth, blocked=blocked), feedback=note), 4, 1.2, 0)

    def relief_share(proposal):
        return sum(
            prob
            for action, prob in zip(proposal.distribution.support, proposal.distribution.probs)
            if action.verb is p.Verb.DISPATCH_RELIEF
        )

    assert relief_share(esc) > relief_share(base)


def test_ruled_same_prompt_object_returns_the_kept_proposal():
    ruled = b.RuledBackend(SCORE_THRESHOLD)
    prompt = prompt_for(summary_with(flood=[0.2, 0.2, 0.2, 0.9], depth=[0.0, 0.0, 0.0, 0.3]))
    first = ruled.propose(prompt, 4, 1.2, 0)
    assert ruled.propose(prompt, 4, 1.2, 0) is first
    # an equal prompt that is another object, or another region count, is evaluated again
    twin = prompt_for(prompt.summary)
    assert twin == prompt and twin is not prompt
    again = ruled.propose(twin, 4, 1.2, 0)
    assert again is not first and again == first
    # the hot region 3 is past the first three
    assert ruled.propose(twin, 3, 1.2, 0).distribution != again.distribution


def test_ruled_run_evaluates_the_rules_once_per_cycle_and_probes_reuse_the_answer(tmp_path, monkeypatch):
    from test_golden import RUNS, golden_config

    from floodloop import harness
    from floodloop.feedback import CONSISTENCY_PROBES

    counts = {"propose": 0, "rules": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(b.RuledBackend, "propose", counting("propose", b.RuledBackend.propose))
    monkeypatch.setattr(b.RuledBackend, "_rule_table", counting("rules", b.RuledBackend._rule_table))
    artifacts = harness.run(golden_config(*RUNS["ruled"], str(tmp_path)), keep_loop=True)
    cycles = artifacts.loop.n_cycles
    assert counts == {"propose": CONSISTENCY_PROBES * cycles, "rules": cycles}
    # identical answers: consistency is exactly 1, as when every probe was evaluated afresh
    assert json.loads((tmp_path / "summary.json").read_text())["scs"] == 1.0


# --- scripted --------------------------------------------------------------------

def test_scripted_indexed_by_cycle_not_call_count():
    s0 = b.BackendProposal(p.PolicyDistribution.onehot(p.HighLevelAction(p.Verb.NOOP, 0)))
    s1 = b.BackendProposal(p.PolicyDistribution.onehot(p.HighLevelAction(p.Verb.CLOSE_ROAD, 1)))
    backend = b.ScriptedBackend([s0, s1])
    prompt = prompt_for(summary_with())
    assert backend.propose(prompt, 4, 1.2, 0) is s0
    assert backend.propose(prompt, 4, 1.2, 0) is s0  # repeated query, same cycle
    assert backend.propose(prompt, 4, 1.2, 1) is s1
    assert backend.propose(prompt, 4, 1.2, 2) is s0  # wraps


def test_default_script_valid():
    script = b.default_script(64)
    script[0].distribution.validate()


def test_scripted_rejects_an_invalid_distribution_when_built():
    valid = b.BackendProposal(p.PolicyDistribution.onehot(p.HighLevelAction(p.Verb.NOOP, 0)))
    vocab = p.action_vocabulary(4)
    unnormalized = b.BackendProposal(p.PolicyDistribution(vocab[:2], (0.5, 0.6)))
    with pytest.raises(InvalidDistribution):
        b.ScriptedBackend([valid, unnormalized])


# --- external over HTTP ------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    """Answers each POST with the next queued (status, body); a bytes body
    is sent as is, anything else as JSON, after `delay` seconds."""

    responses = []
    requests = []
    raw_requests = []
    connection_headers = []
    delay = 0.0

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        _Handler.raw_requests.append((self.headers["Content-Type"], raw))
        _Handler.connection_headers.append(self.headers["Connection"])
        _Handler.requests.append(json.loads(raw))
        status, body = _Handler.responses.pop(0)
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        time.sleep(_Handler.delay)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(handler):
    """`handler` on an ephemeral loopback port; yields the server's URL."""
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def no_leaked_sockets():
    """Fails the test if it left a socket open for the collector to find."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning) and "socket" in str(w.message)]
    assert not leaked


@pytest.fixture
def http_backend(no_leaked_sockets):
    _Handler.responses = []
    _Handler.requests = []
    _Handler.raw_requests = []
    _Handler.connection_headers = []
    _Handler.delay = 0.0
    with serving(_Handler) as url:
        yield url, _Handler


def test_external_probability_vector(http_backend):
    url, handler = http_backend
    vocab_size = len(p.action_vocabulary(4))
    probs = [0.0] * vocab_size
    probs[0] = 0.75
    probs[1] = 0.25
    response = (200, {"probabilities": probs, "planned": {"f": 0.5, "t": 0.5, "c": 0.0, "r": 0.9}})
    handler.responses += [response] * 3
    backend = b.ExternalBackend(url, timeout=2.0)
    proposal = backend.propose(prompt_for(summary_with()), 4, 1.2, 0)
    assert proposal.distribution.probs == (0.75, 0.25)
    assert proposal.planned_metrics == {"f": 0.5, "t": 0.5, "c": 0.0, "r": 0.9}
    sent = handler.requests[0]
    assert sent["tau"] == 1.2
    assert len(sent["vocabulary"]) == vocab_size
    assert "## STATE" in sent["prompt"]
    # the wire body is the default json.dumps of the request, UTF-8 encoded
    expected = {"prompt": sent["prompt"], "vocabulary": [a.key() for a in p.action_vocabulary(4)], "tau": 1.2, "cycle": 0}
    assert handler.raw_requests[0] == ("application/json", json.dumps(expected).encode("utf-8"))
    # a probe of the same cycle sends the same bytes; the next cycle a new body
    backend.propose(prompt_for(summary_with()), 4, 1.2, 0)
    backend.propose(prompt_for(summary_with()), 4, 1.2, 1)
    assert handler.raw_requests[1] == handler.raw_requests[0]
    expected["cycle"] = 1
    assert handler.raw_requests[2] == ("application/json", json.dumps(expected).encode("utf-8"))
    # no connection outlives its call
    assert handler.connection_headers == ["close"] * 3


_WIRE_TEXT = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028\ud800\udfff')))


@settings(max_examples=300, deadline=None)
@given(_WIRE_TEXT, st.sampled_from([1, 4, 256]), st.floats(allow_nan=False, allow_infinity=False), st.integers())
def test_request_body_is_json_dumps_of_the_request(text, n_regions, tau, cycle):
    vocabulary = [a.key() for a in p.action_vocabulary(n_regions)]
    request = {"prompt": text, "vocabulary": vocabulary, "tau": tau, "cycle": cycle}
    backend = b.ExternalBackend("http://127.0.0.1:1/", timeout=1.0)
    body = backend._request_body(SimpleNamespace(text=text), n_regions, tau, cycle)
    assert body == json.dumps(request, allow_nan=False).encode("utf-8")


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_external_non_finite_tau_raises_before_any_request(http_backend, tau):
    url, handler = http_backend
    handler.responses.append(probs_response(4, [1.0]))
    with pytest.raises(BackendUnavailable, match="Out of range float values"):
        b.ExternalBackend(url, timeout=2.0).propose(prompt_for(summary_with()), 4, tau, 0)
    assert handler.requests == []


PLANNED = {"f": 0.5, "t": 0.5, "c": 0.0, "r": 0.9}
POINT_MASS = [1.0] + [0.0] * 19


@pytest.mark.parametrize(
    "response",
    [
        (500, {"error": "boom"}),
        (200, {"probabilities": [0.5]}),
        (200, {"nothing": True}, "it carries no probabilities"),
        (200, {"ranking": ["close_road@2", "noop@0"]}, "it carries no probabilities"),
        (200, [0.75, 0.25] + [0.0] * 18, "it carries no probabilities"),
        (200, "probabilities", "it carries no probabilities"),
        (200, {"probabilities": []}),
        (503, {}),
        (200, b"<html>not json</html>"),
        (200, b"[" * 100_000 + b"]" * 100_000),
        (200, {"probabilities": "1.0"}, "could not convert string to float"),
        (200, {"probabilities": 1.0}, "not iterable"),
        (200, b'{"probabilities": [1' + b"0" * 400 + b"]}", "int too large to convert to float"),
        (200, {"probabilities": [float("nan")] + [0.05] * 19}, "probability of reroute_region@0 is nan"),
        (200, {"probabilities": [-0.25, 1.25] + [0.0] * 18}, "probability of reroute_region@0 is -0.25"),
        (200, {"probabilities": [float("inf")] + [0.0] * 19}, "probability of reroute_region@0 is inf"),
        # each entry is finite, but their total overflows to inf
        (200, {"probabilities": [1e308, 1e308] + [0.0] * 18}, "probabilities sum to "),
        # a usable vector, so only the planned map can make the answer fail
        (200, {"probabilities": POINT_MASS, "planned": PLANNED | {"f": float("nan")}}, "f is nan, not in [0, 1]"),
        (200, {"probabilities": POINT_MASS, "planned": PLANNED | {"t": float("inf")}}, "t is inf, not in [0, 1]"),
        (200, {"probabilities": POINT_MASS, "planned": PLANNED | {"r": 1.5}}, "r is 1.5, not in [0, 1]"),
        (200, {"probabilities": POINT_MASS, "planned": {"f": 0.5, "t": 0.5, "r": 0.9}}, "malformed planned"),
        (200, {"probabilities": POINT_MASS, "planned": PLANNED | {"c": "low"}}, "malformed planned"),
        (200, {"probabilities": POINT_MASS, "planned": [0.5, 0.5, 0.0, 0.9]}, "malformed planned"),
        # `float` takes these, but none is a JSON number: a digit string would be a point mass
        (200, {"probabilities": "1" + "0" * 19}, "'1' is not a JSON number"),
        (200, {"probabilities": [str(w) for w in POINT_MASS]}, "'1.0' is not a JSON number"),
        (200, {"probabilities": [True] + [False] * 19}, "True is not a JSON number"),
        (200, {"probabilities": POINT_MASS, "planned": PLANNED | {"f": "0.5"}}, "'0.5' is not a JSON number"),
        (200, {"probabilities": POINT_MASS, "planned": PLANNED | {"r": True}}, "True is not a JSON number"),
        # a redirect is a failure: the POST body cannot follow it
        (302, {}),
        (307, {}),
    ],
)
def test_external_failures_raise(http_backend, response):
    url, handler = http_backend
    status, body, *reason = response
    handler.responses.append((status, body))
    with pytest.raises(BackendUnavailable) as failure:
        b.ExternalBackend(url, timeout=2.0).propose(prompt_for(summary_with()), 4, 1.2, 0)
    for text in reason:
        assert text in str(failure.value)


def probs_response(n_regions, weights):
    """A probability vector over the vocabulary: `weights` on its first entries."""
    probs = [0.0] * len(p.action_vocabulary(n_regions))
    probs[: len(weights)] = weights
    return (200, {"probabilities": probs})


@pytest.fixture
def parse_count(monkeypatch):
    """How often the backend parsed an answer body so far."""
    calls = []
    parse = b._parse_answer
    monkeypatch.setattr(b, "_parse_answer", lambda raw, n: calls.append(raw) or parse(raw, n))
    return calls


def test_external_identical_answer_is_parsed_once(http_backend, parse_count):
    url, handler = http_backend
    handler.responses += [probs_response(4, [0.75, 0.25])] * 3
    backend = b.ExternalBackend(url, timeout=2.0)
    prompt = prompt_for(summary_with())
    first = backend.propose(prompt, 4, 1.2, 0)
    assert backend.propose(prompt, 4, 1.2, 0) is first  # the probes of the cycle
    assert backend.propose(prompt, 4, 1.2, 0) is first
    assert len(parse_count) == 1
    assert len(handler.requests) == 3  # every call still goes over the wire


def test_external_changed_answer_is_parsed_again(http_backend, parse_count):
    url, handler = http_backend
    handler.responses += [probs_response(4, [0.75, 0.25]), probs_response(4, [0.25, 0.75])]
    backend = b.ExternalBackend(url, timeout=2.0)
    prompt = prompt_for(summary_with())
    first = backend.propose(prompt, 4, 1.2, 0)
    second = backend.propose(prompt, 4, 1.2, 0)
    assert first.distribution.probs == (0.75, 0.25)
    assert second.distribution.probs == (0.25, 0.75)
    assert len(parse_count) == 2


def test_external_same_answer_for_other_regions_is_parsed_again(http_backend, parse_count):
    url, handler = http_backend
    handler.responses += [probs_response(4, [0.75, 0.25])] * 2
    backend = b.ExternalBackend(url, timeout=2.0)
    prompt = prompt_for(summary_with())
    backend.propose(prompt, 4, 1.2, 0)
    with pytest.raises(BackendUnavailable, match="expected 10 probabilities"):
        backend.propose(prompt, 2, 1.2, 0)
    assert len(parse_count) == 2


@pytest.mark.parametrize("failure", [(503, {}), (200, b"<html>not json</html>"), (200, {"probabilities": [0.5]})])
def test_external_failure_between_answers_neither_returns_nor_clears_the_kept_one(http_backend, failure):
    url, handler = http_backend
    good, other = probs_response(4, [0.75, 0.25]), probs_response(4, [0.5, 0.5])
    handler.responses += [good, failure, good, failure, other]
    backend = b.ExternalBackend(url, timeout=2.0)
    prompt = prompt_for(summary_with())
    kept = backend.propose(prompt, 4, 1.2, 0)
    with pytest.raises(BackendUnavailable):
        backend.propose(prompt, 4, 1.2, 0)
    assert backend.propose(prompt, 4, 1.2, 0) is kept
    with pytest.raises(BackendUnavailable):
        backend.propose(prompt, 4, 1.2, 0)
    assert backend.propose(prompt, 4, 1.2, 0).distribution.probs == (0.5, 0.5)


def per_entry_distribution(probs, n_regions):
    """The per-entry check of `ExternalBackend.propose` before the numpy
    pass, kept verbatim as the oracle."""
    vocab = p.action_vocabulary(n_regions)
    if len(probs) != len(vocab):
        raise ValueError(f"expected {len(vocab)} probabilities, got {len(probs)}")
    support, kept = [], []
    for action, prob in zip(vocab, probs):
        if not (math.isfinite(prob) and prob >= 0):
            raise ValueError(f"probability of {action.key()} is {prob!r}, not finite and non-negative")
        if prob > 0:
            support.append(action)
            kept.append(prob)
    total = sum(kept)  # entries are checked, but their sum can overflow
    if not 0 < total < math.inf:
        raise ValueError(f"probabilities sum to {total!r}")
    return p.PolicyDistribution(tuple(support), tuple(prob / total for prob in kept))


# mostly zeros and plain weights, with every value the check must refuse or
# drop, and pairs of 1e308 whose sum overflows
_PROB = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.sampled_from([-0.0, 5e-324, 1e308, 1.7e308, math.nan, math.inf, -math.inf, -1.0, -5e-324]),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4), st.data())
def test_numpy_check_equals_per_entry_loop(n_regions, data):
    size = len(p.action_vocabulary(n_regions)) + data.draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    probs = data.draw(st.lists(_PROB, min_size=max(size, 0), max_size=max(size, 0)))
    try:
        expected = per_entry_distribution(probs, n_regions)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            b._probabilities_to_distribution(probs, n_regions)
        assert str(got.value) == str(exc)
        return
    got = b._probabilities_to_distribution(probs, n_regions)
    assert got.support == expected.support
    assert [struct.pack("<d", x) for x in got.probs] == [struct.pack("<d", x) for x in expected.probs]


def test_external_timeout_raises(http_backend):
    url, handler = http_backend
    handler.delay = 0.5
    # a valid answer, so only the timeout can make the call fail
    handler.responses.append(probs_response(4, [1.0]))
    with pytest.raises(BackendUnavailable):
        b.ExternalBackend(url, timeout=0.1).propose(prompt_for(summary_with()), 4, 1.2, 0)


def test_external_rejects_non_http_endpoint():
    with pytest.raises(ValueError):
        b.ExternalBackend("file:///srv/answer.json", RunConfig().external_timeout)


def test_external_rejects_an_endpoint_without_a_host():
    with pytest.raises(ValueError):
        b.ExternalBackend("http:///propose", RunConfig().external_timeout)


def test_external_unreachable_raises(no_leaked_sockets):
    backend = b.ExternalBackend("http://127.0.0.1:1/", timeout=0.2)
    with pytest.raises(BackendUnavailable):
        backend.propose(prompt_for(summary_with()), 4, 1.2, 0)


def serve_once(reply: bytes):
    """A loopback socket that reads one request and answers it with the raw
    `reply` before closing; returns its URL, the serving thread and a list
    that receives the request's bytes."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)
    received = []

    def answer():
        with listener, listener.accept()[0] as conn:
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(65536)
            head, _, body = request.partition(b"\r\n\r\n")
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            while len(body) < length:
                body += conn.recv(65536)
            received.append(head + b"\r\n\r\n" + body)
            conn.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}/", thread, received


@pytest.mark.parametrize(
    "reply, cause",
    [
        (b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"probabilities": [', http.client.IncompleteRead),
        (b"garbage\r\n\r\n", http.client.BadStatusLine),
    ],
)
def test_external_broken_http_raises(no_leaked_sockets, reply, cause):
    url, thread, _ = serve_once(reply)
    with pytest.raises(BackendUnavailable) as failure:
        b.ExternalBackend(url, timeout=2.0).propose(prompt_for(summary_with()), 4, 1.2, 0)
    thread.join(timeout=5.0)
    assert isinstance(failure.value.__cause__, cause)


# --- external through a proxy ------------------------------------------------------------------

class _Proxy(BaseHTTPRequestHandler):
    """Records every request it is sent; answers a POST with a point mass
    on the first action and refuses a CONNECT."""

    seen = []

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        _Proxy.seen.append((self.command, self.path, self.headers, raw))
        payload = json.dumps(probs_response(4, [1.0])[1]).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):
        _Proxy.seen.append((self.command, self.path, self.headers, b""))
        self.send_error(502)

    def log_message(self, *args):
        pass


@pytest.fixture
def proxy_env(monkeypatch):
    """Every proxy variable cleared; yields monkeypatch to set them."""
    for var in ("http_proxy", "https_proxy", "no_proxy", "all_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv(var.upper(), raising=False)
    return monkeypatch


@pytest.fixture
def proxy(http_backend, proxy_env):
    """A recording proxy on loopback, with every proxy variable cleared."""
    _Proxy.seen = []
    with serving(_Proxy) as url:
        yield url, _Proxy.seen


def wire_request(n_regions=4, tau=1.2, cycle=0):
    prompt = prompt_for(summary_with())
    vocabulary = [a.key() for a in p.action_vocabulary(n_regions)]
    request = {"prompt": prompt.text, "vocabulary": vocabulary, "tau": tau, "cycle": cycle}
    return prompt, json.dumps(request).encode("utf-8")


def test_external_posts_through_the_proxy_with_the_absolute_url(http_backend, proxy, monkeypatch):
    url, handler = http_backend
    proxy_url, seen = proxy
    monkeypatch.setenv("http_proxy", proxy_url)
    prompt, body = wire_request()
    proposal = b.ExternalBackend(url + "propose?model=m", timeout=2.0).propose(prompt, 4, 1.2, 0)
    assert proposal.distribution.probs == (1.0,)
    [(command, target, headers, raw)] = seen
    assert (command, target, raw) == ("POST", url + "propose?model=m", body)
    assert headers["Host"] == url.split("/")[2]
    assert "Proxy-Authorization" not in headers
    assert handler.requests == []


def test_external_sends_the_proxy_credentials(http_backend, proxy, monkeypatch):
    url, handler = http_backend
    proxy_url, seen = proxy
    monkeypatch.setenv("http_proxy", proxy_url.replace("://", "://flood%20ops:p%40ss@"))
    prompt, body = wire_request()
    b.ExternalBackend(url, timeout=2.0).propose(prompt, 4, 1.2, 0)
    [(command, target, headers, raw)] = seen
    assert (command, target, raw) == ("POST", url, body)
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"flood ops:p@ss").decode()
    assert handler.requests == []


def test_external_goes_direct_when_no_proxy_covers_the_host(http_backend, proxy, monkeypatch):
    url, handler = http_backend
    proxy_url, seen = proxy
    monkeypatch.setenv("http_proxy", proxy_url)
    monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
    handler.responses += [probs_response(4, [1.0])] * 2
    prompt, body = wire_request()
    b.ExternalBackend(url, timeout=2.0).propose(prompt, 4, 1.2, 0)
    # a proxy set after the backend was made is not taken up
    monkeypatch.delenv("no_proxy")
    monkeypatch.delenv("http_proxy")
    backend = b.ExternalBackend(url, timeout=2.0)
    monkeypatch.setenv("http_proxy", proxy_url)
    backend.propose(prompt, 4, 1.2, 0)
    assert handler.raw_requests == [("application/json", body)] * 2
    assert seen == []


def test_external_tunnels_https_through_the_proxy(http_backend, proxy, monkeypatch):
    url, handler = http_backend
    proxy_url, seen = proxy
    monkeypatch.setenv("https_proxy", proxy_url.replace("://", "://user:pw@"))
    origin = url.split("/")[2]
    with pytest.raises(BackendUnavailable):
        b.ExternalBackend(f"https://{origin}/propose", timeout=2.0).propose(prompt_for(summary_with()), 4, 1.2, 0)
    [(command, target, headers, raw)] = seen
    assert (command, target) == ("CONNECT", origin)
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()
    assert handler.requests == []


USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]


def test_external_request_head(no_leaked_sockets, proxy_env):
    prompt, body = wire_request()
    url, thread, received = serve_once(b"HTTP/1.0 503 Busy\r\nContent-Length: 0\r\n\r\n")
    with pytest.raises(BackendUnavailable):
        b.ExternalBackend(url + "propose?model=m", timeout=2.0).propose(prompt, 4, 1.2, 0)
    thread.join(timeout=5.0)
    head = (
        "POST /propose?model=m HTTP/1.1\r\nAccept-Encoding: identity\r\n"
        f"Content-Length: {len(body)}\r\nHost: {url.split('/')[2]}\r\nUser-Agent: {USER_AGENT}\r\n"
        "Content-Type: application/json\r\nConnection: close\r\n\r\n"
    )
    assert received == [head.encode() + body]


def test_external_request_head_through_a_proxy(no_leaked_sockets, proxy_env):
    prompt, body = wire_request()
    proxy_url, thread, received = serve_once(b"HTTP/1.0 503 Busy\r\nContent-Length: 0\r\n\r\n")
    proxy_env.setenv("http_proxy", proxy_url.replace("://", "://user:pw@"))
    with pytest.raises(BackendUnavailable):
        b.ExternalBackend("http://generator.invalid:8080/propose", timeout=2.0).propose(prompt, 4, 1.2, 0)
    thread.join(timeout=5.0)
    head = (
        "POST http://generator.invalid:8080/propose HTTP/1.1\r\nAccept-Encoding: identity\r\n"
        f"Content-Length: {len(body)}\r\nHost: generator.invalid:8080\r\nUser-Agent: {USER_AGENT}\r\n"
        "Content-Type: application/json\r\nProxy-Authorization: Basic dXNlcjpwdw==\r\n"
        "Connection: close\r\n\r\n"
    )
    assert received == [head.encode() + body]


def test_external_speaks_tls_to_an_https_proxy(no_leaked_sockets, proxy_env):
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)
    first = []

    def record():
        with listener, listener.accept()[0] as conn:
            first.append(conn.recv(5))

    thread = threading.Thread(target=record, daemon=True)
    thread.start()
    proxy_env.setenv("http_proxy", f"https://user:pw@127.0.0.1:{listener.getsockname()[1]}")
    with pytest.raises(BackendUnavailable):
        b.ExternalBackend("http://generator.invalid/propose", timeout=2.0).propose(prompt_for(summary_with()), 4, 1.2, 0)
    thread.join(timeout=5.0)
    # a TLS handshake record, not a POST with the credentials in the clear
    assert first[0][:1] == b"\x16"


def test_external_refuses_a_proxy_it_cannot_speak_to(proxy_env):
    proxy_env.setenv("http_proxy", "socks5://user:pw@127.0.0.1:1080")
    with pytest.raises(ValueError, match="socks5"):
        b.ExternalBackend("http://generator.invalid/propose", timeout=2.0)


# --- factory ---------------------------------------------------------------------------------

def test_make_backend_variants():
    config = RunConfig(external_endpoint="http://x/", external_timeout=2.5)
    config.policy.score_threshold = 0.6
    assert b.make_backend("empty", config).name == "empty"
    ruled = b.make_backend("ruled", config)
    assert (ruled.name, ruled.score_threshold) == ("ruled", 0.6)
    assert b.make_backend("scripted", config).name == "scripted"
    external = b.make_backend("external", config)
    assert (external.name, external.endpoint, external.timeout) == ("external", "http://x/", 2.5)
