"""The output checker and the loopback stub."""

import copy
import json
import threading

import pytest
import requests

from checks import check_summary, output_digest, rounding_notes
from stub import StubServer, answer

GOOD = {
    "trips": {"spawned": 10, "arrived": 4, "on_time": 3, "cancelled": 1, "enroute": 3, "waiting": 2},
    "mean": {"f": 0.2, "t": 0.1, "c": 0.0, "r": 1.0, "J": 0.3},
    "scs": 0.97,
    "sds": None,
}


def doctored(path, value):
    summary = copy.deepcopy(GOOD)
    *parents, leaf = path
    node = summary
    for key in parents:
        node = node[key]
    node[leaf] = value
    return summary


def test_consistent_summary_passes():
    assert check_summary(GOOD) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("trips", "spawned"), 11),
        (("trips", "waiting"), 3),
        (("mean", "f"), 1.01),
        (("mean", "r"), -0.001),
        (("mean", "c"), float("nan")),
        (("scs",), 1.000001),
        (("scs",), float("nan")),
        (("sds",), -1e-9),
        (("sds",), 2.5),
    ],
)
def test_doctored_summary_is_rejected(path, value):
    assert len(check_summary(doctored(path, value))) == 1


@pytest.mark.parametrize(
    "path, value, notes",
    [(("scs",), 1.0000000000000004, 1), (("sds",), -2.2e-16, 1), (("sds",), 1.5, 0)],
)
def test_in_range_up_to_rounding_passes(path, value, notes):
    summary = doctored(path, value)
    assert check_summary(summary) == []
    assert len(rounding_notes(summary)) == notes


def test_digest_covers_every_pinned_file(tmp_path):
    names = ("metrics.csv", "cycles.csv", "trips.csv", "instructions.csv", "prompts.jsonl", "summary.json")
    for name in names:
        (tmp_path / name).write_text(name)
    before = output_digest(tmp_path)
    for name in names:
        (tmp_path / name).write_text(name + "!")
        assert output_digest(tmp_path) != before
        (tmp_path / name).write_text(name)
    assert output_digest(tmp_path) == before


def request(cycle, flooded="(none)", congested="(none)", feedback="(none)"):
    prompt = (
        f"## STATE\nstep: 3\nflooded_regions: {flooded}\ncongested_regions: {congested}\n"
        f"## TASK\ngo\n## FEEDBACK\n{feedback}\n"
    )
    vocab = [f"{verb}@{r}" for verb in ("reroute_region", "close_road", "hold_transit", "dispatch_relief", "noop")
             for r in range(4)]
    return {"prompt": prompt, "vocabulary": vocab, "tau": 1.2, "cycle": cycle}


def test_stub_fails_every_tenth_cycle():
    assert [answer(request(c)) is None for c in (8, 9, 10, 19)] == [False, True, False, True]


def test_stub_puts_mass_on_flooded_regions_over_a_noop_floor():
    req = request(0, flooded="region 2", congested="region 1")
    probs = dict(zip(req["vocabulary"], answer(req)["probabilities"]))
    assert sum(probs.values()) == pytest.approx(1.0)
    assert probs["noop@0"] > 0
    assert probs["reroute_region@2"] > 0 and probs["dispatch_relief@2"] > 0 and probs["close_road@2"] > 0
    assert probs["reroute_region@1"] > 0 and probs["dispatch_relief@1"] == 0
    assert answer(req) == answer(copy.deepcopy(req))
    quiet = dict(zip(req["vocabulary"], answer(request(0))["probabilities"]))
    assert quiet["noop@0"] == 1.0


def test_stub_raises_relief_under_feedback():
    calm = request(0, flooded="region 2")
    alarmed = request(0, flooded="region 2", feedback="deviation_rms: 0.1")
    relief = lambda req: dict(zip(req["vocabulary"], answer(req)["probabilities"]))["dispatch_relief@2"]
    assert relief(alarmed) > relief(calm)


def test_stub_serves_over_loopback_and_counts_bytes(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with StubServer() as stub:
        ok = requests.post(stub.endpoint, json=request(0, flooded="region 3"), timeout=5)
        down = requests.post(stub.endpoint, json=request(9), timeout=5)
        assert ok.status_code == 200 and down.status_code == 503
        assert len(ok.json()["probabilities"]) == 20
        assert stub.requests == 2
        assert stub.response_bytes == len(ok.content)
        assert stub.request_bytes == len(json.dumps(request(0, flooded="region 3"))) + len(json.dumps(request(9)))
    assert not any(t.name == "backend-stub" for t in threading.enumerate())
