"""Loopback stub for the external strategy backend.

Speaks the `ExternalBackend` wire protocol on 127.0.0.1 with the stdlib
HTTP server. Answers are a deterministic rule table over the prompt's
`flooded_regions` / `congested_regions` lines: reroute, relief and close
mass on those regions over a NoOp floor, with relief raised when the
prompt carries a `## FEEDBACK` block. Every cycle with `cycle % 10 == 9`
gets an immediate 503, so the loop's fallback path is exercised. Request
and response body bytes are counted.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

FAIL_EVERY = 10
NOOP_FLOOR = 1.0
FLOODED_WEIGHTS = {"reroute_region": 1.0, "dispatch_relief": 0.8, "close_road": 0.3}
CONGESTED_WEIGHTS = {"reroute_region": 0.6}
FEEDBACK_RELIEF_BOOST = 2.0

_REGION_LINE = re.compile(r"^(flooded_regions|congested_regions): (.*)$", re.MULTILINE)
_FEEDBACK_BLOCK = re.compile(r"^## FEEDBACK\n(?!\(none\))", re.MULTILINE)


def answer(request: dict) -> dict | None:
    """Response body for one request, or None for a deliberate 503."""
    if request["cycle"] % FAIL_EVERY == FAIL_EVERY - 1:
        return None
    prompt = request["prompt"]
    regions = {"flooded_regions": [], "congested_regions": []}
    for key, ids in _REGION_LINE.findall(prompt):
        regions[key] = [int(r) for r in re.findall(r"region (\d+)", ids)]
    relief_boost = FEEDBACK_RELIEF_BOOST if _FEEDBACK_BLOCK.search(prompt) else 1.0
    weights = {"noop@0": NOOP_FLOOR}
    for region in regions["flooded_regions"]:
        for verb, w in FLOODED_WEIGHTS.items():
            w *= relief_boost if verb == "dispatch_relief" else 1.0
            weights[f"{verb}@{region}"] = weights.get(f"{verb}@{region}", 0.0) + w
    for region in regions["congested_regions"]:
        for verb, w in CONGESTED_WEIGHTS.items():
            weights[f"{verb}@{region}"] = weights.get(f"{verb}@{region}", 0.0) + w
    total = sum(weights.values())
    return {"probabilities": [weights.get(key, 0.0) / total for key in request["vocabulary"]]}


class StubServer:
    """The stub on an ephemeral loopback port, served from one thread."""

    def __init__(self):
        self.requests = 0
        self.request_bytes = 0
        self.response_bytes = 0
        self._lock = threading.Lock()
        self._httpd = HTTPServer(("127.0.0.1", 0), self._handler())
        self._thread = threading.Thread(target=self._httpd.serve_forever, name="backend-stub", daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/propose"

    @property
    def wire_bytes(self) -> int:
        return self.request_bytes + self.response_bytes

    def reset_counters(self) -> None:
        with self._lock:
            self.requests = self.request_bytes = self.response_bytes = 0

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    def _handler(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                body = answer(json.loads(raw))
                data = b"" if body is None else json.dumps(body).encode()
                with stub._lock:
                    stub.requests += 1
                    stub.request_bytes += len(raw)
                    stub.response_bytes += len(data)
                self.send_response(503 if body is None else 200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format, *args):
                pass

        return Handler
