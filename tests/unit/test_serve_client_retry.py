"""ServeClient retry behaviour against a scripted stdlib HTTP server:
Retry-After-honouring backoff on 429/503, idempotent-GET retry on
connection resets, and retries=0 passing the first answer through."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve.client import ServeClient, ServeError


class ScriptedHandler(BaseHTTPRequestHandler):
    """Plays back ``server.script`` one entry per request.

    Entries: ``("status", code, payload, headers)`` sends a JSON
    response; ``("reset",)`` slams the connection shut with no bytes —
    what a server killed mid-poll looks like.
    """

    def _play(self):
        server = self.server
        with server.lock:
            server.seen.append((self.command, self.path))
            step = (server.script.pop(0) if server.script
                    else ("status", 200, {"ok": True}, {}))
        if step[0] == "reset":
            self.connection.close()
            return
        _, code, payload, headers = step
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    do_GET = _play
    do_POST = _play

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.script = []
    server.seen = []
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _client(server, **kwargs):
    host, port = server.server_address
    return ServeClient(f"http://{host}:{port}", timeout=5.0, **kwargs)


def test_retries_429_honouring_retry_after(scripted_server):
    scripted_server.script = [
        ("status", 429, {"error": "quota-exceeded"}, {"Retry-After": "1"}),
        ("status", 200, {"state": "done"}, {}),
    ]
    client = _client(scripted_server, retries=2)
    t0 = time.monotonic()
    status, payload = client.get("/v1/jobs/j1")
    elapsed = time.monotonic() - t0
    assert status == 200
    assert payload == {"state": "done"}
    assert len(scripted_server.seen) == 2
    # The 1-second Retry-After was honoured, not the default jitter.
    assert elapsed >= 0.9


def test_retries_503_then_succeeds(scripted_server):
    scripted_server.script = [
        ("status", 503, {"error": "draining"}, {"Retry-After": "0"}),
        ("status", 503, {"error": "draining"}, {"Retry-After": "0"}),
        ("status", 200, {"ok": True}, {}),
    ]
    client = _client(scripted_server, retries=2)
    status, _ = client.get("/v1/healthz")
    assert status == 200
    assert len(scripted_server.seen) == 3


def test_zero_retries_returns_first_rejection(scripted_server):
    scripted_server.script = [
        ("status", 429, {"error": "quota-exceeded"}, {"Retry-After": "9"}),
    ]
    client = _client(scripted_server)   # retries defaults to 0
    status, payload = client.get("/v1/jobs/j1")
    assert status == 429
    assert payload["error"] == "quota-exceeded"
    assert len(scripted_server.seen) == 1


def test_get_retries_connection_reset(scripted_server):
    scripted_server.script = [
        ("reset",),
        ("status", 200, {"state": "done"}, {}),
    ]
    client = _client(scripted_server, retries=2, backoff=0.01)
    status, payload = client.get("/v1/jobs/j1")
    assert status == 200
    assert payload == {"state": "done"}


def test_post_never_retries_transport_errors(scripted_server):
    # A reset mid-POST may or may not have enqueued the job; blind
    # resubmission is the caller's decision, not the client's.
    scripted_server.script = [("reset",), ("status", 200, {}, {})]
    client = _client(scripted_server, retries=3, backoff=0.01)
    with pytest.raises(ServeError):
        client.submit({"kind": "litmus", "name": "mp"})
    assert len(scripted_server.seen) == 1
