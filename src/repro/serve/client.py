"""A small synchronous client for the serve API (stdlib ``urllib``).

Used by ``repro submit`` / ``repro poll``, the CI smoke, the synth
benchmark, and the tests — anything that talks to the service from a
plain blocking process.  Transport failures raise :class:`ServeError`;
HTTP-level rejections (429/503/400) come back as normal
``(status, payload)`` results so callers can inspect the structured
body the service went to the trouble of writing.

With ``retries`` > 0 the client absorbs transient pressure on its own:
a 429/503 is retried after the server's ``Retry-After`` header (falling
back to exponential backoff with jitter), and *idempotent* requests —
the GET polls — are also retried on connection resets, which a server
restarting mid-poll produces.  Retries default to **0** so callers
that assert on the first response (the admission tests, for one) see
exactly what the server said; the CLI opts in.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

DEFAULT_URL = "http://127.0.0.1:8377"

#: Statuses that mean "try again shortly", never "you are wrong".
RETRYABLE_STATUSES = (429, 503)
#: Ceiling on a single computed backoff sleep.
MAX_BACKOFF_S = 10.0


class ServeError(RuntimeError):
    """The service could not be reached, or answered with garbage."""


class ServeClient:
    """Blocking JSON-over-HTTP client for one service base URL."""

    def __init__(self, url: str = DEFAULT_URL,
                 timeout: float = 30.0,
                 retries: int = 0,
                 backoff: float = 0.25) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # -- transport -----------------------------------------------------

    def _once(self, method: str, path: str,
              body: Optional[object] = None
              ) -> Tuple[int, Dict, Optional[str]]:
        """One attempt: ``(status, payload, Retry-After header)``.
        Raises the underlying transport error unconverted."""
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return (resp.status, json.loads(resp.read().decode()),
                        resp.headers.get("Retry-After"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode())
            except ValueError:
                payload = {"error": "non-json-response",
                           "status": exc.code}
            return exc.code, payload, exc.headers.get("Retry-After")

    def _sleep_before_retry(self, attempt: int,
                            retry_after: Optional[str]) -> None:
        """Honour ``Retry-After`` when the server sent one; otherwise
        exponential backoff with full jitter so a thundering herd of
        rejected clients does not come back in lockstep."""
        delay = None
        if retry_after is not None:
            try:
                delay = float(retry_after)
            except ValueError:
                delay = None
        if delay is None:
            delay = self.backoff * (2 ** attempt) * random.random()
        time.sleep(min(max(delay, 0.0), MAX_BACKOFF_S))

    def _request(self, method: str, path: str,
                 body: Optional[object] = None) -> Tuple[int, Dict]:
        idempotent = method == "GET"
        attempt = 0
        while True:
            try:
                status, payload, retry_after = self._once(
                    method, path, body)
            except (urllib.error.URLError, OSError, ValueError) as exc:
                # A connection reset mid-POST may have submitted the
                # job; only GETs are safe to repeat blindly.  (Submits
                # are content-keyed and *would* dedupe server-side, but
                # the caller should know the transport failed.)
                if idempotent and attempt < self.retries:
                    self._sleep_before_retry(attempt, None)
                    attempt += 1
                    continue
                raise ServeError(
                    f"{method} {self.url}{path} failed: {exc}") from exc
            if status in RETRYABLE_STATUSES and attempt < self.retries:
                self._sleep_before_retry(attempt, retry_after)
                attempt += 1
                continue
            return status, payload

    # -- endpoints -----------------------------------------------------

    def get(self, path: str) -> Tuple[int, Dict]:
        """GET an arbitrary API path (e.g. ``/v1/jobs/<id>``)."""
        return self._request("GET", path)

    def healthz(self) -> Dict:
        return self._request("GET", "/v1/healthz")[1]

    def metrics(self) -> Dict:
        return self._request("GET", "/v1/metrics")[1]

    def submit(self, job: Dict) -> Tuple[int, Dict]:
        """Submit one job; returns ``(status, job document)``."""
        return self._request("POST", "/v1/jobs", job)

    def submit_batch(self, jobs: List[Dict]) -> Dict:
        """Submit a batch; returns the batch document."""
        status, payload = self._request("POST", "/v1/jobs",
                                        {"jobs": jobs})
        if status != 200:
            raise ServeError(f"batch submit failed ({status}): {payload}")
        return payload

    def job(self, job_id: str, wait: Optional[float] = None
            ) -> Tuple[int, Dict]:
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self._request("GET", path)

    # -- conveniences --------------------------------------------------

    def wait_ready(self, deadline: float = 10.0) -> Dict:
        """Poll ``/v1/healthz`` until the service answers."""
        t_end = time.monotonic() + deadline
        while True:
            try:
                return self.healthz()
            except ServeError:
                if time.monotonic() >= t_end:
                    raise
                time.sleep(0.05)

    def wait_all(self, job_ids: List[str], deadline: float = 300.0,
                 poll_wait: float = 10.0) -> Dict[str, Dict]:
        """Long-poll every job to a terminal state; id → document.

        Raises :class:`ServeError` if the deadline passes with jobs
        still queued or running.
        """
        docs: Dict[str, Dict] = {}
        t_end = time.monotonic() + deadline
        remaining = list(job_ids)
        while remaining:
            job_id = remaining[0]
            left = t_end - time.monotonic()
            if left <= 0:
                raise ServeError(
                    f"deadline passed with {len(remaining)} job(s) "
                    f"unfinished (first: {job_id})")
            status, doc = self.job(job_id,
                                   wait=min(poll_wait, max(left, 0.1)))
            if status != 200:
                raise ServeError(f"poll {job_id} failed "
                                 f"({status}): {doc}")
            if doc["state"] in ("done", "failed", "rejected"):
                docs[job_id] = doc
                remaining.pop(0)
        return docs
