"""/v1/healthz degraded-state reporting: drain-in-progress, recent
watchdog recycles, recent broken-pool replacements, and recovery once
the incident window passes."""

import time

from repro.serve.api import DEGRADED_WINDOW_S, ServeService


def _service(**kw):
    # Executors spawn lazily, so a never-started service is cheap.
    return ServeService(shards=1, cache=False, **kw)


def test_healthz_ok_by_default():
    doc = _service().healthz()
    assert doc["ok"] is True
    assert doc["state"] == "ok"
    assert doc["degraded"] == []
    assert doc["draining"] is False
    assert doc["shards"] == 1
    assert doc["recycles"] == 0
    assert doc["pool_replacements"] == 0


def test_draining_reports_degraded_but_alive():
    service = _service()
    service.draining = True
    doc = service.healthz()
    assert doc["ok"] is True            # still answering
    assert doc["state"] == "degraded"
    assert "drain-in-progress" in doc["degraded"]
    assert doc["draining"] is True


def test_recent_incident_reports_degraded():
    service = _service()
    service.pool.last_incident = (time.monotonic(), "watchdog-recycle")
    doc = service.healthz()
    assert doc["state"] == "degraded"
    assert doc["degraded"] == ["watchdog-recycle"]


def test_incident_ages_out_of_the_window():
    service = _service()
    service.pool.last_incident = (time.monotonic() - DEGRADED_WINDOW_S - 1,
                                  "pool-replacement")
    doc = service.healthz()
    assert doc["state"] == "ok"
    assert doc["degraded"] == []


def test_draining_and_incident_stack():
    service = _service()
    service.draining = True
    service.pool.last_incident = (time.monotonic(), "pool-replacement")
    doc = service.healthz()
    assert doc["state"] == "degraded"
    assert doc["degraded"] == ["drain-in-progress", "pool-replacement"]
