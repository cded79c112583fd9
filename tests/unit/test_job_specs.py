"""Each job kind is one spec type: a bench cell refuses, when built, a
field it cannot run with, and every kind's idempotency key is the
content hash of the same wire fields the service has always hashed."""

import pytest

from repro.serve.jobs import parse_request, request_key
from repro.sweep.cache import code_version, content_key
from repro.sweep.runner import SweepJob, job_key


@pytest.mark.parametrize("fields, named", [
    ({"name": "nosuch"}, "benchmark"),
    ({"policy": "nosuch"}, "policy"),
    ({"cores": 0}, "cores"),
    ({"cores": 9}, "cores"),
    ({"length": 0}, "length"),
    ({"obs_sample_interval": 0}, "obs_sample_interval"),
    ({"cores": True}, "cores"),
    ({"cores": "2"}, "cores"),
    ({"seed": "1"}, "seed"),
    ({"length": True}, "length"),
    ({"obs_sample_interval": "64"}, "obs_sample_interval"),
    ({"obs": "no"}, "obs"),
    # A served null here was a 500 (cores) or a job that failed in its
    # worker (seed).
    ({"cores": None}, "cores"),
    ({"seed": None}, "seed"),
])
def test_a_cell_that_cannot_run_is_refused_when_built(fields, named):
    cell = {"name": "fft", "policy": "x86", "cores": 2, "length": 100}
    cell.update(fields)
    with pytest.raises(ValueError, match=named):
        SweepJob(**cell)


@pytest.mark.parametrize("request_doc, hashed", [
    ({"kind": "litmus", "name": "mp", "models": ["SC", "x86"]},
     {"kind": "litmus", "name": "mp", "models": ["SC", "x86"]}),
    ({"kind": "leak", "gadget": "spectre-slf",
      "policies": ["x86", "370-SLFSoS-key"]},
     {"kind": "leak", "gadget": "spectre-slf",
      "policies": ["x86", "370-SLFSoS-key"]}),
    ({"kind": "synth", "bounds": {"threads": 2, "max_ops": 2,
                                  "addresses": 1},
      "chunk": 0, "chunks": 2},
     {"kind": "synth",
      "bounds": {"threads": 2, "max_ops": 2, "addresses": 1,
                 "fences": False, "max_total": 0, "rmws": False,
                 "acqrel": False},
      "pairs": [["SC", "370"], ["SC", "x86"], ["370", "x86"],
                ["x86", "WMM"], ["370", "WMM"], ["SC", "WMM"]],
      "chunk": 0, "chunks": 2, "limit": 0}),
])
def test_service_kinds_key_their_wire_fields(request_doc, hashed):
    _kind, spec, _priority = parse_request(request_doc)
    assert request_key(spec) == content_key(
        {"schema": 1, **hashed, "code": code_version()})


def test_a_cell_keys_as_the_sweep_cache_does():
    _kind, spec, _priority = parse_request(
        {"kind": "bench", "name": "radix", "policy": "x86", "cores": 2,
         "length": 600, "obs": True, "obs_sample_interval": 32})
    assert request_key(spec) == job_key(spec)
