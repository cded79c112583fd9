"""Unit tests for the serve job model: parsing, keys, execution."""

import json

import pytest

from repro.litmus.operational import MODELS, enumerate_outcomes
from repro.litmus.registry import litmus_registry
from repro.serve.jobs import (DEFAULT_PRIORITY, JobValidationError,
                              LitmusSpec, execute_litmus, execute_request,
                              parse_request, request_key, spec_to_dict)
from repro.sweep.runner import SweepJob, job_key


class TestParseRequest:
    def test_bench_minimal(self):
        kind, spec, priority = parse_request(
            {"name": "radix", "policy": "x86"})
        assert kind == "bench"
        assert spec == SweepJob(name="radix", policy="x86")
        assert priority == DEFAULT_PRIORITY

    def test_sweep_alias(self):
        kind, spec, _ = parse_request(
            {"kind": "sweep", "name": "fft", "policy": "370-NoSpec",
             "cores": 2, "length": 800, "seed": 3})
        assert kind == "sweep"
        assert spec.cores == 2 and spec.length == 800 and spec.seed == 3

    def test_litmus_defaults_all_models(self):
        kind, spec, _ = parse_request({"kind": "litmus", "name": "mp"})
        assert kind == "litmus"
        assert spec == LitmusSpec("mp", tuple(MODELS))

    def test_litmus_model_subset(self):
        _, spec, _ = parse_request(
            {"kind": "litmus", "name": "sb", "models": ["SC", "x86"]})
        assert spec.models == ("SC", "x86")

    def test_priority_carried(self):
        _, _, priority = parse_request(
            {"kind": "litmus", "name": "mp", "priority": 5})
        assert priority == 5

    @pytest.mark.parametrize("bad", [
        42,                                           # not an object
        {"kind": "nope"},                             # unknown kind
        {"name": "radix", "policy": "not-a-policy"},  # unknown policy
        {"name": "not-a-benchmark", "policy": "x86"},
        {"name": "radix", "policy": "x86", "cores": 0},
        {"name": "radix", "policy": "x86", "length": 0},
        {"name": "radix", "policy": "x86", "typo_field": 1},
        {"name": "radix", "policy": "x86", "priority": "high"},
        {"kind": "litmus"},                           # missing name
        {"kind": "litmus", "name": "not-a-test"},
        {"kind": "litmus", "name": "mp", "models": []},
        {"kind": "litmus", "name": "mp", "models": ["alpha"]},
        {"kind": "litmus", "name": "mp", "stray": 1},
        {"name": "radix", "policy": "x86", "obs_sample_interval": 0},
        {"name": "radix", "policy": "x86", "obs_sample_interval": "64"},
        {"name": "radix", "policy": "x86", "obs": "no"},
        {"name": "radix", "policy": "x86", "detect_violations": 1},
        {"name": "radix", "policy": "x86", "memdep_hints": "false"},
        {"name": "radix", "policy": "x86", "checkpoint_every": 2.5},
        {"name": "radix", "policy": "x86", "obs_sample_interval": None},
        # More cores than the simulated system has (8, the default).
        {"kind": "bench", "name": "fft", "policy": "x86", "cores": 9,
         "length": 200},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(JobValidationError) as err:
            parse_request(bad)
        payload = err.value.payload
        assert payload["error"] == "invalid-job"
        assert payload["status"] == 400
        assert payload["message"]

    def test_spec_round_trips(self):
        for data in ({"kind": "litmus", "name": "mp",
                      "models": ["SC", "370"]},
                     {"kind": "bench", "name": "radix", "policy": "x86",
                      "cores": 4, "length": None, "seed": 1,
                      "detect_violations": False, "memdep_hints": True,
                      "obs": False, "obs_sample_interval": 64}):
            kind, spec, _ = parse_request(data)
            wire = spec_to_dict(kind, spec)
            kind2, spec2, _ = parse_request(wire)
            assert spec2 == spec


class TestRequestKey:
    def test_bench_key_is_the_sweep_cache_key(self):
        job = SweepJob(name="radix", policy="x86", cores=2, length=600)
        assert request_key(job) == job_key(job)

    def test_identical_requests_share_a_key(self):
        _, a, _ = parse_request({"name": "radix", "policy": "x86"})
        _, b, _ = parse_request({"kind": "sweep", "name": "radix",
                                 "policy": "x86"})
        assert request_key(a) == request_key(b)

    def test_any_field_change_forks_the_key(self):
        base = {"kind": "litmus", "name": "mp", "models": ["SC", "370"]}
        _, spec, _ = parse_request(base)
        variants = [{"kind": "litmus", "name": "sb",
                     "models": ["SC", "370"]},
                    {"kind": "litmus", "name": "mp", "models": ["SC"]},
                    {"name": "radix", "policy": "x86"}]
        keys = {request_key(parse_request(v)[1]) for v in variants}
        assert request_key(spec) not in keys
        assert len(keys) == len(variants)


class TestExecution:
    def test_litmus_matches_the_enumerator(self):
        spec = LitmusSpec("mp", ("SC", "x86"))
        payload = execute_litmus(spec)
        program = litmus_registry()["mp"]
        for model in spec.models:
            expected = sorted(str(o)
                              for o in enumerate_outcomes(program, model))
            assert payload["models"][model] == expected
            assert payload["counts"][model] == len(expected)

    def test_litmus_payload_is_deterministic_json(self):
        spec = LitmusSpec("iriw")
        a = json.dumps(execute_litmus(spec), sort_keys=True)
        b = json.dumps(execute_request(spec), sort_keys=True)
        assert a == b

    def test_execute_request_bench_equals_execute_job(self):
        from repro.sweep.runner import execute_job
        job = SweepJob(name="radix", policy="x86", cores=2, length=600)
        served = json.dumps(execute_request(job), sort_keys=True)
        direct = json.dumps(execute_job(job), sort_keys=True)
        assert served == direct


class TestSweepJobWire:
    def test_round_trip(self):
        job = SweepJob(name="fft", policy="370-SLFSoS", cores=4,
                       length=1000, seed=7, obs=True)
        assert SweepJob.from_dict(job.to_dict()) == job

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            SweepJob.from_dict({"name": "fft", "policy": "x86",
                                "bogus": 1})

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="required"):
            SweepJob.from_dict({"name": "fft"})

    def test_custom_config_not_serializable(self):
        from repro.sim.config import TINY
        job = SweepJob(name="fft", policy="x86", config=TINY)
        with pytest.raises(ValueError, match="config"):
            job.to_dict()


class TestSynthJobs:
    def test_parse_minimal(self):
        kind, spec, priority = parse_request(
            {"kind": "synth", "bounds": {"threads": 2, "max_ops": 2}})
        assert kind == "synth"
        assert spec.bounds.threads == 2 and spec.bounds.max_ops == 2
        assert spec.chunk == 0 and spec.chunks == 1
        from repro.synth.search import MODEL_PAIRS
        assert spec.pairs == MODEL_PAIRS
        assert priority == DEFAULT_PRIORITY

    def test_spec_round_trips(self):
        data = {"kind": "synth",
                "bounds": {"threads": 2, "max_ops": 2, "addresses": 2,
                           "fences": True, "max_total": 3},
                "pairs": [["370", "x86"]], "chunk": 1, "chunks": 4,
                "limit": 2}
        kind, spec, _ = parse_request(data)
        wire = spec_to_dict(kind, spec)
        _, spec2, _ = parse_request(wire)
        assert spec2 == spec

    @pytest.mark.parametrize("bad", [
        {"kind": "synth"},                              # missing bounds
        {"kind": "synth", "bounds": {"threads": 0}},
        {"kind": "synth", "bounds": {}, "pairs": []},
        {"kind": "synth", "bounds": {}, "pairs": [["x86", "SC"]]},
        {"kind": "synth", "bounds": {}, "pairs": [["SC", "SC"]]},
        {"kind": "synth", "bounds": {}, "pairs": [["SC", "alpha"]]},
        {"kind": "synth", "bounds": {}, "chunk": 2, "chunks": 2},
        {"kind": "synth", "bounds": {}, "chunks": 0},
        {"kind": "synth", "bounds": {}, "limit": -1},
        {"kind": "synth", "bounds": {}, "stray": 1},
        {"kind": "synth",                               # typo'd field
         "bounds": {"threads": 2, "max_op": 3, "addresses": 2}},
        {"kind": "synth", "bounds": {"threads": 2.5}},
        {"kind": "synth", "bounds": {"threads": True}},
        {"kind": "synth", "bounds": {"fences": "no"}},
        {"kind": "synth", "bounds": {"max_total": 1.5}},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(JobValidationError):
            parse_request(bad)

    def test_chunk_forks_the_key(self):
        base = {"kind": "synth", "bounds": {"threads": 2, "max_ops": 2}}
        _, whole, _ = parse_request(base)
        _, part, _ = parse_request({**base, "chunk": 1, "chunks": 2})
        assert request_key(whole) != request_key(part)

    def test_execute_matches_direct_search(self):
        from repro.synth import SynthBounds, SynthResult, search
        _, spec, _ = parse_request(
            {"kind": "synth", "bounds": {"threads": 2, "max_ops": 2},
             "chunk": 0, "chunks": 2})
        payload = execute_request(spec)
        assert payload["kind"] == "synth"
        direct = search(SynthBounds(threads=2, max_ops=2),
                        chunk=0, chunks=2)
        expected = direct.to_dict()
        expected["kind"] = "synth"
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)
        # And the wire form reconstructs losslessly.
        clone = SynthResult.from_dict(payload)
        assert clone.enumerated == direct.enumerated
        assert set(clone.distinguishers) == set(direct.distinguishers)

    def test_chunked_results_merge_to_the_serial_search(self):
        from repro.synth import SynthResult, merge_results, search
        from repro.synth.space import SynthBounds
        bounds = {"threads": 2, "max_ops": 2}
        parts = []
        for chunk in range(3):
            _, spec, _ = parse_request(
                {"kind": "synth", "bounds": bounds,
                 "chunk": chunk, "chunks": 3})
            parts.append(SynthResult.from_dict(execute_request(spec)))
        merged = merge_results(parts)
        serial = search(SynthBounds(threads=2, max_ops=2))
        assert merged.enumerated == serial.enumerated
        assert set(merged.distinguishers) == set(serial.distinguishers)
