"""Tests for trace serialization."""

import json

import pytest

from repro.sim.system import simulate
from repro.workloads import generate_warmup, generate_workload, get_profile
from repro.workloads.tracefile import (TraceFileError, load_workload,
                                       save_workload)


def test_roundtrip_preserves_ops(tmp_path):
    profile = get_profile("barnes")
    traces = generate_workload(profile, cores=2, length_per_core=400)
    warm = generate_warmup(profile, cores=2, length_per_core=400)
    path = tmp_path / "barnes.json"
    save_workload(path, traces, warmup=warm,
                  meta={"benchmark": "barnes", "seed": 0})
    loaded, loaded_warm, meta = load_workload(path)
    assert len(loaded) == 2
    assert [t.ops for t in loaded] == [t.ops for t in traces]
    assert [t.memdep_hints for t in loaded] \
        == [t.memdep_hints for t in traces]
    assert [t.ops for t in loaded_warm] == [t.ops for t in warm]
    assert meta == {"benchmark": "barnes", "seed": 0}


def test_replay_is_bit_identical(tmp_path):
    from repro.sim.config import TINY
    profile = get_profile("water_spatial")
    traces = generate_workload(profile, cores=2, length_per_core=400)
    path = tmp_path / "w.json"
    save_workload(path, traces)
    loaded, _, _ = load_workload(path)
    original = simulate(traces, "370-SLFSoS-key", TINY)
    replayed = simulate(loaded, "370-SLFSoS-key", TINY)
    assert original.execution_cycles == replayed.execution_cycles
    assert original.total.slf_loads == replayed.total.slf_loads


def test_warmup_optional(tmp_path):
    traces = generate_workload(get_profile("fft"), cores=1,
                               length_per_core=100)
    path = tmp_path / "t.json"
    save_workload(path, traces)
    loaded, warm, meta = load_workload(path)
    assert warm is None
    assert meta == {}


class TestErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json {")
        with pytest.raises(TraceFileError, match="valid JSON"):
            load_workload(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(TraceFileError, match="not a repro-trace"):
            load_workload(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "repro-trace", "version": 99}')
        with pytest.raises(TraceFileError, match="version"):
            load_workload(path)

    def test_empty_workload(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(
            '{"format": "repro-trace", "version": 1, "cores": []}')
        with pytest.raises(TraceFileError, match="no cores"):
            load_workload(path)

    def test_corrupt_op(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(
            '{"format": "repro-trace", "version": 1, '
            '"cores": [{"ops": [[1, 2]]}]}')
        with pytest.raises(TraceFileError, match="bad op record"):
            load_workload(path)

    #: One well-formed op record (an ALU op with no deps).
    ALU = [0, -1, [], 1, 0, 1, 0, 0]

    @pytest.mark.parametrize("document,message", [
        ([], "not a repro-trace"),
        ({"cores": [5]}, r"cores\[0\]: not an object"),
        ({"cores": {"0": {}}}, "'cores' is not a list"),
        ({"cores": [{"ops": 5}]}, r"cores\[0\]: 'ops' is not a list"),
        ({"cores": [{"ops": [[0, -1, [1], 1, 0, 1, 0, 0], ALU]}]},
         r"cores\[0\]: op 0 depends on 1"),
        ({"cores": [{"ops": [ALU, [1, 12, [], 1, 0, 1, 0, 0]]}]},
         r"cores\[0\]: op 1 address 0xc not 8-aligned"),
        ({"cores": [{"ops": [ALU]}, {"ops": [ALU, [0, -1, ["a"], 1, 0, 1,
                                                   0, 0]]}]},
         r"cores\[1\]: bad op record at index 1"),
        ({"cores": [{"ops": [ALU, [1, 1 << 64, [], 1, 0, 1, 0, 0]]}]},
         r"cores\[0\]: bad op record at index 1: addr 18446744073709551616 "
         r"is not a 64-bit integer"),
        ({"cores": [{"ops": [ALU, [0, -1, [], 1, 0, 1, 1 << 63, 0]]}]},
         r"cores\[0\]: bad op record at index 1: pc"),
        ({"cores": [{"ops": [[2, 8, [], 1, 0, 1, 0, -(1 << 63) - 1]]}]},
         r"cores\[0\]: bad op record at index 0: value"),
        ({"cores": [{"ops": [ALU], "memdep_hints": [[1, 2, 3]]}]},
         r"cores\[0\]: memdep hint 0 is not a pair"),
        ({"cores": [{"ops": [ALU]}], "warmup": [{"ops": [ALU]}, 7]},
         r"warmup\[1\]: not an object"),
        ({"cores": [{"ops": [ALU]}], "warmup": [{"ops": [ALU]}] * 2},
         "2 warm-up traces for 1 cores"),
        ({"cores": [{"ops": [ALU]}], "meta": 3}, "'meta' is not an object"),
    ], ids=["document", "core-entry", "cores-list", "ops-list",
            "later-dep", "unaligned", "non-integer-dep", "addr-range",
            "pc-range", "value-range", "hint-pair",
            "warmup-entry", "warmup-count", "meta"])
    def test_malformed_document(self, tmp_path, document, message):
        """Every malformed document raises TraceFileError, naming the
        core entry and the op at fault, never another exception (an
        address, pc or value outside the 64-bit columns included)."""
        if isinstance(document, dict):
            document = {"format": "repro-trace", "version": 1, **document}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(document))
        with pytest.raises(TraceFileError, match=message):
            load_workload(path)
