"""Smoke test of the benchmark at tiny sizes (``--seconds 1``).

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric ``BENCHMARK.json`` lists is printed with its
unit on every workload, untraced and traced; that a served or swept
payload that differs from its in-process re-execution is counted as a
failure; and that the traced run writes a well-formed Chrome trace.
"""

import argparse
import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_chrome_trace(path: str) -> None:
    doc = json.loads(pathlib.Path(path).read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans
    ids = {e["args"]["span_id"] for e in spans}
    for event in spans:
        assert {"name", "ts", "dur", "pid", "tid", "args"} <= set(event)
        assert event["dur"] >= 0
        parent = event["args"]["parent"]
        assert parent is None or parent in ids
    names = {e["name"] for e in spans}
    assert {"workloads.generate_workload", "sim.build", "sim.run"} <= names
    assert doc["otherData"]["self_s"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and report["failed_frac"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace:
        _check_chrome_trace(report["trace_file"])
    else:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload, module, target", [
    ("fig10-cold", "fig10", "_in_process_stats"),
    ("serve-loop", "serveloop", "_reexecute"),
])
def test_payload_mismatch_counts_as_failed(workload, module, target,
                                           monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import common
    import run
    import speed

    for var in common.UNSET_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_STRICT", "0")
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    mod = __import__(module)
    original = getattr(mod, target)

    def tampered(*args):
        payload = original(*args)
        if isinstance(payload, dict):
            return dict(payload, tampered=True)
        payload.execution_cycles += 1
        return payload

    monkeypatch.setattr(mod, target, tampered)
    args = argparse.Namespace(workload=workload, seed=5, seconds=1, trace=0)
    with common.scratch_dir(str(ROOT / ".perfbench"), "smoke-") as work:
        ctx = run.Context(args, work)
        with speed.Probe() as ctx.probe:
            out = mod.run(ctx)
    assert out["failed"] > 0
    assert out["failed"] / out["attempted"] > 0
