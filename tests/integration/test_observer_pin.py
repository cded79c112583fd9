"""Pinned observer output: the violation detector's counts and the
pipeline tracer's records.

The sibling of ``test_stats_pin.py``.  Its only detector pin is an fft
cell under ``370-SLFSoS-key``, whose count is 0, and x86 cells at the
default configuration witness no violation either, so those pins would
not notice a detector that stopped counting.  These cells do count:

* two x86 cells under the ``l1-evict-squash`` regime, where L1 castouts
  remove lines that no ``mesi.*`` probe reports;
* the directed window-of-vulnerability workload of
  ``test_vulnerability_window.py``, whose own test only asserts ``> 0``.

The tracer's records are pinned through the files ``repro trace`` and
``repro leak --trace-dir`` write.  Each digest is the first 16 hex
characters of :func:`repro.sweep.cache.content_key` over the stats
payload, the parsed trace JSON, or the list of parsed JSONL records.
"""

import json

import pytest

from repro.cli import main
from repro.core.policies import POLICY_ORDER
from repro.sim.system import simulate
from repro.sweep import SweepJob
from repro.sweep.cache import content_key
from repro.sweep.runner import execute_job
from test_stats_pin import REGIMES
from test_vulnerability_window import CONFIG, _window_workload

#: profile -> (per-core violation counts, stats digest) of the x86 cell
#: at 2 cores × 400 under the l1-evict-squash regime, seed 0.
REGIME_VIOLATIONS = {
    "x264": ([25, 14], "2e527a8fa2c97dd5"),
    "barnes": ([1, 0], "b000e3a5591be9a1"),
}
WINDOW_VIOLATIONS = ([208, 0], "1ed9ee989054ac10")
TRACE_PIN = "d91f56187f649cbf"        # repro trace radix -c 2 -l 1000
METRICS_PIN = "a1050f1469eee692"      # ... and its --metrics records
#: policy -> digest of ``repro leak spectre-slf --trace-dir``'s file.
LEAK_TRACE_PINS = {
    "x86": "dd71404461ac2045",
    "370-NoSpec": "b0c7d6d5caf5ec13",
    "370-SLFSpec": "f235f3a3d5645da9",
    "370-SLFSoS": "0983b6d6e5954e86",
    "370-SLFSoS-key": "2e4f5f701bf4a938",
}


def digest(document):
    return content_key(document)[:16]


def _violations(payload):
    per_core = payload["per_core"]
    return [per_core[core]["store_atomicity_violations"]
            for core in sorted(per_core, key=int)]


@pytest.mark.parametrize("name", sorted(REGIME_VIOLATIONS))
def test_castout_violations_are_pinned(name):
    payload = execute_job(SweepJob(
        name, "x86", cores=2, length=400, detect_violations=True,
        config=REGIMES["l1-evict-squash"]))
    assert (_violations(payload), digest(payload)) \
        == REGIME_VIOLATIONS[name]


def test_window_workload_violations_are_pinned():
    stats = simulate(list(_window_workload()), "x86", config=CONFIG,
                     detect_violations=True, warm_caches=False)
    payload = stats.to_dict()
    assert (_violations(payload), digest(payload)) == WINDOW_VIOLATIONS


def test_pipeline_trace_is_pinned(tmp_path, capsys):
    trace, metrics = tmp_path / "t.json", tmp_path / "m.jsonl"
    assert main(["trace", "radix", "-c", "2", "-l", "1000",
                 "-o", str(trace), "--metrics", str(metrics)]) == 0
    capsys.readouterr()
    records = [json.loads(line)
               for line in metrics.read_text().splitlines()]
    assert digest(json.loads(trace.read_text())) == TRACE_PIN
    assert digest(records) == METRICS_PIN


def test_leak_traces_are_pinned(tmp_path, capsys):
    assert main(["leak", "spectre-slf", "--trace-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {
        policy: digest(json.loads(
            (tmp_path / f"spectre-slf-{policy}.trace.json").read_text()))
        for policy in POLICY_ORDER}
    assert written == LEAK_TRACE_PINS
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"spectre-slf-{policy}.trace.json" for policy in POLICY_ORDER)
