"""Unit tests for repro.leakage: taint propagation, the leak watcher's
probe correlation, the gadget battery, and leak_run end-to-end."""

import json

import pytest

from repro.core.policies import POLICY_ORDER
from repro.cpu import isa
from repro.cpu.isa import Trace
from repro.leakage import GADGET_CONFIG, GADGETS, TaintMap, leak_run
from repro.leakage.taint import UNTAINTED
from repro.leakage.watcher import LeakWatcher
from repro.obs.bus import ProbeBus
from repro.sim.stats import SystemStats
from repro.sim.system import System

SECRET = 64
PROBE = 8 * 64


# ----------------------------------------------------------------------
# TaintMap
# ----------------------------------------------------------------------

def test_taint_secret_load_taints_value_not_address():
    trace = Trace([isa.load(SECRET)])
    taint = TaintMap(trace, [SECRET])
    assert taint.value_tainted == [True]
    assert taint.addr_tainted == [False]       # its *address* is public
    assert taint.source == [0]


def test_taint_propagates_through_deps_to_address():
    trace = Trace()
    s = trace.append(isa.load(SECRET))
    a = trace.append(isa.alu(deps=(s,)))
    trace.append(isa.load(PROBE, deps=(a,)))
    taint = TaintMap(trace, [SECRET])
    assert taint.value_tainted == [True, True, True]
    assert taint.addr_tainted == [False, False, True]
    assert taint.source == [0, 0, 0]
    assert taint.tainted_loads() == [2]


def test_taint_untainted_without_secret():
    trace = Trace()
    s = trace.append(isa.load(SECRET))
    trace.append(isa.load(PROBE, deps=(s,)))
    taint = TaintMap(trace, [])
    assert not taint.any_tainted
    assert taint.source == [UNTAINTED, UNTAINTED]


def test_taint_store_with_tainted_dep_has_tainted_address():
    trace = Trace()
    s = trace.append(isa.load(SECRET))
    trace.append(isa.store(PROBE, deps=(s,)))
    taint = TaintMap(trace, [SECRET])
    assert taint.addr_tainted == [False, True]


def test_taint_secret_read_dominates_dep_provenance():
    # A secret load fed by another secret load restarts provenance.
    trace = Trace()
    s0 = trace.append(isa.load(SECRET))
    trace.append(isa.load(2 * 64, deps=(s0,)))
    taint = TaintMap(trace, [SECRET, 2 * 64])
    assert taint.source == [0, 1]


# ----------------------------------------------------------------------
# LeakWatcher correlation (driven by hand-fired probes)
# ----------------------------------------------------------------------

def _watcher_with_tainted_probe():
    trace = Trace()
    s = trace.append(isa.load(SECRET))
    trace.append(isa.load(PROBE, deps=(s,)))
    bus = ProbeBus()
    watcher = LeakWatcher(bus, {0: TaintMap(trace, [SECRET])})
    return bus, watcher


def test_watcher_confirms_squashed_candidate():
    bus, watcher = _watcher_with_tainted_probe()
    perform = bus.resolve("load.perform")
    squash = bus.resolve("squash.inval")
    perform(0, 100, 1, PROBE, PROBE // 64, False, 1)
    squash(0, 130, 0, 2)
    report = watcher.finalize()
    assert len(report.confirmed) == 1
    assert report.leaked_lines == [PROBE // 64]
    assert report.confirmed[0].window == 30
    assert report.confirmed[0].squash_reason == "inval"
    assert report.confirmed[0].source == 0
    assert report.histograms["leak_window"].count == 1
    assert not report.exposed


def test_watcher_nonspeculative_perform_is_ignored():
    bus, watcher = _watcher_with_tainted_probe()
    perform = bus.resolve("load.perform")
    perform(0, 100, 1, PROBE, PROBE // 64, False, 0)   # spec == 0
    report = watcher.finalize()
    assert report.tainted_performs == 0
    assert not report.confirmed and not report.exposed


def test_watcher_unsquashed_candidate_is_exposed():
    bus, watcher = _watcher_with_tainted_probe()
    bus.resolve("load.perform")(0, 100, 1, PROBE, PROBE // 64, False, 2)
    report = watcher.finalize()
    assert not report.confirmed
    assert len(report.exposed) == 1
    assert report.exposed[0].spec == 2


def test_watcher_squash_older_seq_spares_candidate():
    bus, watcher = _watcher_with_tainted_probe()
    bus.resolve("load.perform")(0, 100, 1, PROBE, PROBE // 64, False, 1)
    bus.resolve("squash.memdep")(0, 120, 2, 1)         # from_seq > seq
    report = watcher.finalize()
    assert not report.confirmed and len(report.exposed) == 1


def test_watcher_side_effects_counted_inside_slf_window():
    bus, watcher = _watcher_with_tainted_probe()
    fill = bus.resolve("cache.fill")
    noc = bus.resolve("noc.msg")
    prefetch = bus.resolve("prefetch.issue")
    fill(0, 5, 3)                       # no window open: not counted
    bus.resolve("slf.forward")(0, 10, 4, 2, 64, 1)
    fill(0, 12, 3)
    noc(13, "GetS")
    prefetch(0, 14, 9)
    bus.resolve("sb.write_l1")(0, 40, 2, 64, 1, 1)
    fill(0, 50, 3)                      # window closed again
    report = watcher.finalize()
    assert report.fills_in_window == 1
    assert report.noc_msgs_in_window == 1
    assert report.prefetches_in_window == 1
    assert report.histograms["slf_window"].count == 1
    assert report.histograms["slf_window"].mean == 30


def test_watcher_tainted_fill_requires_candidate_line():
    bus, watcher = _watcher_with_tainted_probe()
    bus.resolve("load.perform")(0, 100, 1, PROBE, PROBE // 64, False, 1)
    bus.resolve("cache.fill")(0, 101, PROBE // 64)
    bus.resolve("cache.fill")(0, 102, 3)
    bus.resolve("cache.fill")(1, 103, PROBE // 64)     # other core
    assert watcher.finalize().tainted_fills == 1


# ----------------------------------------------------------------------
# Gadgets and leak_run
# ----------------------------------------------------------------------

def test_gadget_registry_shape():
    assert set(GADGETS) == {"spectre-bcb", "spectre-slf"}
    for gadget in GADGETS.values():
        assert len(gadget.traces) == len(gadget.warm) == 2
        for trace in gadget.traces:
            trace.validate()
        taint = TaintMap(gadget.traces[0], gadget.secret)
        assert taint.tainted_loads(), gadget.name


@pytest.mark.parametrize("policy", POLICY_ORDER)
def test_bcb_leaks_under_every_policy(policy):
    _, report, _ = leak_run(GADGETS["spectre-bcb"], policy)
    assert report.leaked_lines == [GADGETS["spectre-bcb"].probe_line]
    assert report.histograms["leak_window"].count >= 1


@pytest.mark.parametrize("policy", POLICY_ORDER)
def test_slf_gadget_leaks_only_under_x86(policy):
    _, report, _ = leak_run(GADGETS["spectre-slf"], policy)
    if policy == "x86":
        assert report.leaked_lines == [GADGETS["spectre-slf"].probe_line]
    else:
        assert report.leaked_lines == []


def test_leak_run_attaches_stats_leakage():
    stats, report, _ = leak_run(GADGETS["spectre-bcb"], "x86")
    assert stats.leakage["gadget"] == "spectre-bcb"
    assert stats.leakage["policy"] == "x86"
    assert stats.leakage["leaked_lines"] == report.leaked_lines
    assert "leakage" in stats.to_dict()
    restored = SystemStats.from_dict(json.loads(stats.to_json()))
    assert restored.leakage == stats.leakage


def test_leakage_off_stats_byte_identical():
    """The acceptance gate: tracking off must not change a single byte
    of serialized stats, and tracking on must not perturb timing."""
    gadget = GADGETS["spectre-bcb"]

    def bare():
        system = System(list(gadget.traces), "x86", GADGET_CONFIG,
                        warm_caches=list(gadget.warm),
                        initial_memory=dict(gadget.initial_memory))
        return system.run(1_000_000).to_json()

    baseline = bare()
    assert baseline == bare()
    assert '"leakage"' not in baseline
    stats, _, _ = leak_run(gadget, "x86")
    observed = stats.to_dict()
    observed.pop("leakage")
    assert json.dumps(observed, sort_keys=True) == baseline


def test_report_publishes_into_metrics_registry():
    from repro.obs.metrics import MetricsRegistry

    _, report, _ = leak_run(GADGETS["spectre-bcb"], "x86")
    registry = MetricsRegistry()
    report.publish(registry)
    snap = registry.snapshot()
    assert snap["counters"]["leak.confirmed"] == len(report.confirmed)
    assert snap["counters"]["leak.leaked_lines"] == 1
    assert "leak.leak_window" in snap["histograms"]
