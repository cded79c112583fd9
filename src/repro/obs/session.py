"""Standard observability wiring: watchers, session, and report.

An :class:`ObsSession` owns a :class:`~repro.obs.bus.ProbeBus`, attaches
the standard watchers to it, and (once the system exists) installs the
periodic occupancy sampler.  After the run, :meth:`ObsSession.report`
folds everything into an :class:`ObsReport`:

* **gate-closed intervals** per core, keyed by the locking store
  (close -> open correlation of ``gate.close``/``gate.open``);
* **histograms** (log-bucketed): gate-stall duration per blocked load,
  gate lock duration per episode, SLF forwarding-window length
  (forward -> L1-write distance), and SB drain latency
  (retire -> L1-write distance);
* **counters**: squash episodes/flushed instructions by reason,
  coherence invalidations and evictions observed by the cores;
* **occupancy samples** for ROB / LQ / SQ-SB and the gate bit.

The report serializes to JSONL (one self-describing record per line)
and to a compact dict for embedding in sweep-cache payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.obs.bus import SQUASH_REASONS, ProbeBus
from repro.obs.samplers import LogHistogram, OccupancySampler, Sample

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.isa import Trace
    from repro.sim.config import SystemConfig
    from repro.sim.pipetrace import PipeTracer
    from repro.sim.stats import SystemStats
    from repro.sim.system import System

#: The most events any observer's bounded log keeps (squash events,
#: leak candidates).
EVENT_LIMIT = 100_000


@dataclass
class GateInterval:
    """One gate-closed episode on one core."""

    core_id: int
    key: int
    load_seq: int               # the SLF load that closed the gate
    start: int
    end: int = -1               # -1 while still open
    open_reason: str = ""       # "key" | "drain" | "eof"

    @property
    def cycles(self) -> int:
        return (self.end - self.start) if self.end >= 0 else 0

    def to_dict(self) -> Dict:
        return {
            "core": self.core_id, "key": self.key,
            "load_seq": self.load_seq, "start": self.start,
            "end": self.end, "cycles": self.cycles,
            "open_reason": self.open_reason,
        }


class GateWatcher:
    """Correlates ``gate.close``/``gate.open`` into closed intervals."""

    def __init__(self, bus: ProbeBus) -> None:
        self.intervals: Dict[int, List[GateInterval]] = {}
        self._open: Dict[int, GateInterval] = {}    # core -> live episode
        self.hist_lock = LogHistogram()
        bus.subscribe("gate.close", self._on_close)
        bus.subscribe("gate.open", self._on_open)

    def _on_close(self, core_id: int, cycle: int, key: int,
                  load_seq: int) -> None:
        interval = GateInterval(core_id, key, load_seq, cycle)
        self.intervals.setdefault(core_id, []).append(interval)
        self._open[core_id] = interval

    def _on_open(self, core_id: int, cycle: int, key: int,
                 reason: str) -> None:
        interval = self._open.pop(core_id, None)
        if interval is None:  # pragma: no cover - defensive
            return
        interval.end = cycle
        interval.open_reason = reason
        self.hist_lock.add(interval.cycles)

    def finalize(self, end_cycle: int) -> None:
        """Close any episode still open when the run ended."""
        for interval in self._open.values():
            interval.end = end_cycle
            interval.open_reason = "eof"
            self.hist_lock.add(interval.cycles)
        self._open.clear()


class StallWatcher:
    """Histograms of retire-blocked episodes from ``inst.retire``."""

    def __init__(self, bus: ProbeBus) -> None:
        self.hist_gate = LogHistogram()       # blocked behind closed gate
        self.hist_slf_sb = LogHistogram()     # SLFSpec: SLF load vs SB
        bus.subscribe("inst.retire", self._on_retire)

    def _on_retire(self, core_id: int, cycle: int, seq: int, addr: int,
                   blocked: int, reason: Optional[str]) -> None:
        if reason == "gate":
            self.hist_gate.add(blocked)
        elif reason is not None:              # None: never blocked
            self.hist_slf_sb.add(blocked)


class SLFWindowWatcher:
    """Forward -> L1-write distance per SLF load (the paper's
    vulnerability window for a forwarded value)."""

    def __init__(self, bus: ProbeBus) -> None:
        self.hist = LogHistogram()
        self._pending: Dict[tuple, List[int]] = {}  # (core,key) -> cycles
        bus.subscribe("slf.forward", self._on_forward)
        bus.subscribe("sb.write_l1", self._on_write)

    def _on_forward(self, core_id: int, cycle: int, load_seq: int,
                    store_seq: int, addr: int, key: int) -> None:
        self._pending.setdefault((core_id, key), []).append(cycle)

    def _on_write(self, core_id: int, cycle: int, store_seq: int,
                  addr: int, drain: int, key: int) -> None:
        for start in self._pending.pop((core_id, key), ()):
            self.hist.add(cycle - start)


class DrainWatcher:
    """SB drain latency (retire -> L1 write) from ``sb.write_l1``."""

    def __init__(self, bus: ProbeBus) -> None:
        self.hist = LogHistogram()
        bus.subscribe("sb.write_l1", self._on_write)

    def _on_write(self, core_id: int, cycle: int, store_seq: int,
                  addr: int, drain: int, key: int) -> None:
        self.hist.add(drain)


class SquashWatcher:
    """Squash episodes by reason, with a bounded event log for the
    trace exporter.  The probe payload does not carry the reason (it is
    the probe's name), so one bound handler is subscribed per reason."""

    def __init__(self, bus: ProbeBus) -> None:
        self.episodes: Dict[str, int] = {}
        self.flushed: Dict[str, int] = {}
        self.events: List[tuple] = []     # (core, cycle, seq, reason, n)
        for reason in SQUASH_REASONS:
            bus.subscribe(f"squash.{reason}",
                          self._handler_for(reason))

    def _handler_for(self, reason: str):
        def handler(core_id: int, cycle: int, from_seq: int,
                    flushed: int) -> None:
            self.episodes[reason] = self.episodes.get(reason, 0) + 1
            self.flushed[reason] = self.flushed.get(reason, 0) + flushed
            if len(self.events) < EVENT_LIMIT:
                self.events.append((core_id, cycle, from_seq, reason,
                                    flushed))
        return handler


class MesiWatcher:
    """Coherence removals observed by the cores."""

    def __init__(self, bus: ProbeBus) -> None:
        self.invals_by_core: Dict[int, int] = {}
        self.evicts_by_core: Dict[int, int] = {}
        bus.subscribe("mesi.inval", self._on_inval)
        bus.subscribe("mesi.evict", self._on_evict)

    def _on_inval(self, core_id: int, cycle: int, line: int,
                  requestor: int, present: bool) -> None:
        if present:
            self.invals_by_core[core_id] = \
                self.invals_by_core.get(core_id, 0) + 1

    def _on_evict(self, core_id: int, cycle: int, line: int) -> None:
        self.evicts_by_core[core_id] = \
            self.evicts_by_core.get(core_id, 0) + 1


@dataclass
class ObsReport:
    """Everything one observed run produced, ready to serialize."""

    end_cycle: int = 0
    policy: str = ""
    sample_interval: int = 0
    gate_intervals: Dict[int, List[GateInterval]] = field(
        default_factory=dict)
    histograms: Dict[str, LogHistogram] = field(default_factory=dict)
    counters: Dict[str, Dict] = field(default_factory=dict)
    samples: Dict[int, List[Sample]] = field(default_factory=dict)
    occupancy: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: (core, cycle, from_seq, reason, flushed) — bounded event log.
    squash_events: List[tuple] = field(default_factory=list)
    tracer: Optional["PipeTracer"] = None  # if the pipeline was traced

    def gate_interval_count(self) -> int:
        return sum(len(v) for v in self.gate_intervals.values())

    def gate_closed_fraction(self) -> Dict[int, float]:
        """Exact per-core fraction of cycles the gate was closed,
        integrated over the recorded intervals."""
        out: Dict[int, float] = {}
        for core_id, intervals in self.gate_intervals.items():
            closed = sum(i.cycles for i in intervals)
            out[core_id] = (closed / self.end_cycle
                            if self.end_cycle else 0.0)
        return out

    def top_gate_intervals(self, top: int = 5) -> List[GateInterval]:
        everything = [i for v in self.gate_intervals.values() for i in v]
        everything.sort(key=lambda i: i.cycles, reverse=True)
        return everything[:top]

    # -- serialization --------------------------------------------------

    def to_dict(self, include_samples: bool = False) -> Dict:
        """Compact JSON-safe form.  This is what sweep-cache payloads
        embed; full sample series are included only on request."""
        out: Dict = {
            "end_cycle": self.end_cycle,
            "policy": self.policy,
            "sample_interval": self.sample_interval,
            "gate": {
                "intervals": self.gate_interval_count(),
                "intervals_per_core": {
                    str(cid): len(v)
                    for cid, v in self.gate_intervals.items()},
                "closed_fraction": {
                    str(cid): round(frac, 6)
                    for cid, frac in self.gate_closed_fraction().items()},
            },
            "histograms": {name: hist.to_dict()
                           for name, hist in self.histograms.items()},
            "counters": self.counters,
            "occupancy": {str(cid): summary
                          for cid, summary in self.occupancy.items()},
        }
        if include_samples:
            out["samples"] = {str(cid): [list(s) for s in series]
                              for cid, series in self.samples.items()}
        return out

    def iter_jsonl_records(self):
        """Self-describing records, one per JSONL line."""
        yield {"type": "meta", "end_cycle": self.end_cycle,
               "policy": self.policy,
               "sample_interval": self.sample_interval}
        for name, hist in self.histograms.items():
            record = {"type": "histogram", "name": name}
            record.update(hist.to_dict())
            record["summary"] = hist.summary()
            yield record
        yield {"type": "counters", **self.counters}
        for cid, frac in self.gate_closed_fraction().items():
            yield {"type": "gate_summary", "core": cid,
                   "intervals": len(self.gate_intervals.get(cid, ())),
                   "closed_fraction": round(frac, 6)}
        for cid, intervals in sorted(self.gate_intervals.items()):
            for interval in intervals:
                yield {"type": "gate_interval", **interval.to_dict()}
        for cid, summary in sorted(self.occupancy.items()):
            yield {"type": "occupancy_summary", "core": cid, **summary}
        for cid, series in sorted(self.samples.items()):
            for cycle, rob, lq, sb, closed in series:
                yield {"type": "sample", "core": cid, "cycle": cycle,
                       "rob": rob, "lq": lq, "sb": sb,
                       "gate_closed": closed}

    def write_jsonl(self, path) -> int:
        """Write the JSONL metrics file; returns the record count."""
        n = 0
        with open(path, "w") as fh:
            for record in self.iter_jsonl_records():
                fh.write(json.dumps(record) + "\n")
                n += 1
        return n


class ObsSession:
    """One observed run: a bus, the standard watchers, the sampler."""

    def __init__(self, sample_interval: int = 64,
                 trace_pipeline: bool = False) -> None:
        self.bus = ProbeBus()
        self.gate = GateWatcher(self.bus)
        self.stalls = StallWatcher(self.bus)
        self.slf = SLFWindowWatcher(self.bus)
        self.drain = DrainWatcher(self.bus)
        self.squash = SquashWatcher(self.bus)
        self.mesi = MesiWatcher(self.bus)
        self.sampler = OccupancySampler(sample_interval)
        from repro.sim.pipetrace import PipeTracer
        self.tracer = PipeTracer(self.bus) if trace_pipeline else None
        self._system: Optional["System"] = None

    def install(self, system: "System") -> None:
        """Start the periodic sampler on the (not yet run) system."""
        self._system = system
        self.sampler.install(system)

    def report(self, stats: "SystemStats") -> ObsReport:
        """Fold the watcher state into an :class:`ObsReport`."""
        self.gate.finalize(stats.execution_cycles)
        policy = self._system.policy_name if self._system else ""
        return ObsReport(
            end_cycle=stats.execution_cycles,
            policy=policy,
            sample_interval=self.sampler.interval,
            gate_intervals=self.gate.intervals,
            histograms={
                "gate_lock": self.gate.hist_lock,
                "gate_stall": self.stalls.hist_gate,
                "slf_retire_stall": self.stalls.hist_slf_sb,
                "slf_window": self.slf.hist,
                "sb_drain": self.drain.hist,
            },
            counters={
                "squash_episodes": dict(self.squash.episodes),
                "squash_flushed": dict(self.squash.flushed),
                "mesi_invals_by_core": {
                    str(c): n
                    for c, n in sorted(self.mesi.invals_by_core.items())},
                "mesi_evicts_by_core": {
                    str(c): n
                    for c, n in sorted(self.mesi.evicts_by_core.items())},
            },
            samples=self.sampler.samples,
            occupancy=self.sampler.summary(),
            squash_events=list(self.squash.events),
            tracer=self.tracer,
        )


def observe_run(traces: Sequence["Trace"], policy: str,
                config: Optional["SystemConfig"] = None,
                warm_caches: object = True,
                detect_violations: bool = False,
                trace_pipeline: bool = False,
                sample_interval: int = 64):
    """Run ``traces`` under ``policy`` with full observability.

    Returns ``(stats, report, system)`` — the usual
    :class:`~repro.sim.stats.SystemStats`, the finalized
    :class:`ObsReport`, and the (finished) system.  With
    ``trace_pipeline`` on, ``report.tracer`` holds the instruction
    timelines that feed the Chrome trace exporter.
    """
    from repro.sim.system import System

    session = ObsSession(sample_interval=sample_interval,
                         trace_pipeline=trace_pipeline)
    system = System(traces, policy, config,
                    detect_violations=detect_violations,
                    warm_caches=warm_caches,
                    probes=session.bus)
    session.install(system)
    stats = system.run()
    return stats, session.report(stats), system
