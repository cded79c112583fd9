"""The leakage watcher: probes → candidates → confirmed transient leaks.

Correlation model (docs/LEAKAGE.md):

* ``load.perform`` with a **tainted address** under an open speculation
  window (``spec != 0``) records a *leak candidate*: a secret-dependent
  line was touched before the machine knew the access was safe.
* A later ``squash.*`` on the same core flushing that seq **confirms**
  the candidate: the access never architecturally happened, yet its
  line is resident — a transient leak, histogrammed by its window width
  (perform → squash distance).
* Candidates never squashed are *exposed* accesses: secret-dependent,
  speculatively performed, but architecturally committed — visible in
  the report, not counted as transient leakage.

The watcher also measures the ambient channel: SLF-window width
(``slf.forward`` → ``sb.write_l1``), every squash-terminated
speculative perform (``spec_window``), and the persistent side effects
— cache fills, prefetches, NoC messages — that land while an SLF
window is open, with fills on secret-dependent lines counted
separately.  Everything here is subscriber-side; an unobserved run
never executes any of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, TYPE_CHECKING

from repro.leakage.gadgets import GADGET_CONFIG, Gadget
from repro.leakage.taint import TaintMap
from repro.obs.bus import SQUASH_REASONS, ProbeBus
from repro.obs.samplers import LogHistogram
from repro.obs.session import ObsSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.stats import SystemStats
    from repro.sim.system import System


@dataclass
class LeakCandidate:
    """One secret-dependent speculative access."""

    core_id: int
    seq: int
    addr: int
    line: int
    cycle: int                  # perform cycle
    source: int                 # seq of the originating secret load
    spec: int                   # 1 = M-spec, 2 = SA-spec, 3 = both
    slf: bool
    confirmed: bool = False
    squash_cycle: int = -1
    squash_reason: str = ""

    @property
    def window(self) -> int:
        return (self.squash_cycle - self.cycle) if self.confirmed else -1

    def to_dict(self) -> Dict:
        return {
            "core": self.core_id, "seq": self.seq, "addr": self.addr,
            "line": self.line, "cycle": self.cycle, "source": self.source,
            "spec": self.spec, "slf": self.slf,
            "confirmed": self.confirmed, "squash_cycle": self.squash_cycle,
            "squash_reason": self.squash_reason, "window": self.window,
        }


class LeakWatcher:
    """Subscribes the full leakage probe set and correlates it."""

    def __init__(self, bus: ProbeBus, taints: Dict[int, TaintMap],
                 limit: int = 100_000) -> None:
        self.taints = taints
        self.limit = limit
        # core -> seq -> live candidate (a re-executed incarnation of
        # the same seq overwrites the previous, un-squashed one).
        self._pending: Dict[int, Dict[int, LeakCandidate]] = {}
        self.confirmed: List[LeakCandidate] = []
        #: Lines any candidate (live or confirmed) touched, per core —
        #: fills on these are secret-dependent side effects.
        self._tainted_lines: Dict[int, Set[int]] = {}
        # core -> seq -> perform cycle of *any* speculative perform,
        # bounded; squash resolution turns these into spec_window.
        self._spec_performs: Dict[int, Dict[int, int]] = {}
        self._spec_seen = 0
        self.hist_leak_window = LogHistogram()
        self.hist_spec_window = LogHistogram()
        self.hist_slf_window = LogHistogram()
        # (core, key) -> forward cycles of the open SLF window.
        self._slf_open: Dict[tuple, List[int]] = {}
        self.speculative_performs = 0
        self.tainted_performs = 0
        self.fills_in_window = 0
        self.prefetches_in_window = 0
        self.noc_msgs_in_window = 0
        self.tainted_fills = 0
        bus.subscribe("load.perform", self._on_perform)
        for reason in SQUASH_REASONS:
            bus.subscribe(f"squash.{reason}", self._squash_handler(reason))
        bus.subscribe("slf.forward", self._on_forward)
        bus.subscribe("sb.write_l1", self._on_write)
        bus.subscribe("cache.fill", self._on_fill)
        bus.subscribe("prefetch.issue", self._on_prefetch)
        bus.subscribe("noc.msg", self._on_noc)

    # -- speculation-window accounting ---------------------------------

    def _on_perform(self, core_id: int, cycle: int, seq: int, addr: int,
                    line: int, slf: bool, spec: int) -> None:
        if not spec:
            return
        self.speculative_performs += 1
        if self._spec_seen < self.limit:
            self._spec_seen += 1
            self._spec_performs.setdefault(core_id, {})[seq] = cycle
        taint = self.taints.get(core_id)
        if taint is None or seq >= len(taint) or not taint.addr_tainted[seq]:
            return
        self.tainted_performs += 1
        candidate = LeakCandidate(core_id, seq, addr, line, cycle,
                                  taint.source[seq], spec, slf)
        self._pending.setdefault(core_id, {})[seq] = candidate
        self._tainted_lines.setdefault(core_id, set()).add(line)

    def _squash_handler(self, reason: str):
        def handler(core_id: int, cycle: int, from_seq: int,
                    flushed: int) -> None:
            performs = self._spec_performs.get(core_id)
            if performs:
                for seq in [s for s in performs if s >= from_seq]:
                    self.hist_spec_window.add(cycle - performs.pop(seq))
            pending = self._pending.get(core_id)
            if not pending:
                return
            for seq in sorted(s for s in pending if s >= from_seq):
                candidate = pending.pop(seq)
                candidate.confirmed = True
                candidate.squash_cycle = cycle
                candidate.squash_reason = reason
                self.hist_leak_window.add(candidate.window)
                if len(self.confirmed) < self.limit:
                    self.confirmed.append(candidate)
        return handler

    # -- SLF windows and side effects under them -----------------------

    def _on_forward(self, core_id: int, cycle: int, load_seq: int,
                    store_seq: int, key: int) -> None:
        self._slf_open.setdefault((core_id, key), []).append(cycle)

    def _on_write(self, core_id: int, cycle: int, store_seq: int,
                  addr: int, drain: int, key: int) -> None:
        for start in self._slf_open.pop((core_id, key), ()):
            self.hist_slf_window.add(cycle - start)

    def _on_fill(self, core_id: int, cycle: int, line: int) -> None:
        if self._slf_open:
            self.fills_in_window += 1
        lines = self._tainted_lines.get(core_id)
        if lines is not None and line in lines:
            self.tainted_fills += 1

    def _on_prefetch(self, core_id: int, cycle: int, line: int) -> None:
        if self._slf_open:
            self.prefetches_in_window += 1

    def _on_noc(self, cycle: int, msg_class: str) -> None:
        if self._slf_open:
            self.noc_msgs_in_window += 1

    # -- folding -------------------------------------------------------

    def finalize(self) -> "LeakReport":
        exposed = [candidate
                   for per_core in self._pending.values()
                   for candidate in per_core.values()]
        exposed.sort(key=lambda c: (c.core_id, c.seq))
        return LeakReport(
            confirmed=list(self.confirmed),
            exposed=exposed,
            speculative_performs=self.speculative_performs,
            tainted_performs=self.tainted_performs,
            fills_in_window=self.fills_in_window,
            prefetches_in_window=self.prefetches_in_window,
            noc_msgs_in_window=self.noc_msgs_in_window,
            tainted_fills=self.tainted_fills,
            histograms={
                "leak_window": self.hist_leak_window,
                "spec_window": self.hist_spec_window,
                "slf_window": self.hist_slf_window,
            },
        )


@dataclass
class LeakReport:
    """Everything one observed run leaked, ready to serialize."""

    confirmed: List[LeakCandidate]
    exposed: List[LeakCandidate]
    speculative_performs: int
    tainted_performs: int
    fills_in_window: int
    prefetches_in_window: int
    noc_msgs_in_window: int
    tainted_fills: int
    histograms: Dict[str, LogHistogram]

    @property
    def leaked_lines(self) -> List[int]:
        """Distinct lines of squash-confirmed transient leaks — the
        gadget's measure of how much secret reached the cache state."""
        return sorted({c.line for c in self.confirmed})

    def to_dict(self) -> Dict:
        return {
            "leaked_lines": self.leaked_lines,
            "leaks": len(self.confirmed),
            "exposed": len(self.exposed),
            "speculative_performs": self.speculative_performs,
            "tainted_performs": self.tainted_performs,
            "side_effects": {
                "fills_in_window": self.fills_in_window,
                "prefetches_in_window": self.prefetches_in_window,
                "noc_msgs_in_window": self.noc_msgs_in_window,
                "tainted_fills": self.tainted_fills,
            },
            "histograms": {name: hist.to_dict()
                           for name, hist in self.histograms.items()},
            "events": [c.to_dict() for c in self.confirmed],
            "exposed_events": [c.to_dict() for c in self.exposed],
        }

    def publish(self, metrics: "MetricsRegistry",
                prefix: str = "leak") -> None:
        """Fold this report into a service metrics registry."""
        metrics.inc(f"{prefix}.confirmed", len(self.confirmed))
        metrics.inc(f"{prefix}.exposed", len(self.exposed))
        metrics.inc(f"{prefix}.leaked_lines", len(self.leaked_lines))
        metrics.inc(f"{prefix}.tainted_fills", self.tainted_fills)
        for name, hist in self.histograms.items():
            metrics.histogram(f"{prefix}.{name}").merge(hist)


def _run_gadget(gadget: Gadget, policy: str, obs=None):
    """Run ``gadget`` with a :class:`LeakWatcher` on a bare bus, or on
    ``obs``'s with its sampler and pipeline tracers.  Watchers subscribe
    before the system is built (ProbeBus resolve-at-attach)."""
    from repro.sim.system import System

    bus = ProbeBus() if obs is None else obs.bus
    taints = {core_id: TaintMap(trace, gadget.secret)
              for core_id, trace in enumerate(gadget.traces)}
    watcher = LeakWatcher(bus, taints)
    system = System(list(gadget.traces), policy, GADGET_CONFIG,
                    warm_caches=list(gadget.warm),
                    initial_memory=dict(gadget.initial_memory),
                    trace_pipeline=obs is not None, probes=bus)
    if obs is not None:
        obs.install(system)
    stats = system.run(5_000_000)
    report = watcher.finalize()
    stats.leakage = {"gadget": gadget.name, "policy": policy,
                     **report.to_dict()}
    return stats, report, system


def leak_run(gadget: Gadget, policy: str):
    """Run one gadget under one policy with leakage tracking attached.

    Returns ``(stats, report, system)``.  ``stats.leakage`` carries the
    report's dict form (plus gadget/policy identity), so a serialized
    ``SystemStats`` is the complete leakage record.
    """
    return _run_gadget(gadget, policy)


def leak_observe_run(gadget: Gadget, policy: str):
    """Like :func:`leak_run`, but with the full standard observability
    session sharing the bus, so the run can feed the Chrome trace
    exporter's gate/squash/leakage tracks together.

    Returns ``(stats, obs_report, leak_report, system)``.
    """
    obs = ObsSession(sample_interval=16)
    stats, report, system = _run_gadget(gadget, policy, obs)
    return stats, obs.report(stats), report, system
