"""Per-core and system-wide statistics.

These counters implement the exact metrics reported in the paper:

* Table IV columns: retired instructions, retired loads, forwarded (SLF)
  loads, gate-stall episodes and cycles, re-executed instructions.
* Figure 9: cycles in which dispatch cannot make progress because the
  ROB, LQ, or SQ/SB is full.
* Figure 10: execution time (cycles of the slowest core).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass(slots=True)
class CoreStats:
    """Counters collected by one core during a run."""

    cycles: int = 0
    retired_instructions: int = 0
    retired_loads: int = 0
    retired_stores: int = 0
    slf_loads: int = 0                 # loads performed via forwarding
    gate_closes: int = 0               # times the retire gate was closed
    gate_opens: int = 0                # times it reopened (== closes at EOR)
    gate_lock_cycles: int = 0          # total cycles the gate was closed
    gate_stall_events: int = 0         # instructions that stalled at ROB head
    gate_stall_cycles: int = 0         # total cycles the head was gate-blocked
    sb_wait_events: int = 0            # 370-NoSpec: loads made to wait for L1 write
    sb_wait_cycles: int = 0
    slf_retire_stall_events: int = 0   # SLFSpec: SLF loads blocked at head
    slf_retire_stall_cycles: int = 0
    squashes: int = 0                  # squash episodes (all causes)
    squashes_inval: int = 0
    squashes_evict: int = 0
    squashes_memdep: int = 0
    squashes_fault: int = 0            # injected (repro.resilience.faults)
    reexecuted_instructions: int = 0   # instrs flushed & re-dispatched
    stall_cycles_rob: int = 0          # dispatch blocked: ROB full
    stall_cycles_lq: int = 0           # dispatch blocked: LQ full
    stall_cycles_sq: int = 0           # dispatch blocked: SQ/SB full
    loads_issued: int = 0
    l1_load_hits: int = 0
    store_atomicity_violations: int = 0  # x86 only: detected would-be violations
    # Cycles the gate was held closed, broken down by locking SB key —
    # the per-key lock durations of the RetireGate, surfaced post-run.
    gate_lock_by_key: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metrics (Table IV / Section VI-A)
    # ------------------------------------------------------------------

    @property
    def loads_pct(self) -> float:
        """Retired loads as a percentage of retired instructions."""
        return _pct(self.retired_loads, self.retired_instructions)

    @property
    def forwarded_pct(self) -> float:
        """SLF loads as a percentage of retired instructions."""
        return _pct(self.slf_loads, self.retired_instructions)

    @property
    def gate_stalls_pct(self) -> float:
        """Instructions that stalled at ROB head behind a closed gate (%)."""
        return _pct(self.gate_stall_events, self.retired_instructions)

    @property
    def avg_gate_stall_cycles(self) -> float:
        """Average cycles per gate-stall episode (Table IV col 6)."""
        if self.gate_stall_events == 0:
            return 0.0
        return self.gate_stall_cycles / self.gate_stall_events

    @property
    def reexecuted_pct(self) -> float:
        """Re-executed instructions as % of retired instructions."""
        return _pct(self.reexecuted_instructions, self.retired_instructions)

    @property
    def stall_pct(self) -> Dict[str, float]:
        """Figure 9: percentage of cycles stalled on each full structure."""
        return {
            "ROB": _pct(self.stall_cycles_rob, self.cycles),
            "LQ": _pct(self.stall_cycles_lq, self.cycles),
            "SQ/SB": _pct(self.stall_cycles_sq, self.cycles),
        }

    def merge(self, other: "CoreStats") -> None:
        """Accumulate another core's counters into this one (everything
        sums, including cycles, so ratio metrics like stall percentages
        become per-core-cycle averages) — used for whole-system totals.
        The per-key lock breakdown sums key-wise."""
        for f in fields(other):
            name = f.name
            value = getattr(other, name)
            if name == "gate_lock_by_key":
                mine = self.gate_lock_by_key
                for key, cycles in value.items():
                    mine[key] = mine.get(key, 0) + cycles
            else:
                setattr(self, name, getattr(self, name) + value)

    def to_dict(self) -> Dict:
        """All counters as a plain dict.  Every scalar is an int and the
        one mapping gets string keys, so the JSON round-trip through
        :meth:`from_dict` is exact — the sweep result cache relies on
        this."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["gate_lock_by_key"] = {
            str(k): v for k, v in sorted(self.gate_lock_by_key.items())}
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "CoreStats":
        data = dict(data)
        data["gate_lock_by_key"] = {
            int(k): v
            for k, v in data.get("gate_lock_by_key", {}).items()}
        return cls(**data)


@dataclass(slots=True)
class SystemStats:
    """Aggregated statistics for one simulation run."""

    per_core: Dict[int, CoreStats] = field(default_factory=dict)
    execution_cycles: int = 0          # cycle the last core finished
    invalidations_sent: int = 0
    evictions: int = 0
    # Interconnect traffic (message counts by class) — used to check the
    # paper's Section VI claim that the proposal adds no extra snoops.
    network_messages: Dict[str, int] = field(default_factory=dict)
    # Leakage report attached by repro.leakage.leak_run (empty — and
    # absent from to_dict() — on every unobserved run, so existing
    # serialized stats stay byte-identical).
    leakage: Dict = field(default_factory=dict)

    @property
    def network_total(self) -> int:
        return sum(self.network_messages.values())

    @property
    def total(self) -> CoreStats:
        """Sum of all per-core counters (``cycles`` is the sum of core
        cycles; use :attr:`execution_cycles` for wall-clock time)."""
        agg = CoreStats()
        for stats in self.per_core.values():
            agg.merge(stats)
        return agg

    def to_dict(self) -> Dict:
        """JSON-serializable form; exact under round-trip (all counters
        are ints).  Core ids become string keys, as JSON requires."""
        out = {
            "per_core": {str(cid): stats.to_dict()
                         for cid, stats in self.per_core.items()},
            "execution_cycles": self.execution_cycles,
            "invalidations_sent": self.invalidations_sent,
            "evictions": self.evictions,
            "network_messages": dict(self.network_messages),
        }
        if self.leakage:
            out["leakage"] = dict(self.leakage)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SystemStats":
        return cls(
            per_core={int(cid): CoreStats.from_dict(stats)
                      for cid, stats in data["per_core"].items()},
            execution_cycles=data["execution_cycles"],
            invalidations_sent=data["invalidations_sent"],
            evictions=data["evictions"],
            network_messages=dict(data["network_messages"]),
            leakage=dict(data.get("leakage", {})),
        )

    def to_json(self, indent: int = None) -> str:
        """The :meth:`to_dict` form as a JSON string (``repro bench
        --json`` / ``repro replay --json``)."""
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def validate(self) -> None:
        """Cross-check the gate counters for internal consistency.

        For each core, at end of run:

        * every close was matched by an open (the gate cannot outlive
          the run: the SB must drain before a core finishes);
        * the head cannot have been gate-blocked for longer than the
          gate was actually held closed (in-order retirement means the
          blocked head retires the same cycle the gate opens).  This
          holds only because a store commit takes at least one cycle
          (``MemoryConfig`` refuses less): a 0-cycle commit would reopen
          the gate after the blocked head's tick that cycle;
        * the per-key lock breakdown sums to the lock total;
        * squash episodes sum across the per-reason counters (inval,
          evict, memdep, fault) — every squash has exactly one cause.

        Raises ``AssertionError`` with the offending core on violation.
        """
        for cid, stats in self.per_core.items():
            by_reason = (stats.squashes_inval + stats.squashes_evict
                         + stats.squashes_memdep + stats.squashes_fault)
            if by_reason != stats.squashes:
                raise AssertionError(
                    f"core {cid}: per-reason squashes {by_reason} != "
                    f"squashes={stats.squashes}")
            if stats.gate_closes != stats.gate_opens:
                raise AssertionError(
                    f"core {cid}: gate_closes={stats.gate_closes} != "
                    f"gate_opens={stats.gate_opens}")
            if stats.gate_stall_cycles > stats.gate_lock_cycles:
                raise AssertionError(
                    f"core {cid}: gate_stall_cycles="
                    f"{stats.gate_stall_cycles} exceeds gate_lock_cycles="
                    f"{stats.gate_lock_cycles}")
            by_key = sum(stats.gate_lock_by_key.values())
            if by_key != stats.gate_lock_cycles:
                raise AssertionError(
                    f"core {cid}: per-key lock cycles {by_key} != "
                    f"gate_lock_cycles={stats.gate_lock_cycles}")


def _pct(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0

