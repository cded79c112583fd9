"""Pipeline tracing: per-instruction timelines (a classic "pipetrace").

A :class:`PipeTracer` subscribes to the ``inst.*`` and ``squash.*``
probes to record when each dynamic instruction of every core was
dispatched, issued, completed, and retired — including re-executed
incarnations after squashes.  The text renderer prints a core's compact
timeline, useful for debugging gate stalls, forwarding windows, and
squash storms:

    seq kind    D      I      C      R    notes
      0 store   0      1      3      5
      1 load    0      1      5      6    SLF
      2 load    0      2      7     42    gate-blocked 30
      ...

Enable via ``observe_run(..., trace_pipeline=True)``, which returns it
as ``report.tracer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.cpu.isa import KIND_NAMES
from repro.obs.bus import SQUASH_REASONS, ProbeBus


@dataclass(slots=True)
class InstructionRecord:
    """One dynamic incarnation of a trace instruction."""

    core_id: int
    seq: int
    kind: str
    incarnation: int = 0
    dispatched: Optional[int] = None
    issued: Optional[int] = None
    completed: Optional[int] = None
    retired: Optional[int] = None
    squashed: Optional[int] = None
    squash_reason: str = ""
    slf: bool = False
    gate_blocked_cycles: int = 0

    @property
    def alive(self) -> bool:
        return self.squashed is None and self.retired is None


class PipeTracer:
    """Records the instruction lifecycles of every core of one run."""

    __slots__ = ("records", "_live", "_incarnations", "_kept", "limit")

    def __init__(self, bus: ProbeBus, limit: int = 100_000) -> None:
        self.records: List[InstructionRecord] = []
        self._live: Dict[Tuple[int, int], InstructionRecord] = {}
        self._incarnations: Dict[Tuple[int, int], int] = {}  # (core, seq)
        self._kept: Dict[int, int] = {}  # core -> records kept
        self.limit = limit               # records kept per core
        for stage in ("dispatch", "issue", "complete", "retire"):
            bus.subscribe(f"inst.{stage}", getattr(self, f"on_{stage}"))
        for reason in SQUASH_REASONS:
            bus.subscribe(f"squash.{reason}", partial(self.on_squash, reason))

    # -- probe subscribers -----------------------------------------------

    def on_dispatch(self, core_id: int, cycle: int, seq: int,
                    kind: int) -> None:
        kept = self._kept.get(core_id, 0)
        if kept >= self.limit:
            return
        self._kept[core_id] = kept + 1
        incarnation = self._incarnations.get((core_id, seq), 0)
        record = InstructionRecord(core_id=core_id, seq=seq,
                                   kind=KIND_NAMES[kind],
                                   incarnation=incarnation,
                                   dispatched=cycle)
        self.records.append(record)
        self._live[core_id, seq] = record

    def on_issue(self, core_id: int, cycle: int, seq: int) -> None:
        record = self._live.get((core_id, seq))
        if record is not None and record.issued is None:
            record.issued = cycle

    def on_complete(self, core_id: int, cycle: int, seq: int,
                    slf: bool) -> None:
        record = self._live.get((core_id, seq))
        if record is not None:
            record.completed = cycle
            record.slf = record.slf or slf

    def on_retire(self, core_id: int, cycle: int, seq: int, addr: int,
                  blocked: int, reason: Optional[str]) -> None:
        record = self._live.pop((core_id, seq), None)
        if record is not None:
            record.retired = cycle
            record.gate_blocked_cycles = blocked

    def on_squash(self, reason: str, core_id: int, cycle: int,
                  from_seq: int, flushed: int) -> None:
        for key, record in list(self._live.items()):
            if key[0] == core_id and key[1] >= from_seq:
                record.squashed = cycle
                record.squash_reason = reason
                self._incarnations[key] = record.incarnation + 1
                del self._live[key]

    # -- queries / rendering ---------------------------------------------

    def retired_records(self) -> List[InstructionRecord]:
        return [r for r in self.records if r.retired is not None]

    def squashed_records(self) -> List[InstructionRecord]:
        return [r for r in self.records if r.squashed is not None]

    def record_for(self, seq: int, incarnation: int = -1,
                   core_id: int = 0) -> Optional[InstructionRecord]:
        matches = [r for r in self.records
                   if r.seq == seq and r.core_id == core_id]
        if not matches:
            return None
        return matches[incarnation]

    def render(self, start: int = 0, count: int = 50,
               core_id: int = 0) -> str:
        header = (f"{'seq':>5} {'inc':>3} {'kind':6} {'D':>7} {'I':>7} "
                  f"{'C':>7} {'R':>7}  notes")
        lines = [header, "-" * len(header)]

        def fmt(value: Optional[int]) -> str:
            return str(value) if value is not None else "-"

        records = [r for r in self.records if r.core_id == core_id]
        for record in records[start:start + count]:
            notes = []
            if record.slf:
                notes.append("SLF")
            if record.gate_blocked_cycles:
                notes.append(f"gate-blocked {record.gate_blocked_cycles}")
            if record.squashed is not None:
                notes.append(f"squashed@{record.squashed}"
                             f"({record.squash_reason})")
            lines.append(
                f"{record.seq:>5} {record.incarnation:>3} "
                f"{record.kind:6} {fmt(record.dispatched):>7} "
                f"{fmt(record.issued):>7} {fmt(record.completed):>7} "
                f"{fmt(record.retired):>7}  {' '.join(notes)}")
        return "\n".join(lines)

    def summary(self) -> Dict[str, float]:
        retired = self.retired_records()
        if not retired:
            return {"retired": 0, "squashed": len(self.squashed_records()),
                    "avg_latency": 0.0}
        latency = [r.retired - r.dispatched for r in retired
                   if r.dispatched is not None]
        return {
            "retired": len(retired),
            "squashed": len(self.squashed_records()),
            "avg_latency": sum(latency) / len(latency) if latency else 0.0,
        }
