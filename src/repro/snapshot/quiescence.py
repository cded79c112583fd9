"""Quiescence: when is a live system snapshottable?

A snapshot cannot serialize closures — and the simulator is full of
them (load-completion callbacks in the engine queue, coherence
transaction continuations, store-drain waiters).  Instead of trying, we
only capture at a **quiescent point**: every pipeline, store buffer,
and coherence transaction has drained, so the only events left in the
engine queue are *classifiable periodic ticks* — a core's per-cycle
tick or a fault plan's eviction/squash metronome — each of which can be
described as plain data ``(time, seq, descriptor)`` and rebuilt against
a fresh system on restore.

Two quiescent points occur naturally:

* cycle 0, after construction and cache warm-up but before ``run()``;
* after a drain: :meth:`repro.sim.system.System.run` with
  ``checkpoint_every`` pauses dispatch and lets the pipelines empty.

:func:`check_quiescent` verifies every structural condition and
classifies the queue residue, raising :class:`NotQuiescent` with the
full reason list otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System

#: A serializable stand-in for one pending engine event.
#: ``descriptor`` is ("core_tick", core_id) | ("fault_evict",) |
#: ("fault_squash",).
EventResidue = Tuple[int, int, Tuple]


class NotQuiescent(RuntimeError):
    """The system holds in-flight state a snapshot cannot represent."""

    def __init__(self, reasons: List[str]) -> None:
        self.reasons = reasons
        preview = "; ".join(reasons[:4])
        more = f" (+{len(reasons) - 4} more)" if len(reasons) > 4 else ""
        super().__init__(f"system is not quiescent: {preview}{more}")


def _live_ready(core) -> bool:
    """True if the ready heap holds any entry a future ``_issue`` would
    act on.  A squash leaves *dead* residue behind — ``(seq, epoch,
    entry)`` tuples whose epoch no longer matches — which ``_issue``
    pops and discards without consuming an issue slot; those are
    harmless garbage, not in-flight state."""
    return any(entry.issue_epoch == epoch and not entry.issued
               for _seq, epoch, entry in core.ready)


def _live_waiters(mapping) -> bool:
    """True if a ``{producer_seq: [(entry, epoch), ...]}`` wake map
    (``consumers`` / ``deferred_on_store`` / ``deferred_on_fence``)
    holds any entry its pop path would act on (same epoch filter as
    :func:`_live_ready` — stale pairs are skipped on pop)."""
    return any(entry.issue_epoch == epoch and not entry.issued
               for waiters in mapping.values()
               for entry, epoch in waiters)


def _core_reasons(core) -> List[str]:
    cid = core.core_id
    reasons = []
    if not core.rob.empty:
        reasons.append(f"core {cid}: ROB not empty")
    if len(core.lq):
        reasons.append(f"core {cid}: LQ not empty")
    if not core.sb.empty:
        reasons.append(f"core {cid}: SQ/SB not empty")
    if core.load_of or core.store_of:
        reasons.append(f"core {cid}: live load/store map entries")
    if _live_ready(core) or _live_waiters(core.consumers):
        reasons.append(f"core {cid}: unissued ready/dependent ops")
    if _live_waiters(core.deferred_on_store) or \
            _live_waiters(core.deferred_on_fence):
        reasons.append(f"core {cid}: loads deferred on store/fence")
    if core.pending_fences:
        reasons.append(f"core {cid}: in-flight fences")
    if core.barrier_seq is not None:
        reasons.append(f"core {cid}: dispatch barrier active")
    if core._sb_inflight or core._sb_miss_inflight:
        reasons.append(f"core {cid}: SB drain in flight")
    if core._rfo_pending:
        reasons.append(f"core {cid}: ownership prefetches pending")
    if core.detector is not None:
        reasons.append(f"core {cid}: violation detector attached")
    if core.tracer is not None:
        reasons.append(f"core {cid}: pipeline tracer attached")
    policy = core.policy
    gate = getattr(policy, "gate", None)
    if gate is not None and gate.closed:
        reasons.append(f"core {cid}: retire gate closed")
    return reasons


def _memory_reasons(memory) -> List[str]:
    reasons = []
    for ctrl in memory.controllers:
        if ctrl.txns or ctrl.txn_queue:
            reasons.append(
                f"controller {ctrl.core_id}: coherence txns in flight")
        if ctrl.wb_buffer:
            reasons.append(
                f"controller {ctrl.core_id}: writebacks in flight")
    for bank in memory.banks:
        if bank.busy or bank.waiting:
            reasons.append(f"directory bank {bank.index}: busy lines")
    return reasons


def classify_events(system: "System") -> List[EventResidue]:
    """Map every pending engine event to a serializable descriptor.

    Raises :class:`NotQuiescent` on any event that is not a recognized
    periodic tick.
    """
    residue: List[EventResidue] = []
    reasons: List[str] = []
    cores_by_id = {id(core): core for core in system.cores}
    faults = system.faults
    for time, seq, fn, args in system.engine.pending_events():
        descriptor = None
        if not args:
            self_obj = getattr(fn, "__self__", None)
            core = cores_by_id.get(id(self_obj))
            if core is not None and fn == core._tick:
                descriptor = ("core_tick", core.core_id)
            elif faults is not None and self_obj is faults:
                if fn == faults._evict_tick:
                    descriptor = ("fault_evict",)
                elif fn == faults._squash_tick:
                    descriptor = ("fault_squash",)
        if descriptor is None:
            reasons.append(
                f"unclassifiable event at cycle {time}: {fn!r}")
        else:
            residue.append((time, seq, descriptor))
    if reasons:
        raise NotQuiescent(reasons)
    return residue


def check_quiescent(system: "System") -> List[EventResidue]:
    """Raise :class:`NotQuiescent` unless the system is snapshottable;
    returns the classified engine-queue residue."""
    reasons: List[str] = []
    if system.engine.event_hook is not None:
        reasons.append("engine event_hook attached (per-event watchdog)")
    if system.engine.stopped and not system.done:
        reasons.append("engine stopped before completion")
    for core in system.cores:
        reasons.extend(_core_reasons(core))
    reasons.extend(_memory_reasons(system.memory))
    if reasons:
        raise NotQuiescent(reasons)
    return classify_events(system)


def structurally_quiescent(system: "System") -> bool:
    """Cheap predicate for the drain loop: pipelines and coherence
    drained (queue residue not yet classified).  Meant to be called
    per-event while draining, so it fails as fast as possible."""
    for core in system.cores:
        if core.finished:
            continue
        if (not core.rob.empty or not core.sb.empty or len(core.lq)
                or core._sb_inflight or core._rfo_pending):
            return False
    for ctrl in system.memory.controllers:
        if ctrl.txns or ctrl.txn_queue or ctrl.wb_buffer:
            return False
    for bank in system.memory.banks:
        if bank.busy or bank.waiting:
            return False
    return True


def is_quiescent(system: "System") -> bool:
    """Full quiescence test (structural conditions + classifiable queue
    residue) as a bool."""
    if not structurally_quiescent(system):
        return False
    try:
        check_quiescent(system)
    except NotQuiescent:
        return False
    return True
