"""Runtime invariant enforcement.

:func:`check_system` asserts, between events, the correctness conditions
the rest of the model merely *assumes*:

* **gate-key liveness** — a closed retire gate's key names a live (not
  yet written) SB entry; a gate locked by a dead key would stall the
  core forever (370-SLFSoS-key's unlock would never arrive).
* **SB FIFO** — SQ/SB entries are in ascending program order and the
  retired entries form a prefix (TSO's in-order memory-order insertion
  rests on this).
* **LQ age order** — load-queue entries are in ascending program order
  (the squash and snoop scans assume it).
* **ROB order and capacity** — ROB entries are in strictly ascending
  program order and never exceed ``rob_entries`` (the fused tick appends
  to the ROB's deque directly, so these are its only guards).
* **MESI SWMR** — single-writer/multiple-reader: a line held M/E by one
  private hierarchy is held by no other.  Checked between events, where
  the protocol's transient states have settled into the ``state`` maps.

:class:`Watchdog` runs those checks periodically (optionally per event)
and additionally watches *forward progress*: if no core retires an
instruction for ``stall_limit`` cycles while cores are unfinished, it
raises a structured :class:`DeadlockError` instead of letting the run
spin (or sit) forever.  Both error types carry a ``diagnostic`` dict —
per-core pipeline snapshots plus engine state — so a failure in a CI
sweep is actionable from the payload alone.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.pipeline import Core
    from repro.sim.system import System


class InvariantViolation(AssertionError):
    """A runtime model invariant does not hold.  ``diagnostic`` is a
    JSON-safe dict with the violated invariant and a system snapshot."""

    def __init__(self, message: str, diagnostic: Dict) -> None:
        super().__init__(message)
        self.diagnostic = diagnostic


class DeadlockError(RuntimeError):
    """No forward progress with live cores.  ``diagnostic`` as above."""

    def __init__(self, message: str, diagnostic: Dict) -> None:
        super().__init__(message)
        self.diagnostic = diagnostic


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------

def core_snapshot(core: "Core") -> Dict:
    """A JSON-safe snapshot of one core's pipeline state."""
    gate = getattr(core.policy, "gate", None)
    return {
        "core": core.core_id,
        "finished": core.finished,
        "sleeping": core._sleeping,
        "fetch_idx": core.fetch_idx,
        "trace_len": len(core.trace),
        "retired": core.stats.retired_instructions,
        "rob": len(core.rob),
        "lq": len(core.lq),
        "sb": len(core.sb),
        "ready": len(core.ready),
        "barrier_seq": core.barrier_seq,
        "pending_fences": list(core.pending_fences),
        "txns": sorted(core.controller.txns),
        "txn_queue": len(core.controller.txn_queue),
        "gate_closed": bool(gate is not None and gate.closed),
        "gate_key": None if gate is None else gate.key,
        "rob_head": repr(core.rob.head()),
    }


def system_diagnostic(system: "System", **extra) -> Dict:
    """A JSON-safe snapshot of the whole system, plus ``extra`` fields."""
    diag = {
        "cycle": system.engine.now,
        "policy": system.policy_name,
        "queued_events": system.engine.pending,
        "events_dispatched": system.engine.events_dispatched,
        "unfinished_cores": system._unfinished,
        "cores": [core_snapshot(core) for core in system.cores],
    }
    diag.update(extra)
    return diag


def format_diagnostic(diag: Dict) -> str:
    return json.dumps(diag, indent=2, sort_keys=True, default=repr)


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------

def _fail(system: "System", invariant: str, detail: str) -> None:
    raise InvariantViolation(
        f"invariant {invariant!r} violated at cycle {system.engine.now}: "
        f"{detail}",
        system_diagnostic(system, invariant=invariant, detail=detail))


def _check_gate_key(system: "System", core: "Core") -> None:
    gate = getattr(core.policy, "gate", None)
    if gate is None or not gate.closed:
        return
    key = gate.key
    if key is None:
        _fail(system, "gate-key-live",
              f"core {core.core_id}: gate closed with no key")
    slot = key & 0x7FFFFFFF
    if slot >= core.sb.capacity or not core.sb.holds_key(key):
        _fail(system, "gate-key-live",
              f"core {core.core_id}: gate locked by key {key:#x} which "
              f"names no live SB entry (slot {slot}, "
              f"bit {key >> 31}) — the gate would never reopen")


def _check_sb_fifo(system: "System", core: "Core") -> None:
    prev_seq = -1
    seen_unretired = False
    for entry in core.sb:
        if entry.seq <= prev_seq:
            _fail(system, "sb-fifo",
                  f"core {core.core_id}: SB seq {entry.seq} after "
                  f"{prev_seq} — not in program order")
        prev_seq = entry.seq
        if entry.retired and seen_unretired:
            _fail(system, "sb-retired-prefix",
                  f"core {core.core_id}: retired store seq {entry.seq} "
                  f"behind a non-retired one — out-of-order retirement")
        if not entry.retired:
            seen_unretired = True


def _check_ascending(system: "System", core: "Core", invariant: str,
                     queue: str, entries) -> None:
    prev_seq = -1
    for entry in entries:
        if entry.seq <= prev_seq:
            _fail(system, invariant,
                  f"core {core.core_id}: {queue} seq {entry.seq} after "
                  f"{prev_seq} — not in program order")
        prev_seq = entry.seq


def _check_rob_capacity(system: "System", core: "Core") -> None:
    if len(core.rob) > core.config.rob_entries:
        _fail(system, "rob-capacity",
              f"core {core.core_id}: {len(core.rob)} ROB entries, "
              f"capacity {core.config.rob_entries}")


def _check_mesi_swmr(system: "System") -> None:
    holders: Dict[int, list] = {}
    for ctrl in system.memory.controllers:
        for line, state in ctrl.state.items():
            holders.setdefault(line, []).append((ctrl.core_id, state))
    for line, entries in holders.items():
        if len(entries) < 2:
            continue
        exclusive = [cid for cid, state in entries if state in ("M", "E")]
        if exclusive:
            _fail(system, "mesi-swmr",
                  f"line {line:#x} held {entries} — core {exclusive[0]} "
                  f"has it M/E while others hold it too")


def check_system(system: "System") -> None:
    """Run every invariant check; raises :class:`InvariantViolation` on
    the first failure.  Intended to run *between* events (the MESI check
    relies on transient protocol state having settled into the
    controllers' stable-state maps)."""
    for core in system.cores:
        _check_gate_key(system, core)
        _check_sb_fifo(system, core)
        _check_ascending(system, core, "lq-age-order", "LQ", core.lq)
        _check_ascending(system, core, "rob-order", "ROB", core.rob)
        _check_rob_capacity(system, core)
    _check_mesi_swmr(system)


# ----------------------------------------------------------------------
# The watchdog
# ----------------------------------------------------------------------

class Watchdog:
    """Periodic invariant checks + forward-progress detection.

    Install on a :class:`~repro.sim.system.System` before ``run()``:

    >>> wd = Watchdog(period=5_000, stall_limit=200_000)
    >>> wd.install(system)
    >>> system.run()

    Progress is architectural: per-core ``(retired_instructions,
    retired_stores, finished)``.  A run that dispatches events without
    any core retiring anything (a coherence livelock, a wedged gate) is
    *not* progressing and trips the detector just like a drained-queue
    hang would.  With ``per_event=True`` the invariant sweep additionally
    runs after **every** dispatched event (via ``Engine.event_hook``) —
    orders of magnitude slower; for tests.
    """

    def __init__(self, period: int = 5_000, stall_limit: int = 200_000,
                 invariants: bool = True, per_event: bool = False) -> None:
        if period < 1:
            raise ValueError("watchdog period must be >= 1 cycle")
        self.period = period
        self.stall_limit = stall_limit
        self.invariants = invariants
        self.per_event = per_event
        self.checks_run = 0
        self._system: Optional["System"] = None
        self._last_snapshot = None
        self._last_progress_at = 0

    def install(self, system: "System") -> None:
        if self._system is not None:
            raise RuntimeError("watchdog already installed")
        self._system = system
        self._last_snapshot = self._progress_snapshot()
        self._last_progress_at = system.engine.now
        if self.per_event:
            system.engine.event_hook = self._event_check
        system.engine.schedule(self.period, self._tick)

    def _progress_snapshot(self) -> tuple:
        return tuple((core.stats.retired_instructions,
                      core.stats.retired_stores, core.finished)
                     for core in self._system.cores)

    def _event_check(self) -> None:
        if not self._system.done:
            self.checks_run += 1
            check_system(self._system)

    def _tick(self) -> None:
        system = self._system
        if system.done or system.engine.stopped:
            return  # run is over; stop rescheduling
        if self.invariants:
            self.checks_run += 1
            check_system(system)
        snapshot = self._progress_snapshot()
        if snapshot != self._last_snapshot:
            self._last_snapshot = snapshot
            self._last_progress_at = system.engine.now
        else:
            stalled = system.engine.now - self._last_progress_at
            if stalled >= self.stall_limit:
                raise DeadlockError(
                    f"no forward progress for {stalled} cycles at cycle "
                    f"{system.engine.now} with {system._unfinished} "
                    f"unfinished core(s) (policy={system.policy_name})",
                    system_diagnostic(system, stalled_for=stalled,
                                      stall_limit=self.stall_limit))
        system.engine.schedule(self.period, self._tick)
