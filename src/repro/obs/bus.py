"""The probe bus: named event probes with a zero-overhead off switch.

Instrumented components ask the bus for a probe **once, at attach time**
(core/controller construction)::

    self._p_forward = bus.resolve("slf.forward")

and fire it behind an ``is not None`` guard on the hot path::

    if self._p_forward is not None:
        self._p_forward(core_id, cycle, load_seq, store_seq, addr, key)

:meth:`ProbeBus.resolve` returns ``None`` when the probe has no
subscriber, so a disabled probe costs exactly one attribute load and
pointer compare (a hot loop may guard a local bound from it).  The
default bus (:data:`NULL_BUS`) resolves *everything* to ``None`` and
refuses subscriptions, so an uninstrumented run never builds a
subscriber table at all.

Because resolution is done at attach time, subscribers must be attached
**before** the instrumented objects are constructed (the
:class:`~repro.obs.session.ObsSession` does this: watchers subscribe in
its ``__init__``, then the ``System`` is built with ``probes=session.bus``).

Probe names are registered in :data:`PROBE_SIGNATURES`; resolving or
subscribing to an unknown name raises, which catches typos at wiring
time instead of silently observing nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

ProbeFn = Callable[..., None]

#: Registry of every probe the simulator can fire, with the positional
#: payload each delivers.  ``cycle`` is always ``engine.now`` at fire
#: time.  Keys are store-buffer keys (slot | sorting-bit << 31).
PROBE_SIGNATURES: Dict[str, str] = {
    "gate.close": "(core_id, cycle, key, load_seq)",
    "gate.open": "(core_id, cycle, key, reason)",     # reason: key|drain
    "slf.forward": "(core_id, cycle, load_seq, store_seq, addr, key)",
    "sb.write_l1": "(core_id, cycle, store_seq, addr, drain_cycles, key)",
    "squash.inval": "(core_id, cycle, from_seq, flushed)",
    "squash.evict": "(core_id, cycle, from_seq, flushed)",
    "squash.memdep": "(core_id, cycle, from_seq, flushed)",
    "squash.fault": "(core_id, cycle, from_seq, flushed)",
    "mesi.inval": "(core_id, cycle, line, requestor, present)",
    "mesi.evict": "(core_id, cycle, line)",
    # spec: bit 1 = M-speculative (performed past an older unperformed
    # load), bit 2 = SA-speculative under the active policy's floor.
    "load.perform": "(core_id, cycle, seq, addr, line, slf, spec)",
    "inst.dispatch": "(core_id, cycle, seq, kind)",   # kind: isa op kind
    "inst.issue": "(core_id, cycle, seq)",
    "inst.complete": "(core_id, cycle, seq, slf)",
    # addr, blocked, reason: a load's address and the cycles it waited
    # at the ROB head and why; -1, 0 and None for other instructions.
    "inst.retire": "(core_id, cycle, seq, addr, blocked, reason)",
    "line.removed": "(core_id, cycle, line, kind)",   # kind: inval|evict
    "cache.fill": "(core_id, cycle, line)",
    "prefetch.issue": "(core_id, cycle, line)",
    "noc.msg": "(cycle, msg_class)",
}

#: Every squash reason the pipeline can fire, in probe-name order.
#: ``pipeline._squash``, the obs SquashWatcher and the leakage watcher
#: all iterate this tuple so a new reason cannot be half-wired.
SQUASH_REASONS = ("inval", "evict", "memdep", "fault")


def resolve_squash_probes(bus: "ProbeBus") -> Dict[str, Optional[ProbeFn]]:
    """Resolve the per-reason ``squash.*`` probes once, at attach time.

    Shared by the pipeline (fire side) and the watchers (shape side) so
    every squash lane carries the same ``(core_id, cycle, from_seq,
    flushed)`` payload.
    """
    return {reason: bus.resolve(f"squash.{reason}")
            for reason in SQUASH_REASONS}


def _check_name(name: str) -> None:
    if name not in PROBE_SIGNATURES:
        raise KeyError(
            f"unknown probe {name!r}; known probes: "
            + ", ".join(sorted(PROBE_SIGNATURES)))


class ProbeBus:
    """Subscriber registry for the named probes in
    :data:`PROBE_SIGNATURES`."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[ProbeFn]] = {}

    def subscribe(self, pattern: str, fn: ProbeFn) -> None:
        """Attach ``fn`` to every probe matching ``pattern``.

        ``pattern`` is an exact probe name, a ``prefix.*`` wildcard
        (e.g. ``"squash.*"``), or ``"*"`` for everything.  Matching is
        done against the static registry, so a pattern that matches
        nothing is an error.
        """
        names = self._match(pattern)
        if not names:
            _check_name(pattern)  # raises with the known-probe list
        for name in names:
            self._subscribers.setdefault(name, []).append(fn)

    def _match(self, pattern: str) -> List[str]:
        if pattern == "*":
            return list(PROBE_SIGNATURES)
        if pattern.endswith(".*"):
            prefix = pattern[:-1]  # keep the dot
            return [n for n in PROBE_SIGNATURES if n.startswith(prefix)]
        return [pattern] if pattern in PROBE_SIGNATURES else []

    def subscribers(self, name: str) -> List[ProbeFn]:
        _check_name(name)
        return list(self._subscribers.get(name, ()))

    @property
    def active(self) -> bool:
        """True if any probe has at least one subscriber."""
        return any(self._subscribers.values())

    def resolve(self, name: str) -> Optional[ProbeFn]:
        """The fire function for ``name``, or ``None`` if unobserved.

        With one subscriber the subscriber itself is returned (no
        dispatch wrapper on the fire path); with several, a closure that
        calls each in subscription order.
        """
        _check_name(name)
        subs = self._subscribers.get(name)
        if not subs:
            return None
        if len(subs) == 1:
            return subs[0]
        pinned = tuple(subs)

        def fire(*args: object) -> None:
            for fn in pinned:
                fn(*args)

        return fire


class _NullBus(ProbeBus):
    """The disabled bus: resolves every probe to ``None`` and rejects
    subscriptions (subscribe to a real :class:`ProbeBus` instead)."""

    def subscribe(self, pattern: str, fn: ProbeFn) -> None:
        raise RuntimeError(
            "cannot subscribe to NULL_BUS; create a ProbeBus (or an "
            "ObsSession) and pass it to the System under observation")

    def resolve(self, name: str) -> None:
        _check_name(name)
        return None


#: Shared disabled bus used whenever no observer is attached.
NULL_BUS = _NullBus()
