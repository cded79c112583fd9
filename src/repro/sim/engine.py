"""Discrete-event simulation kernel.

The whole performance model (out-of-order cores, coherence protocol,
interconnect) is driven by a single :class:`Engine`: a monotonically
increasing cycle counter plus a set of scheduled callbacks.

Cores tick cycle-by-cycle while they have work; a core that is fully
stalled (e.g. waiting for a cache miss or for the store buffer to drain)
deregisters its tick and is woken by the event that unblocks it.  This
keeps long memory stalls cheap to simulate while preserving exact cycle
accounting.

Fast path
---------

Every event is totally ordered by ``(time, seq)`` where ``seq`` is a
global insertion counter — that order is the determinism contract and
is never violated.  Three structures hold pending events:

* ``_bucket_now``  — events at the current cycle (delay-0 schedules);
* ``_bucket_next`` — events at the next cycle (delay-1 schedules, i.e.
  the per-cycle core ticks — the hottest class of event);
* ``_heap``        — everything further out (cache fills, network
  deliveries, execution latencies).

Appending to / popping from the two deques is O(1), so the per-cycle
core ticks never touch the heap; within each deque, FIFO order *is*
``seq`` order, and any heap event landing on the same cycle necessarily
carries an older ``seq`` (it was pushed at least two cycles earlier), so
a cheap head comparison reproduces the exact global order a pure heap
would produce.

Termination uses a stop sentinel (:meth:`stop`) instead of polling an
``until()`` closure on every event; the ``until=`` argument remains for
callers that wait on a condition other than "every core finished" (the
checkpoint drain to a quiescent point) and for tests.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

_Event = Tuple[int, int, Callable[..., Any], tuple]


class Engine:
    """A deterministic discrete-event engine with integer cycle time."""

    __slots__ = ("now", "_queue", "_bucket_now", "_bucket_next", "_seq",
                 "_stopped", "events_dispatched", "event_hook")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[_Event] = []
        self._bucket_now: Deque[_Event] = deque()
        self._bucket_next: Deque[_Event] = deque()
        self._seq: int = 0  # tie-breaker for deterministic ordering
        self._stopped = False
        self.events_dispatched: int = 0  # lifetime dispatch counter
        # Optional no-arg callable invoked after every dispatched event
        # (the per-event mode of the resilience watchdog).  Bound once at
        # the top of :meth:`run`, so it must be set before running; when
        # None, each event pays one local truthiness test.
        self.event_hook: Optional[Callable[[], None]] = None

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` cycles from now (delay may be 0)."""
        self._seq += 1
        if delay == 1:
            self._bucket_next.append((self.now + 1, self._seq, fn, args))
        elif delay == 0:
            self._bucket_now.append((self.now, self._seq, fn, args))
        elif delay > 1:
            heapq.heappush(self._queue, (self.now + delay, self._seq, fn, args))
        else:
            raise ValueError(f"negative delay: {delay}")

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event at cycle {time}: the engine "
                f"is already at cycle {self.now}")
        self.schedule(time - self.now, fn, *args)

    def stop(self) -> None:
        """Request termination: :meth:`run` returns before dispatching
        the next event.  The flag is sticky (a later :meth:`run` on a
        stopped engine returns immediately), mirroring a terminal
        ``until()`` predicate."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def pending(self) -> int:
        """Number of events not yet dispatched."""
        return (len(self._queue) + len(self._bucket_now)
                + len(self._bucket_next))

    # ------------------------------------------------------------------
    # Snapshot support (repro.snapshot)
    # ------------------------------------------------------------------

    def pending_events(self) -> List[_Event]:
        """Every undispatched ``(time, seq, fn, args)`` in global
        ``(time, seq)`` order — the queue residue a snapshot captures at
        a quiescent point."""
        events = (list(self._bucket_now) + list(self._bucket_next)
                  + list(self._queue))
        events.sort(key=lambda e: (e[0], e[1]))
        return events

    def restore_queue(self, now: int, seq: int,
                      events: List[_Event]) -> None:
        """Reinstall a captured clock, seq counter, and queue residue.

        Events are re-routed by distance (``now`` → bucket_now,
        ``now + 1`` → bucket_next, further out → heap) in seq order.
        That re-establishes the ordering invariant the run loop relies
        on: FIFO order inside each bucket is seq order, and every heap
        event is at least two cycles out, so any event the heap later
        surfaces on the current or next cycle carries a smaller seq than
        anything scheduled there since the restore.
        """
        for event in events:
            if event[0] < now:
                raise ValueError(
                    f"cannot restore an event at cycle {event[0]}: the "
                    f"restored clock is {now}")
            if event[1] > seq:
                raise ValueError(
                    f"restored event seq {event[1]} is ahead of the "
                    f"restored seq counter {seq}")
        self.now = now
        self._seq = seq
        self._stopped = False
        self._bucket_now = deque()
        self._bucket_next = deque()
        self._queue = []
        for event in sorted(events, key=lambda e: (e[0], e[1])):
            if event[0] == now:
                self._bucket_now.append(event)
            elif event[0] == now + 1:
                self._bucket_next.append(event)
            else:
                self._queue.append(event)
        heapq.heapify(self._queue)

    # ------------------------------------------------------------------

    def _advance(self, time: int) -> None:
        """Move the clock to ``time`` (> now), rolling the next-cycle
        bucket over.  If ``_bucket_next`` is non-empty the earliest
        pending event is at ``now + 1``, so ``time`` can only be
        ``now + 1`` and the rollover is a plain swap."""
        self.now = time
        if self._bucket_next:
            self._bucket_now, self._bucket_next = (self._bucket_next,
                                                   self._bucket_now)

    def run(self, until: Callable[[], bool] = None,
            max_cycles: int = None) -> int:
        """Run events until :meth:`stop` is called, the queue drains,
        ``until()`` becomes true, or ``max_cycles`` is exceeded.
        Returns the final cycle count.

        When the cycle budget is exhausted the clock is left at the
        deadline and every still-queued event strictly after it remains
        queued; the engine stays consistent and can be reused (more
        events scheduled, ``run`` called again) without ever seeing an
        event in the past.
        """
        deadline = None if max_cycles is None else self.now + max_cycles
        queue = self._queue
        heappop = heapq.heappop
        now = self.now
        hook = self.event_hook
        dispatched = 0
        try:
            while True:
                if self._stopped:
                    break
                if until is not None and until():
                    break
                bucket_now = self._bucket_now
                if bucket_now:
                    # Same-cycle events: a heap event on this cycle was
                    # necessarily pushed >= 2 cycles ago and so precedes
                    # (smaller seq) everything in the bucket.
                    if queue and queue[0][0] == now:
                        event = heappop(queue)
                    else:
                        event = bucket_now.popleft()
                    dispatched += 1
                    event[2](*event[3])
                    if hook is not None:
                        hook()
                    continue
                # Advance-the-clock path: find the earliest next event.
                bucket_next = self._bucket_next
                if bucket_next:
                    # Heap events on cycle now+1 were pushed earlier and
                    # precede the bucket; on cycle now they precede it
                    # trivially.  Otherwise the bucket head is next.
                    if queue and queue[0][0] <= now + 1:
                        from_heap = True
                        next_time = queue[0][0]
                    else:
                        from_heap = False
                        next_time = now + 1
                    if deadline is not None and next_time > deadline:
                        if deadline > now:
                            self.now = now = deadline
                        break
                    event = heappop(queue) if from_heap \
                        else bucket_next.popleft()
                    if next_time > now:
                        self._advance(next_time)
                        now = next_time
                    dispatched += 1
                    event[2](*event[3])
                    if hook is not None:
                        hook()
                elif queue:
                    # Fused quiescent stretch: both buckets are empty, so
                    # every core is asleep and only far-out events remain
                    # (periodic ticks, long memory latencies).  Dispatch
                    # straight off the heap in a tight loop — one fused
                    # superevent per stretch, batch-advancing the clock —
                    # until an event schedules something near (a bucket
                    # fills) or a stop condition fires.  Check order per
                    # event matches the outer loop exactly, so dispatch
                    # order and counts are byte-identical.
                    bucket_now = self._bucket_now
                    next_time = queue[0][0]
                    if deadline is not None and next_time > deadline:
                        if deadline > now:
                            self.now = now = deadline
                        break
                    halted = False
                    while True:
                        event = heappop(queue)
                        if next_time > now:
                            # No bucket rollover needed: both buckets
                            # were empty when this stretch began.
                            self.now = now = next_time
                        dispatched += 1
                        event[2](*event[3])
                        if hook is not None:
                            hook()
                        if self._stopped or (until is not None
                                             and until()):
                            halted = True
                            break
                        if bucket_now or bucket_next or not queue:
                            break
                        next_time = queue[0][0]
                        if deadline is not None and next_time > deadline:
                            if deadline > now:
                                self.now = now = deadline
                            halted = True
                            break
                    if halted:
                        break
                else:
                    break  # drained
        finally:
            self.events_dispatched += dispatched
        return self.now
