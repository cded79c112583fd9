"""Property-based test of the event engine's dispatch order.

:class:`~repro.sim.engine.Engine` keeps same-cycle and next-cycle events
in two deques beside a heap, and its run loop merges the three.  Driven
through the same random cascades of events, it must dispatch exactly
what one plain ``(time, seq)`` heap dispatches, in the same order, and
stop, pause at a cycle budget and resume the same way.
"""

import heapq

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.engine import Engine


class HeapEngine:
    """The reference: every pending event in one ``(time, seq)`` heap."""

    def __init__(self):
        self.now = 0
        self.events_dispatched = 0
        self._heap = []
        self._seq = 0
        self._stopped = False

    def schedule(self, delay, fn, *args):
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def stop(self):
        self._stopped = True

    @property
    def pending(self):
        return len(self._heap)

    def run(self, max_cycles=None):
        deadline = None if max_cycles is None else self.now + max_cycles
        while self._heap and not self._stopped:
            time, _, fn, args = self._heap[0]
            if deadline is not None and time > deadline:
                self.now = max(self.now, deadline)
                break
            heapq.heappop(self._heap)
            self.now = time
            self.events_dispatched += 1
            fn(*args)
        return self.now


class Cascade:
    """One random cascade on one engine.  Events get ids in the order
    they are scheduled; event ``i`` schedules a child for each delay in
    ``plan[i]``, event ``stop_at`` stops the engine, and every dispatch
    is logged as ``(id, cycle)``."""

    def __init__(self, engine, plan, stop_at):
        self.engine = engine
        self.plan = plan
        self.stop_at = stop_at
        self.log = []
        self.ids = 0

    def add(self, delay):
        self.engine.schedule(delay, self.fire, self.ids)
        self.ids += 1

    def fire(self, event_id):
        self.log.append((event_id, self.engine.now))
        if event_id < len(self.plan):
            for delay in self.plan[event_id]:
                self.add(delay)
        if event_id == self.stop_at:
            self.engine.stop()


# Same cycle, next cycle, just past the next cycle (a heap event that
# can land beside next-cycle bucket traffic), and far out (heap-only
# stretches while nothing near is pending).
DELAYS = st.one_of(st.just(0), st.just(1), st.integers(2, 3),
                   st.integers(50, 500))
CHILDREN = st.lists(DELAYS, max_size=3)
# Each phase schedules new root events, then runs under a cycle budget
# (None = until drained or stopped); a final unbounded run resumes.
PHASES = st.lists(st.tuples(CHILDREN, st.one_of(st.none(),
                                                st.integers(0, 600))),
                  min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(plan=st.lists(CHILDREN, max_size=80),
       stop_at=st.one_of(st.none(), st.integers(0, 100)),
       phases=PHASES)
def test_engine_dispatches_in_heap_order(plan, stop_at, phases):
    engine = Cascade(Engine(), plan, stop_at)
    reference = Cascade(HeapEngine(), plan, stop_at)
    for roots, budget in phases + [([], None)]:
        for cascade in (engine, reference):
            for delay in roots:
                cascade.add(delay)
            assert cascade.engine.run(budget) == cascade.engine.now
        assert engine.log == reference.log
        assert engine.engine.now == reference.engine.now
        assert (engine.engine.events_dispatched
                == reference.engine.events_dispatched)
        assert engine.engine.pending == reference.engine.pending
