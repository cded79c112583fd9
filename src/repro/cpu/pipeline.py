"""The out-of-order core pipeline.

A trace-driven cycle-level model of a Skylake-like core (paper Table
III): width-limited dispatch into ROB/LQ/SQ, dependence-driven issue,
memory access through the coherent hierarchy, in-order retirement, and
full squash/re-execute support.  The consistency policy (one of the five
configurations of Section V) is consulted exactly where the paper's
implementations differ:

* at load issue — may the load take its value from an in-limbo store?
* at load retirement — is the head load blocked (closed retire gate,
  SC-like SLF speculation)?
* at store write-back — reopen the retire gate (key match or SB drain);
* at invalidation/eviction — which performed loads are speculative and
  must be squashed?

For efficiency the core deregisters its per-cycle tick whenever it is
completely stalled and is woken by the event that unblocks it
(memory responses, execution completions, gate reopenings); stall cycles
are accounted in bulk on wake-up.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.reasons import GATE, SLF_SB
from repro.cpu.branch import TagePredictor
from repro.cpu import isa
from repro.cpu.isa import Trace
from repro.cpu.load_queue import (ISSUED, PERFORMED, WAITING, LoadEntry,
                                  LoadQueue)
from repro.cpu.rob import ReorderBuffer, RobEntry
from repro.cpu.store_buffer import StoreBuffer, StoreEntry
from repro.cpu.storeset import StoreSetPredictor
from repro.memory.prefetch import StridePrefetcher
from repro.obs.bus import NULL_BUS, resolve_squash_probes
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import CoreStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policies import ConsistencyPolicy

# Dispatch-stall attribution (Figure 9 categories).
_STALL_NONE = 0
_STALL_ROB = 1
_STALL_LQ = 2
_STALL_SQ = 3

# Hot-loop bindings of the op-kind discriminators: the fused tick tests
# these once or twice per in-flight instruction, and a module global is
# cheaper than an attribute load on ``isa`` each time.
_LOAD = isa.LOAD
_STORE = isa.STORE
_FENCE = isa.FENCE
_RMW = isa.RMW
_BRANCH = isa.BRANCH


class Core:
    """One out-of-order core executing a micro-op trace."""

    __slots__ = (
        "engine", "core_id", "config", "trace", "_kinds", "_addrs", "_deps",
        "_latencies", "_mispredicts", "_taken", "_pcs", "_values",
        "_trace_len", "_issue_width", "_retire_width", "controller", "policy",
        "on_finish", "probe_bus", "_p_slf_forward", "_p_sb_write", "_p_squash",
        "_p_load_perform", "_p_dispatch", "_p_issue", "_p_complete",
        "_p_retire", "_p_line_removed", "stats", "rob", "lq", "sb", "storeset",
        "prefetcher", "branch_predictor", "memory_data", "retired_load_values",
        "fetch_idx", "done", "consumers", "ready", "deferred_on_store",
        "pending_fences", "deferred_on_fence", "barrier_seq", "_sb_inflight",
        "_sb_miss_inflight", "_rfo_pending", "_rfo_scan_at", "finished",
        "_sleeping", "_sleep_since", "_sleep_stall", "_tick_scheduled",
        "_folded",
    )

    def __init__(self, engine: Engine, core_id: int, config: SystemConfig,
                 trace: Trace, controller, policy: "ConsistencyPolicy",
                 on_finish: Optional[Callable[["Core"], None]] = None,
                 memory_data: Optional[Dict[int, int]] = None,
                 probes=None) -> None:
        self.engine = engine
        self.core_id = core_id
        self.config = config.core
        self.trace = trace
        # Hot-loop bindings: the core reads the trace's columns by seq,
        # and the dispatch loop runs every cycle, so the columns, the
        # trace's length and the pipeline widths are cached as plain
        # attributes instead of going through the trace and the frozen
        # config dataclass each iteration.
        (self._kinds, self._addrs, self._deps, self._latencies,
         self._mispredicts, self._taken, self._pcs,
         self._values) = trace.columns()
        self._trace_len = len(trace)
        self._issue_width = self.config.issue_width
        self._retire_width = self.config.retire_width
        self.controller = controller
        self.policy = policy
        self.on_finish = on_finish
        # Probe resolution happens once, here; each site fires behind an
        # ``is not None`` guard, so an unobserved run pays one pointer
        # compare per site.  The bus must be in place before the policy
        # attaches — _SoSBase resolves its gate probes from
        # ``core.probe_bus`` in attach().
        self.probe_bus = bus = probes if probes is not None else NULL_BUS
        self._p_slf_forward = bus.resolve("slf.forward")
        self._p_sb_write = bus.resolve("sb.write_l1")
        self._p_squash = resolve_squash_probes(bus)
        self._p_load_perform = bus.resolve("load.perform")
        self._p_dispatch = bus.resolve("inst.dispatch")
        self._p_issue = bus.resolve("inst.issue")
        self._p_complete = bus.resolve("inst.complete")
        self._p_retire = bus.resolve("inst.retire")
        self._p_line_removed = bus.resolve("line.removed")
        policy.attach(self)
        controller.removal_listener = self._on_line_removed

        self.stats = CoreStats()
        self.rob = ReorderBuffer(self.config.rob_entries)
        self.lq = LoadQueue(self.config.lq_entries)
        self.sb = StoreBuffer(self.config.sq_sb_entries)
        self.storeset = StoreSetPredictor(self.config.storeset_size,
                                          self.config.storeset_lfst)
        for load_pc, store_pc in getattr(trace, "memdep_hints", ()):
            self.storeset.train_violation(load_pc, store_pc)
        self.storeset.violations_trained = 0
        self.prefetcher = StridePrefetcher(
            controller.prefetch,
            line_bytes=config.memory.l1.line_bytes,
            degree=config.memory.prefetch_degree) \
            if config.memory.prefetcher else None
        self.branch_predictor = TagePredictor() \
            if self.config.branch_predictor else None

        # Functional value layer: global word-granular memory image,
        # shared by all cores of the system.  Stores update it at their
        # memory-order insertion (the L1 write); loads read it at
        # perform time unless forwarded.
        self.memory_data = memory_data if memory_data is not None else {}
        # Architectural load results, recorded at retirement.
        self.retired_load_values: Dict[int, int] = {}

        self.fetch_idx = 0
        self.done = bytearray(len(trace))
        self.consumers: Dict[int, List[RobEntry]] = {}
        self.ready: List[Tuple[int, RobEntry]] = []  # (seq, entry) heap
        self.deferred_on_store: Dict[int, List[RobEntry]] = {}
        # mfence serialization: loads younger than an unretired fence
        # cannot issue (program-ordered list of in-flight fence seqs).
        self.pending_fences: List[int] = []
        self.deferred_on_fence: Dict[int, List[RobEntry]] = {}
        self.barrier_seq: Optional[int] = None

        self._sb_inflight = 0
        self._sb_miss_inflight = False
        # Stores whose ownership prefetch was dropped for lack of an
        # MSHR (resolved, rfo_sent still False): the drain-ahead scan
        # only needs to run while this is non-zero.
        self._rfo_pending = 0
        # The controller's ``txns_finished`` at the last scan that
        # reached the end of the SB (-1: none yet).  Until it grows,
        # every MSHR stays busy and each pending store would be refused
        # again, so the scan is skipped.
        self._rfo_scan_at = -1
        self.finished = False
        self._sleeping = False
        self._sleep_since = 0
        self._sleep_stall = _STALL_NONE
        self._tick_scheduled = False
        # Next-cycle completions folded into the next tick (see _tick).
        self._folded: List[RobEntry] = []

    # ------------------------------------------------------------------
    # Scheduling / sleep management
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._schedule_tick(0)

    def _schedule_tick(self, delay: int) -> None:
        if not self._tick_scheduled and not self.finished:
            self._tick_scheduled = True
            self.engine.schedule(delay, self._tick)

    def _wake(self) -> None:
        if self.finished:
            return
        if self._sleeping:
            slept = max(0, self.engine.now - self._sleep_since)
            self._account_stall(self._sleep_stall, slept)
            self._sleeping = False
        self._schedule_tick(0)

    def _account_stall(self, kind: int, cycles: int) -> None:
        if kind == _STALL_ROB:
            self.stats.stall_cycles_rob += cycles
        elif kind == _STALL_LQ:
            self.stats.stall_cycles_lq += cycles
        elif kind == _STALL_SQ:
            self.stats.stall_cycles_sq += cycles

    # ------------------------------------------------------------------
    # Main per-cycle tick
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        """One pipeline cycle: retire, drain the SB, issue, dispatch.

        This is the simulator's single hottest function, so the four
        stages are *fused* here — one body, with locals hoisted out of
        the per-instruction loops and the ROB accessed through its deque
        directly.

        **Folded completions.**  What the issue stage finishes in one
        cycle — 1-cycle ALU ops and branches, fences, and store address
        generation — completes next cycle.  Those completions are not
        engine events: the issue stage collects them in ``_folded`` and
        the next tick runs them first, before it clears
        ``_tick_scheduled``.  That is exact because a completion is
        folded only when both of these hold:

        * the tick re-arms itself at now+1, so its event lands in the
          next-cycle bucket right behind the completions' would-be
          events; and
        * nothing else reached the bucket after the first folded
          completion, so no event sits between those events and the
          tick.

        The events that remain keep their relative ``(time, seq)``
        order.  A completion run inside the tick finds the tick still
        scheduled, as an event just ahead of the tick would, so a memdep
        squash in ``_complete_store`` does not re-arm it.  When a load's
        issue schedules a next-cycle event, or an in-tick squash wakes
        the core for this same cycle so the tick does not re-arm,
        :meth:`_spill` puts the held completions into the bucket where
        their events would have been.
        """
        folded = self._folded
        if folded:
            self._folded = []
            for entry in folded:
                if entry.kind == _STORE:
                    self._complete_store(entry)
                else:
                    self._complete(entry)
        self._tick_scheduled = False
        if self.finished:
            return
        engine = self.engine
        now = engine.now
        # The re-arm below appends to the engine's delay-1 bucket
        # directly — exactly what Engine.schedule does for delay == 1,
        # minus the call.
        bucket_next = engine._bucket_next
        p_retire = self._p_retire
        stats = self.stats
        sb = self.sb
        rob_entries = self.rob._entries

        # ---- retire stage ----
        retired = 0
        retire_width = self._retire_width
        while retired < retire_width:
            head = rob_entries[0] if rob_entries else None
            if head is None or not head.completed:
                # A locked RMW executes only at the ROB head with the SB
                # drained (x86 locked-instruction semantics).
                if (head is not None and head.kind == _RMW
                        and not head.issued and head.deps_left == 0
                        and not sb._count):
                    head.issued = True
                    if self._p_issue is not None:
                        self._p_issue(self.core_id, now, head.seq)
                    self._start_rmw(head)
                break
            kind = head.kind
            if kind == _LOAD:
                if not self._try_retire_load(head):
                    break
            elif kind == _FENCE or kind == _RMW:
                if sb.has_unwritten_older(head.seq):
                    break
                rob_entries.popleft()
                self._release_fence(head.seq)
            elif kind == _STORE:
                rob_entries.popleft()
                entry = head.lsq
                entry.retired = True
                if self._p_sb_write is not None:
                    entry.retired_at = now
                stats.retired_stores += 1
            else:
                rob_entries.popleft()
            if p_retire is not None and kind != _LOAD:
                p_retire(self.core_id, now, head.seq, -1, 0, None)
            stats.retired_instructions += 1
            retired += 1
        work = retired > 0

        # ---- store-buffer drain (insertion in memory order) ----
        # Drain-ahead RFOs overlap the coherence latency of upcoming
        # stores with the current writes; only stores whose ownership
        # prefetch was dropped need a retry, and only after an MSHR
        # frees, so the scan usually skips.
        controller = self.controller
        if self._rfo_pending \
                and self._rfo_scan_at != controller.txns_finished:
            scanned = 0
            rfo_ahead = self.RFO_AHEAD
            for entry in sb:
                if scanned >= rfo_ahead:
                    break
                if entry.resolved and not entry.rfo_sent:
                    if controller.prefetch_exclusive(entry.addr):
                        entry.rfo_sent = True
                        self._rfo_pending -= 1
                scanned += 1
            else:
                self._rfo_scan_at = controller.txns_finished
        # The pipelined L1 (Table III) streams owned-line stores out one
        # per cycle, completing in order; a store to a line not yet
        # owned issues only alone at the head (TSO: in-order insertion).
        # Issued entries are exactly the first ``_sb_inflight``, so the
        # drain candidate sits right behind them.
        inflight = self._sb_inflight
        if inflight < sb._count:
            candidate = sb._slots[(sb._head + inflight) % sb.capacity]
            if candidate.retired and (
                    inflight == 0 or (
                        not self._sb_miss_inflight
                        and controller.peek_state(candidate.addr)
                        in ("M", "E"))):
                candidate.issued = True
                self._sb_inflight = inflight + 1
                if not controller.store(
                        candidate.addr,
                        partial(self._store_written, candidate)):
                    self._sb_miss_inflight = True
                work = True

        # ---- issue stage ----
        ready = self.ready
        fold = self._folded
        if ready:
            issued = 0
            issue_width = self._issue_width
            heappop = heapq.heappop
            p_issue = self._p_issue
            latencies = self._latencies
            while issued < issue_width and ready:
                entry = heappop(ready)[1]
                if entry.squashed or entry.issued:
                    continue  # squashed incarnation or duplicate
                entry.issued = True
                if p_issue is not None:
                    p_issue(self.core_id, now, entry.seq)
                kind = entry.kind
                if kind == _LOAD:
                    if fold:
                        mark = len(bucket_next)
                        self._issue_load(entry)
                        if len(bucket_next) != mark:
                            self._spill(mark)
                    else:
                        self._issue_load(entry)
                elif kind == _STORE or kind == _FENCE:
                    # Address generation (then the SQ entry resolves) or
                    # a fence: completes next cycle.
                    fold.append(entry)
                else:
                    latency = latencies[entry.seq]
                    if latency < 2:
                        fold.append(entry)  # a 1-cycle ALU op or branch
                    else:
                        engine.schedule(latency, self._complete, entry)
                issued += 1
            if issued:
                work = True

        # ---- dispatch stage ----
        stall = _STALL_NONE
        fetch_idx = self.fetch_idx
        trace_len = self._trace_len
        if fetch_idx < trace_len and self.barrier_seq is None:
            dispatched = 0
            issue_width = self._issue_width
            kinds = self._kinds
            deps = self._deps
            rob_capacity = self.rob.capacity
            lq = self.lq
            done = self.done
            consumers = self.consumers
            heappush = heapq.heappush
            p_dispatch = self._p_dispatch
            while True:
                kind = kinds[fetch_idx]
                if len(rob_entries) >= rob_capacity:
                    stall = _STALL_ROB
                    stats.stall_cycles_rob += 1
                    break
                if kind == _LOAD:
                    if len(lq._entries) >= lq.capacity:
                        stall = _STALL_LQ
                        stats.stall_cycles_lq += 1
                        break
                elif kind == _STORE:
                    if sb._count == sb.capacity:
                        stall = _STALL_SQ
                        stats.stall_cycles_sq += 1
                        break
                seq = fetch_idx
                fetch_idx += 1
                entry = RobEntry(seq, kind)
                rob_entries.append(entry)
                if p_dispatch is not None:
                    p_dispatch(self.core_id, now, seq, kind)
                if kind == _LOAD:
                    pc = self._pcs[seq]
                    lentry = lq.allocate(seq, pc)
                    lentry.memdep_wait = self.storeset.predicted_store(pc)
                    entry.lsq = lentry
                elif kind == _STORE:
                    pc = self._pcs[seq]
                    entry.lsq = sb.allocate(seq, pc, self._values[seq])
                    self.storeset.store_dispatched(pc, seq)
                elif kind == _FENCE or kind == _RMW:
                    # Both serialize younger loads until they leave the ROB.
                    self.pending_fences.append(seq)
                elif kind == _BRANCH:
                    mispredicted = self._mispredicts[seq]
                    if not mispredicted and self.branch_predictor is not None:
                        mispredicted = (
                            self.branch_predictor.predict(self._pcs[seq])
                            != self._taken[seq])
                    if mispredicted:
                        self.barrier_seq = seq
                deps_left = 0
                for dep in deps[seq]:
                    if not done[dep]:
                        consumers.setdefault(dep, []).append(entry)
                        deps_left += 1
                entry.deps_left = deps_left
                # RMWs never enter the ready pool: the retire stage launches
                # them once they reach the ROB head with an empty SB.
                if deps_left == 0 and kind != _RMW:
                    heappush(ready, (seq, entry))
                dispatched += 1
                if (dispatched == issue_width or fetch_idx >= trace_len
                        or self.barrier_seq is not None):
                    break
            if dispatched:
                self.fetch_idx = fetch_idx
                work = True

        # ---- next-cycle scheduling ----
        if fetch_idx >= trace_len and not rob_entries and not sb._count:
            self._finish()
            return
        if work:
            if not self._tick_scheduled:
                self._tick_scheduled = True
                engine._seq = s = engine._seq + 1
                bucket_next.append((now + 1, s, self._tick, ()))
            elif fold:
                self._spill(len(bucket_next))
        else:
            # Fully stalled: every possible state change is event-driven
            # (memory response, execution completion, barrier release),
            # and each of those calls _wake().  This cycle's stall was
            # already counted above, so bulk accounting starts at now+1.
            self._sleeping = True
            self._sleep_since = now + 1
            self._sleep_stall = stall

    def _spill(self, at: int) -> None:
        """Turn the folded completions back into next-cycle events at
        index ``at`` of the bucket, where their events would have been.

        The events from ``at`` on are taken off and queued again behind
        them with fresh seqs, so the bucket's FIFO order stays its
        ``seq`` order.  (A bucket event's seq is never compared, and
        every heap event due next cycle is older than anything queued
        this cycle, so drawing new ones moves no event.)
        """
        engine = self.engine
        bucket_next = engine._bucket_next
        later = [bucket_next.pop() for _ in range(len(bucket_next) - at)]
        time = engine.now + 1
        for entry in self._folded:
            fn = (self._complete_store if entry.kind == _STORE
                  else self._complete)
            engine._seq = s = engine._seq + 1
            bucket_next.append((time, s, fn, (entry,)))
        self._folded.clear()
        for _, _, fn, args in reversed(later):
            engine._seq = s = engine._seq + 1
            bucket_next.append((time, s, fn, args))

    def _finish(self) -> None:
        self.finished = True
        self.stats.cycles = self.engine.now
        if self.on_finish is not None:
            self.on_finish(self)

    # ------------------------------------------------------------------
    # Retire stage
    # ------------------------------------------------------------------

    def _release_fence(self, seq: int) -> None:
        """A fence (or locked RMW) left the ROB: release deferred loads."""
        if self.pending_fences and self.pending_fences[0] == seq:
            self.pending_fences.pop(0)
        for consumer in self.deferred_on_fence.pop(seq, ()):
            if not consumer.squashed and not consumer.issued:
                self._push_ready(consumer)

    def _try_retire_load(self, head: RobEntry) -> bool:
        lentry = head.lsq
        reason = self.policy.load_retire_block(lentry)
        if reason is not None:
            if lentry.gate_blocked_since is None:
                lentry.gate_blocked_since = self.engine.now
                lentry.blocked_reason = reason
                if reason == GATE:
                    self.stats.gate_stall_events += 1
                elif reason == SLF_SB:
                    self.stats.slf_retire_stall_events += 1
            return False
        blocked = 0
        if lentry.gate_blocked_since is not None:
            blocked = self.engine.now - lentry.gate_blocked_since
            if lentry.blocked_reason == GATE:
                self.stats.gate_stall_cycles += blocked
            elif lentry.blocked_reason == SLF_SB:
                self.stats.slf_retire_stall_cycles += blocked
        # ``head`` is the completed ROB head (checked by the caller).
        self.rob._entries.popleft()
        self.lq.retire_head(head.seq)
        self.retired_load_values[head.seq] = lentry.value
        self.stats.retired_loads += 1
        if lentry.slf:
            self.stats.slf_loads += 1
        self.policy.on_load_retire(lentry)
        if self._p_retire is not None:
            self._p_retire(self.core_id, self.engine.now, head.seq,
                           lentry.addr, blocked, lentry.blocked_reason)
        return True

    # ------------------------------------------------------------------
    # Store-buffer drain (insertion in memory order)
    # ------------------------------------------------------------------

    #: How deep into the SQ/SB drain-ahead ownership prefetches look
    #: (effectively the whole SQ/SB; actual concurrency is MSHR-bound).
    RFO_AHEAD = 64

    def _store_written(self, entry: StoreEntry) -> None:
        """The head store wrote to the L1: it is now in memory order."""
        entry.written = True
        if not entry.rfo_sent:
            self._rfo_pending -= 1
        self.memory_data[entry.addr] = entry.value
        self._sb_inflight -= 1
        self._sb_miss_inflight = False
        self.sb.pop_head()
        if self._p_sb_write is not None:
            now = self.engine.now
            drain = now - entry.retired_at if entry.retired_at >= 0 else 0
            self._p_sb_write(self.core_id, now, entry.seq, entry.addr,
                             drain, entry.key)
        self.policy.on_store_written(entry)
        for waiter in entry.waiters:
            waiter()
        entry.waiters.clear()
        head = self.sb.head()
        if head is None or not head.retired:
            self.policy.on_sb_drained()
        # Inlined _wake() (see _complete).
        if not self.finished:
            if self._sleeping:
                slept = self.engine.now - self._sleep_since
                if slept > 0:
                    self._account_stall(self._sleep_stall, slept)
                self._sleeping = False
            if not self._tick_scheduled:
                self._tick_scheduled = True
                engine = self.engine
                engine._seq = s = engine._seq + 1
                engine._bucket_now.append((engine.now, s, self._tick, ()))

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------

    def _push_ready(self, entry: RobEntry) -> None:
        heapq.heappush(self.ready, (entry.seq, entry))

    def _issue_load(self, entry: RobEntry) -> None:
        seq = entry.seq
        addr = self._addrs[seq]
        lentry = entry.lsq
        lentry.addr = addr
        lentry.line = self.controller.line_of(addr)

        # mfence: a load may not execute past an unretired older fence.
        for fence_seq in self.pending_fences:
            if fence_seq < seq:
                entry.issued = False
                self.deferred_on_fence.setdefault(fence_seq, []).append(
                    entry)
                return

        # Memory-dependence prediction past older unresolved stores (the
        # prediction was captured at dispatch, as in real rename stages).
        # ROB seqs are consecutive, so the predicted store sits
        # ``predicted - head.seq`` entries behind the ROB head; a
        # negative index means it retired, and a retired store is always
        # resolved — no buffer scan needed.
        predicted = lentry.memdep_wait
        if predicted is not None and predicted < seq:
            rob_entries = self.rob._entries
            index = predicted - rob_entries[0].seq
            if index >= 0 and not rob_entries[index].lsq.resolved:
                entry.issued = False
                self.deferred_on_store.setdefault(predicted, []).append(
                    entry)
                return

        match = self.sb.forwarding_match(addr, seq)
        if match is not None:
            if self.policy.allows_forwarding:
                self._forward(entry, lentry, match)
            else:
                self._wait_for_store_write(entry, lentry, match)
            return
        # The common (no-forward) case: access the cache.
        lentry.state = ISSUED
        self.stats.loads_issued += 1
        if self.prefetcher is not None:
            self.prefetcher.observe(lentry.pc, addr)
        hit = self.controller.load(addr, partial(self._perform_load, entry))
        if hit:
            self.stats.l1_load_hits += 1

    def _forward(self, entry: RobEntry, lentry: LoadEntry,
                 store: StoreEntry) -> None:
        """Store-to-load forwarding: the load becomes an SLF load and
        copies the store's key (paper Fig. 8, step (a))."""
        lentry.state = ISSUED
        lentry.value = store.value
        self.policy.on_forward(lentry, store)
        if self._p_slf_forward is not None:
            self._p_slf_forward(self.core_id, self.engine.now, lentry.seq,
                                store.seq, store.addr, store.key)
        self.engine.schedule(self.config.forward_latency,
                             self._perform_load, entry)

    def _wait_for_store_write(self, entry: RobEntry, lentry: LoadEntry,
                              store: StoreEntry) -> None:
        """370-NoSpec: the load is not performed until the matched store
        is inserted in memory order (written to the L1)."""
        self.stats.sb_wait_events += 1
        start = self.engine.now
        lentry.state = WAITING

        def resume() -> None:
            if entry.squashed:
                return
            self.stats.sb_wait_cycles += self.engine.now - start
            # Re-run the full issue logic: another (younger) matching
            # store may have resolved in the meantime.
            self._issue_load(entry)
            self._wake()

        store.waiters.append(resume)

    def _perform_load(self, entry: RobEntry) -> None:
        if entry.squashed:
            return
        lentry = entry.lsq
        if not lentry.slf:
            # Read the globally ordered value as of perform time; a
            # later conflicting write squashes this load while it is
            # still speculative in the LQ, re-reading the fresh value.
            lentry.value = self.memory_data.get(lentry.addr, 0)
        lentry.state = PERFORMED
        if self._p_load_perform is not None:
            # Speculation status at perform time, mirroring the squash
            # criteria of _on_line_removed: bit 1 = performed past an
            # older unperformed load (M-speculation), bit 2 = past the
            # policy's SA-speculation floor.  Computed only under an
            # attached observer — the unobserved run never scans.
            spec = 0
            for older in self.lq:
                if older.seq >= entry.seq:
                    break
                if older.state != PERFORMED:
                    spec |= 1
                    break
            p_floor, inclusive = self.policy.speculative_floor()
            if p_floor is not None and (entry.seq >= p_floor if inclusive
                                        else entry.seq > p_floor):
                spec |= 2
            self._p_load_perform(self.core_id, self.engine.now, entry.seq,
                                 lentry.addr, lentry.line, lentry.slf,
                                 spec)
        self._complete(entry)

    def _complete(self, entry: RobEntry) -> None:
        if entry.squashed:
            return
        entry.completed = True
        self.done[entry.seq] = 1
        if self._p_complete is not None:
            self._p_complete(self.core_id, self.engine.now, entry.seq,
                             entry.kind == _LOAD and entry.lsq.slf)
        waiters = self.consumers.pop(entry.seq, None)
        if waiters:
            ready = self.ready
            heappush = heapq.heappush
            for consumer in waiters:
                if consumer.squashed or consumer.issued:
                    continue
                deps_left = consumer.deps_left - 1
                consumer.deps_left = deps_left
                if deps_left == 0 and consumer.kind != _RMW:
                    heappush(ready, (consumer.seq, consumer))
        if entry.kind == _BRANCH:
            if self.branch_predictor is not None:
                self.branch_predictor.update(self._pcs[entry.seq],
                                             self._taken[entry.seq])
            if self.barrier_seq == entry.seq:
                self.engine.schedule(self.config.mispredict_penalty,
                                     self._release_barrier, entry.seq)
        # Inlined _wake() — completion is the most frequent wake source.
        if not self.finished:
            if self._sleeping:
                slept = self.engine.now - self._sleep_since
                if slept > 0:
                    self._account_stall(self._sleep_stall, slept)
                self._sleeping = False
            if not self._tick_scheduled:
                self._tick_scheduled = True
                engine = self.engine
                engine._seq = s = engine._seq + 1
                engine._bucket_now.append((engine.now, s, self._tick, ()))

    def _start_rmw(self, entry: RobEntry) -> None:
        """Execute an atomic exchange: acquire ownership, then read and
        write the global memory image in one indivisible step."""
        addr = self._addrs[entry.seq]

        def done() -> None:
            if entry.squashed:
                return
            old = self.memory_data.get(addr, 0)
            self.memory_data[addr] = self._values[entry.seq]
            self.retired_load_values[entry.seq] = old
            self._complete(entry)

        self.controller.store(addr, done)

    def _complete_store(self, entry: RobEntry) -> None:
        """Store address generation finished: resolve the SQ entry, check
        for memory-dependence violations, release predicted loads."""
        if entry.squashed:
            return
        store = entry.lsq
        self.sb.resolve_store(store, self._addrs[entry.seq])
        self.storeset.store_resolved(store.pc, entry.seq)

        # Ownership prefetch: overlap the write's coherence latency with
        # the store's remaining time in the window/SB (retried by the
        # drain-ahead scan if dropped for lack of an MSHR).
        if not store.rfo_sent:
            store.rfo_sent = self.controller.prefetch_exclusive(store.addr)
            if not store.rfo_sent:
                self._rfo_pending += 1

        self._check_memdep_violation(entry, store)
        for consumer in self.deferred_on_store.pop(entry.seq, ()):
            if consumer.squashed or consumer.issued:
                continue
            self._push_ready(consumer)
        self._complete(entry)

    def _check_memdep_violation(self, entry: RobEntry,
                                store: StoreEntry) -> None:
        """An older store resolved to ``addr``: any younger load that
        already went to memory (or forwarded from an even older store)
        read a stale value — squash at the oldest such load."""
        violators = self.lq.memdep_violators(store.addr, entry.seq)
        if not violators:
            return
        oldest = violators[-1]  # youngest-first scan: last is oldest
        self.storeset.train_violation(oldest.pc, store.pc)
        self._squash(oldest.seq, "memdep")

    def _release_barrier(self, seq: int) -> None:
        if self.barrier_seq == seq:
            self.barrier_seq = None
            self._wake()

    # ------------------------------------------------------------------
    # Squash / re-execute
    # ------------------------------------------------------------------

    def _squash(self, seq: int, reason: str) -> None:
        """Flush everything from ``seq`` (inclusive) to the ROB tail and
        re-dispatch from the trace — the paper's accounting counts all
        flushed instructions as re-executed (Table IV col 7)."""
        removed = self.rob.squash_from(seq)
        if not removed:
            return
        probe = self._p_squash.get(reason)
        if probe is not None:
            probe(self.core_id, self.engine.now, seq, len(removed))
        self.stats.squashes += 1
        if reason == "inval":
            self.stats.squashes_inval += 1
        elif reason == "evict":
            self.stats.squashes_evict += 1
        elif reason == "fault":
            # Injected spurious squash (repro.resilience.faults).
            self.stats.squashes_fault += 1
        else:
            self.stats.squashes_memdep += 1
        self.stats.reexecuted_instructions += len(removed)

        self.lq.squash_from(seq)
        for store in self.sb.squash_from(seq):
            self.storeset.store_squashed(store.pc, store.seq)
            if store.resolved and not store.rfo_sent:
                self._rfo_pending -= 1
        for rentry in removed:
            self.done[rentry.seq] = 0
        self.fetch_idx = seq
        self.pending_fences = [f for f in self.pending_fences if f < seq]
        if self.barrier_seq is not None and self.barrier_seq >= seq:
            self.barrier_seq = None
        self.policy.on_squash(seq)
        self._wake()

    # ------------------------------------------------------------------
    # Coherence events (invalidations and evictions)
    # ------------------------------------------------------------------

    def _on_line_removed(self, line: int, kind: str) -> None:
        """An invalidation or a private-hierarchy eviction removed a
        line: squash any speculative performed load on that line (the
        paper treats evictions exactly like invalidations)."""
        if self._p_line_removed is not None:
            self._p_line_removed(self.core_id, self.engine.now, line, kind)
        matching = self.lq.matching_performed(line)
        if not matching:
            return
        m_floor: Optional[int] = None
        for lentry in self.lq:
            if lentry.state != PERFORMED:
                m_floor = lentry.seq
                break
        p_floor, inclusive = self.policy.speculative_floor()

        def speculative(lentry: LoadEntry) -> bool:
            if m_floor is not None and lentry.seq > m_floor:
                return True  # performed past an older unperformed load
            if p_floor is not None:
                if inclusive and lentry.seq >= p_floor:
                    return True
                if not inclusive and lentry.seq > p_floor:
                    return True
            return False

        squashable = [l for l in matching if speculative(l)]
        if squashable:
            self._squash(min(l.seq for l in squashable), kind)
