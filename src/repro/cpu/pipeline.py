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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.reasons import GATE, SLF_SB
from repro.cpu.branch import TagePredictor
from repro.core.violation import ViolationDetector
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
        "engine", "core_id", "config", "trace", "_trace_ops", "_trace_len",
        "_issue_width", "_retire_width", "controller", "policy", "on_finish",
        "probe_bus", "_p_slf_forward", "_p_sb_write", "_p_gate_stall",
        "_p_squash", "_p_load_perform", "stats", "rob", "lq", "sb",
        "storeset", "detector",
        "prefetcher", "branch_predictor", "tracer", "memory_data",
        "retired_load_values", "fetch_idx", "done", "load_of", "store_of",
        "consumers", "ready", "deferred_on_store", "pending_fences",
        "deferred_on_fence", "barrier_seq", "_sb_inflight",
        "_sb_miss_inflight", "_rfo_pending", "finished", "_sleeping",
        "_sleep_since", "_sleep_stall", "_tick_scheduled",
        "dispatch_paused",
    )

    def __init__(self, engine: Engine, core_id: int, config: SystemConfig,
                 trace: Trace, controller, policy: "ConsistencyPolicy",
                 on_finish: Optional[Callable[["Core"], None]] = None,
                 detect_violations: bool = True,
                 memory_data: Optional[Dict[int, int]] = None,
                 tracer=None, probes=None) -> None:
        self.engine = engine
        self.core_id = core_id
        self.config = config.core
        self.trace = trace
        # Hot-loop bindings: the dispatch loop runs every cycle, so the
        # trace's op list / length and the pipeline widths are cached as
        # plain attributes instead of going through Trace.__getitem__ /
        # __len__ and the frozen config dataclass each iteration.
        self._trace_ops = trace.ops
        self._trace_len = len(trace.ops)
        self._issue_width = self.config.issue_width
        self._retire_width = self.config.retire_width
        self.controller = controller
        self.policy = policy
        self.on_finish = on_finish
        # Probe resolution happens once, here; each site fires behind an
        # ``is not None`` guard, so an unobserved run pays one pointer
        # compare per site (the same contract as ``tracer`` below).  The
        # bus must be in place before the policy attaches — _SoSBase
        # resolves its gate probes from ``core.probe_bus`` in attach().
        self.probe_bus = probes if probes is not None else NULL_BUS
        self._p_slf_forward = self.probe_bus.resolve("slf.forward")
        self._p_sb_write = self.probe_bus.resolve("sb.write_l1")
        self._p_gate_stall = self.probe_bus.resolve("gate.stall")
        self._p_squash = resolve_squash_probes(self.probe_bus)
        self._p_load_perform = self.probe_bus.resolve("load.perform")
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
        self.detector = ViolationDetector(
            line_bytes=config.memory.l1.line_bytes) \
            if detect_violations else None
        self.prefetcher = StridePrefetcher(
            controller.prefetch,
            line_bytes=config.memory.l1.line_bytes,
            degree=config.memory.prefetch_degree) \
            if config.memory.prefetcher else None
        self.branch_predictor = TagePredictor() \
            if self.config.branch_predictor else None
        self.tracer = tracer  # optional PipeTracer

        # Functional value layer: global word-granular memory image,
        # shared by all cores of the system.  Stores update it at their
        # memory-order insertion (the L1 write); loads read it at
        # perform time unless forwarded.
        self.memory_data = memory_data if memory_data is not None else {}
        # Architectural load results, recorded at retirement.
        self.retired_load_values: Dict[int, int] = {}

        self.fetch_idx = 0
        self.done = bytearray(len(trace))
        self.load_of: Dict[int, LoadEntry] = {}
        self.store_of: Dict[int, StoreEntry] = {}
        self.consumers: Dict[int, List[Tuple[RobEntry, int]]] = {}
        self.ready: List[Tuple[int, int, RobEntry]] = []  # (seq, epoch, e)
        self.deferred_on_store: Dict[int, List[Tuple[RobEntry, int]]] = {}
        # mfence serialization: loads younger than an unretired fence
        # cannot issue (program-ordered list of in-flight fence seqs).
        self.pending_fences: List[int] = []
        self.deferred_on_fence: Dict[int, List[Tuple[RobEntry, int]]] = {}
        self.barrier_seq: Optional[int] = None

        self._sb_inflight = 0
        self._sb_miss_inflight = False
        # Stores whose ownership prefetch was dropped for lack of an
        # MSHR (resolved, rfo_sent still False): the drain-ahead scan
        # only needs to run while this is non-zero.
        self._rfo_pending = 0
        self.finished = False
        self._sleeping = False
        self._sleep_since = 0
        self._sleep_stall = _STALL_NONE
        self._tick_scheduled = False
        # Checkpoint support (repro.snapshot): while True, dispatch
        # fetches nothing, so the pipeline drains to a quiescent point.
        self.dispatch_paused = False

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
        """
        self._tick_scheduled = False
        if self.finished:
            return
        engine = self.engine
        schedule = engine.schedule
        now = engine.now
        # Next-cycle events dominate this method's scheduling, so they
        # are appended to the engine's delay-1 bucket directly — exactly
        # what Engine.schedule does for delay == 1, minus the call.
        bucket_next = engine._bucket_next
        tracer = self.tracer
        stats = self.stats
        sb = self.sb
        rob_entries = self.rob._entries
        work = False

        # ---- retire stage ----
        retired = 0
        retire_width = self._retire_width
        while retired < retire_width:
            head = rob_entries[0] if rob_entries else None
            if head is None or not head.completed:
                # A locked RMW executes only at the ROB head with the SB
                # drained (x86 locked-instruction semantics).
                if (head is not None and head.op.kind == _RMW
                        and not head.issued and head.deps_left == 0
                        and not sb._count):
                    head.issued = True
                    if tracer is not None:
                        tracer.on_issue(head.seq, now)
                    self._start_rmw(head)
                break
            op = head.op
            kind = op.kind
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
                entry = self.store_of.pop(head.seq)
                entry.retired = True
                if self._p_sb_write is not None:
                    entry.retired_at = now
                stats.retired_stores += 1
            else:
                rob_entries.popleft()
            if tracer is not None and kind != _LOAD:
                tracer.on_retire(head.seq, now)
            stats.retired_instructions += 1
            retired += 1
        work = retired > 0

        # ---- store-buffer drain (insertion in memory order) ----
        # Drain-ahead RFOs overlap the coherence latency of upcoming
        # stores with the current writes; only stores whose ownership
        # prefetch was dropped need a retry, so the scan usually skips.
        controller = self.controller
        if self._rfo_pending:
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
        # The pipelined L1 (Table III) streams owned-line stores out one
        # per cycle, completing in order; a store to a line not yet
        # owned issues only alone at the head (TSO: in-order insertion).
        # Issued entries are exactly the first ``_sb_inflight``, so the
        # drain candidate sits right behind them.
        inflight = self._sb_inflight
        candidate = (sb._slots[(sb._head + inflight) % sb.capacity]
                     if inflight < sb._count else None)
        if candidate is not None and candidate.retired:
            owned = controller.peek_state(candidate.addr) in ("M", "E")
            if inflight == 0 or (owned and not self._sb_miss_inflight):
                candidate.issued = True
                self._sb_inflight = inflight + 1
                hit = controller.store(
                    candidate.addr,
                    lambda: self._store_written(candidate))
                if not hit:
                    self._sb_miss_inflight = True
                work = True

        # ---- issue stage ----
        issued = 0
        issue_width = self._issue_width
        ready = self.ready
        heappop = heapq.heappop
        while issued < issue_width and ready:
            seq, epoch, entry = heappop(ready)
            if entry.issue_epoch != epoch or entry.issued:
                continue  # squashed incarnation or duplicate
            entry.issued = True
            if tracer is not None:
                tracer.on_issue(entry.seq, now)
            op = entry.op
            kind = op.kind
            if kind == _LOAD:
                self._issue_load(entry)
            elif kind == _STORE:
                # Address generation: one cycle, then the SQ entry
                # resolves.
                engine._seq = s = engine._seq + 1
                bucket_next.append((now + 1, s, self._complete_store,
                                    (entry, entry.issue_epoch)))
            elif kind == _FENCE:
                schedule(1, self._complete, entry, entry.issue_epoch)
            else:  # ALU / BRANCH
                latency = op.latency
                if latency > 1:
                    schedule(latency, self._complete, entry,
                             entry.issue_epoch)
                else:
                    engine._seq = s = engine._seq + 1
                    bucket_next.append((now + 1, s, self._complete,
                                        (entry, entry.issue_epoch)))
            issued += 1
        work |= issued > 0

        # ---- dispatch stage ----
        dispatched = 0
        stall = _STALL_NONE
        ops = self._trace_ops
        trace_len = self._trace_len
        rob_capacity = self.rob.capacity
        fetch_idx = self.fetch_idx
        done = self.done
        consumers = self.consumers
        heappush = heapq.heappush
        while dispatched < issue_width:
            if fetch_idx >= trace_len:
                break
            if self.barrier_seq is not None or self.dispatch_paused:
                break
            op = ops[fetch_idx]
            kind = op.kind
            if len(rob_entries) >= rob_capacity:
                stall = _STALL_ROB
                break
            if kind == _LOAD:
                lq = self.lq
                if len(lq._entries) >= lq.capacity:
                    stall = _STALL_LQ
                    break
            elif kind == _STORE:
                if sb._count == sb.capacity:
                    stall = _STALL_SQ
                    break
            seq = fetch_idx
            fetch_idx += 1
            entry = RobEntry(seq, op)
            rob_entries.append(entry)
            if tracer is not None:
                tracer.on_dispatch(seq, kind, now)
            if kind == _LOAD:
                lentry = self.lq.allocate(seq, op.pc)
                lentry.memdep_wait = self.storeset.predicted_store(op.pc)
                self.load_of[seq] = lentry
            elif kind == _STORE:
                store = sb.allocate(seq, op.pc, op.value)
                self.store_of[seq] = store
                self.storeset.store_dispatched(op.pc, seq)
            elif kind == _FENCE or kind == _RMW:
                # Both serialize younger loads until they leave the ROB.
                self.pending_fences.append(seq)
            elif kind == _BRANCH:
                mispredicted = op.mispredict
                if not mispredicted and self.branch_predictor is not None:
                    mispredicted = (self.branch_predictor.predict(op.pc)
                                    != op.taken)
                if mispredicted:
                    self.barrier_seq = seq
            deps_left = 0
            epoch = entry.issue_epoch
            for dep in op.deps:
                if not done[dep]:
                    consumers.setdefault(dep, []).append((entry, epoch))
                    deps_left += 1
            entry.deps_left = deps_left
            # RMWs never enter the ready pool: the retire stage launches
            # them once they reach the ROB head with an empty SB.
            if deps_left == 0 and kind != _RMW:
                heappush(ready, (seq, epoch, entry))
            dispatched += 1
        self.fetch_idx = fetch_idx
        work |= dispatched > 0
        if stall != _STALL_NONE:
            self._account_stall(stall, 1)

        # ---- next-cycle scheduling ----
        if fetch_idx >= trace_len and not rob_entries and not sb._count:
            self._finish()
            return
        if work:
            if not self._tick_scheduled and not self.finished:
                self._tick_scheduled = True
                engine._seq = s = engine._seq + 1
                bucket_next.append((now + 1, s, self._tick, ()))
        else:
            # Fully stalled: every possible state change is event-driven
            # (memory response, execution completion, barrier release),
            # and each of those calls _wake().  This cycle's stall was
            # already counted above, so bulk accounting starts at now+1.
            self._sleeping = True
            self._sleep_since = now + 1
            self._sleep_stall = stall

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
        for consumer, cepoch in self.deferred_on_fence.pop(seq, ()):
            if consumer.issue_epoch == cepoch and not consumer.issued:
                self._push_ready(consumer)

    def _try_retire_load(self, head: RobEntry) -> bool:
        lentry = self.load_of[head.seq]
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
        if lentry.gate_blocked_since is not None:
            blocked = self.engine.now - lentry.gate_blocked_since
            if lentry.blocked_reason == GATE:
                self.stats.gate_stall_cycles += blocked
            elif lentry.blocked_reason == SLF_SB:
                self.stats.slf_retire_stall_cycles += blocked
            if self._p_gate_stall is not None:
                self._p_gate_stall(self.core_id, self.engine.now,
                                   lentry.seq, blocked,
                                   lentry.blocked_reason)
        # ``head`` is the completed ROB head (checked by the caller).
        self.rob._entries.popleft()
        self.lq.retire_head(head.seq)
        del self.load_of[head.seq]
        self.retired_load_values[head.seq] = lentry.value
        if self.tracer is not None:
            blocked = 0
            if lentry.gate_blocked_since is not None:
                blocked = self.engine.now - lentry.gate_blocked_since
            self.tracer.on_retire(head.seq, self.engine.now, blocked)
        self.stats.retired_loads += 1
        if lentry.slf:
            self.stats.slf_loads += 1
        self.policy.on_load_retire(lentry)
        if self.detector is not None:
            self.detector.on_load_retired(lentry)
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
        if self.detector is not None:
            self.detector.on_store_written(entry)
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
        heapq.heappush(self.ready, (entry.seq, entry.issue_epoch, entry))

    def _issue_load(self, entry: RobEntry) -> None:
        op = entry.op
        seq = entry.seq
        addr = op.addr
        lentry = self.load_of[seq]
        lentry.addr = addr
        lentry.line = self.controller.line_of(addr)

        # mfence: a load may not execute past an unretired older fence.
        for fence_seq in self.pending_fences:
            if fence_seq < seq:
                entry.issued = False
                self.deferred_on_fence.setdefault(fence_seq, []).append(
                    (entry, entry.issue_epoch))
                return

        # Memory-dependence prediction past older unresolved stores (the
        # prediction was captured at dispatch, as in real rename stages).
        # ``store_of`` holds exactly the non-retired stores and a retired
        # store is always resolved, so the predicted store is unresolved
        # iff it is in ``store_of`` with ``resolved`` still False — no
        # buffer scan needed.
        predicted = lentry.memdep_wait
        if predicted is not None and predicted < seq:
            pstore = self.store_of.get(predicted)
            if pstore is not None and not pstore.resolved:
                entry.issued = False
                lentry.deferred = True
                self.deferred_on_store.setdefault(predicted, []).append(
                    (entry, entry.issue_epoch))
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
            self.prefetcher.observe(op.pc, addr)
        epoch = entry.issue_epoch
        hit = self.controller.load(
            addr, lambda: self._perform_load(entry, epoch))
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
                                store.seq, store.key)
        if self.detector is not None:
            self.detector.on_forward(lentry, store)
        self.engine.schedule(self.config.forward_latency,
                             self._perform_load, entry, entry.issue_epoch)

    def _wait_for_store_write(self, entry: RobEntry, lentry: LoadEntry,
                              store: StoreEntry) -> None:
        """370-NoSpec: the load is not performed until the matched store
        is inserted in memory order (written to the L1)."""
        self.stats.sb_wait_events += 1
        start = self.engine.now
        epoch = entry.issue_epoch
        lentry.state = WAITING

        def resume() -> None:
            if entry.issue_epoch != epoch:
                return
            self.stats.sb_wait_cycles += self.engine.now - start
            # Re-run the full issue logic: another (younger) matching
            # store may have resolved in the meantime.
            self._issue_load(entry)
            self._wake()

        store.waiters.append(resume)

    def _perform_load(self, entry: RobEntry, epoch: int) -> None:
        if entry.issue_epoch != epoch:
            return
        lentry = self.load_of.get(entry.seq)
        if lentry is None:
            return
        if not lentry.slf:
            # Read the globally ordered value as of perform time; a
            # later conflicting write squashes this load while it is
            # still speculative in the LQ, re-reading the fresh value.
            lentry.value = self.memory_data.get(entry.op.addr, 0)
        lentry.state = PERFORMED
        lentry.performed_at = self.engine.now
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
        self._complete(entry, epoch)

    def _complete(self, entry: RobEntry, epoch: int) -> None:
        if entry.issue_epoch != epoch:
            return
        entry.completed = True
        self.done[entry.seq] = 1
        if self.tracer is not None:
            lentry = self.load_of.get(entry.seq)
            self.tracer.on_complete(entry.seq, self.engine.now,
                                    slf=bool(lentry and lentry.slf))
        waiters = self.consumers.pop(entry.seq, None)
        if waiters:
            ready = self.ready
            heappush = heapq.heappush
            for consumer, cepoch in waiters:
                if consumer.issue_epoch != cepoch or consumer.issued:
                    continue
                deps_left = consumer.deps_left - 1
                consumer.deps_left = deps_left
                if deps_left == 0 and consumer.op.kind != _RMW:
                    heappush(ready, (consumer.seq, cepoch, consumer))
        op = entry.op
        if op.kind == _BRANCH:
            if self.branch_predictor is not None:
                self.branch_predictor.update(op.pc, op.taken)
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
        op = entry.op
        epoch = entry.issue_epoch

        def done() -> None:
            if entry.issue_epoch != epoch:
                return
            old = self.memory_data.get(op.addr, 0)
            self.memory_data[op.addr] = op.value
            self.retired_load_values[entry.seq] = old
            self._complete(entry, epoch)

        self.controller.store(op.addr, done)

    def _complete_store(self, entry: RobEntry, epoch: int) -> None:
        """Store address generation finished: resolve the SQ entry, check
        for memory-dependence violations, release predicted loads."""
        if entry.issue_epoch != epoch:
            return
        store = self.store_of.get(entry.seq)
        if store is None:  # pragma: no cover - defensive
            return
        self.sb.resolve_store(store, entry.op.addr)
        self.storeset.store_resolved(entry.op.pc, entry.seq)

        # Ownership prefetch: overlap the write's coherence latency with
        # the store's remaining time in the window/SB (retried by the
        # drain-ahead scan if dropped for lack of an MSHR).
        if not store.rfo_sent:
            store.rfo_sent = self.controller.prefetch_exclusive(store.addr)
            if not store.rfo_sent:
                self._rfo_pending += 1

        self._check_memdep_violation(entry, store)
        for consumer, cepoch in self.deferred_on_store.pop(entry.seq, ()):
            if consumer.issue_epoch != cepoch or consumer.issued:
                continue
            lentry = self.load_of.get(consumer.seq)
            if lentry is not None:
                lentry.deferred = False
            self._push_ready(consumer)
        self._complete(entry, epoch)

    def _check_memdep_violation(self, entry: RobEntry,
                                store: StoreEntry) -> None:
        """An older store resolved to ``addr``: any younger load that
        already went to memory (or forwarded from an even older store)
        read a stale value — squash at the oldest such load."""
        violators = self.lq.memdep_violators(store.addr, entry.seq)
        if not violators:
            return
        oldest = violators[-1]  # youngest-first scan: last is oldest
        self.storeset.train_violation(oldest.pc, entry.op.pc)
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
        if self.tracer is not None:
            self.tracer.on_squash(seq, self.engine.now, reason)
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

        for lentry in self.lq.squash_from(seq):
            self.load_of.pop(lentry.seq, None)
        for store in self.sb.squash_from(seq):
            self.store_of.pop(store.seq, None)
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
        if self.detector is not None:
            self.detector.on_squash(seq)
        self._wake()

    # ------------------------------------------------------------------
    # Coherence events (invalidations and evictions)
    # ------------------------------------------------------------------

    def _on_line_removed(self, line: int, kind: str) -> None:
        """An invalidation or a private-hierarchy eviction removed a
        line: squash any speculative performed load on that line (the
        paper treats evictions exactly like invalidations)."""
        if self.detector is not None:
            victims = self.detector
            victims.on_line_removed(line)
            self.stats.store_atomicity_violations = victims.violations
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
