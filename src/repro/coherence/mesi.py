"""Write-atomic MESI directory protocol.

The paper assumes "a typical invalidation-based MESI protocol that
acknowledges a write only after all invalidations have been performed"
(Section II-E) — i.e. a *write-atomic* memory system, which is what
makes the x86 configuration rMCA rather than PC.  This module implements
that protocol:

* A full-map directory, banked and co-located with the shared L3.
* Private per-core controllers in front of an inclusive L1+L2 hierarchy.
* Blocking directory: one transaction per line at a time; younger
  requests to the same line queue at the directory.
* A store is reported complete to the core ("inserted in memory order")
  only once the requestor has collected the grant, the data, *and* every
  invalidation acknowledgement.
* Invalidations and hierarchy (L2) evictions are reported to the core
  via a removal listener — these are exactly the events that squash
  speculative loads in the LQ.

The protocol is timing-only: data values are not tracked (functional
correctness of the memory models is validated separately by the
operational litmus engine in :mod:`repro.litmus`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.coherence.cache import CacheArray, PrivateHierarchy
from repro.noc.network import Network
from repro.obs.bus import NULL_BUS
from repro.sim.config import MemoryConfig, SystemConfig
from repro.sim.engine import Engine

# Stable states of a line in a private hierarchy.
M, E, S = "M", "E", "S"

GETS = "GetS"
GETM = "GetM"
PUTM = "PutM"

RemovalListener = Callable[[int, str], None]  # (line, "inval"|"evict")


@dataclass(slots=True)
class _Txn:
    """An outstanding miss/upgrade at a private controller (one MSHR)."""

    line: int
    kind: str                       # GETS or GETM
    callbacks: List[Callable[[], None]] = field(default_factory=list)
    acks_needed: int = -1           # unknown until the grant arrives
    acks_got: int = 0
    data_got: bool = False
    granted_state: str = S

    def complete(self) -> bool:
        return (self.acks_needed >= 0
                and self.acks_got >= self.acks_needed
                and self.data_got)


class DirectoryBank:
    """One bank of the full-map directory plus its L3 data slice.

    The directory itself is unbounded (the paper provisions 200% L2
    coverage, which in practice behaves as 'large enough'); the L3 data
    array is bounded and only determines whether a fill is served by the
    L3 or by memory.
    """

    __slots__ = ("system", "index", "l3", "owner", "sharers", "busy",
                 "waiting", "stale_putm")

    def __init__(self, system: "CoherentMemorySystem", index: int) -> None:
        self.system = system
        self.index = index
        self.l3 = CacheArray(system.config.l3_bank)
        self.owner: Dict[int, int] = {}           # line -> core id (M/E)
        self.sharers: Dict[int, Set[int]] = {}    # line -> sharer core ids
        self.busy: Set[int] = set()
        self.waiting: Dict[int, Deque[tuple]] = {}
        # (line, core) -> count of in-flight PutMs already known stale:
        # the core re-requested the line before its writeback arrived, so
        # the writeback must not clear the *new* incarnation's ownership.
        self.stale_putm: Dict[Tuple[int, int], int] = {}

    # -- request entry points (called after network latency) ----------

    def request(self, kind: str, line: int, requestor: int) -> None:
        if line in self.busy:
            self.waiting.setdefault(line, deque()).append((kind, requestor))
            return
        self._process(kind, line, requestor)

    def unblock(self, line: int) -> None:
        """The requestor finished its transaction; admit queued requests
        until one makes the line busy again (PutM does not, so several
        queued writebacks may drain at once)."""
        self.busy.discard(line)
        while line not in self.busy:
            queue = self.waiting.get(line)
            if not queue:
                break
            kind, requestor = queue.popleft()
            if not queue:
                del self.waiting[line]
            self._process(kind, line, requestor)

    # -- transaction processing ----------------------------------------

    def _process(self, kind: str, line: int, requestor: int) -> None:
        if kind == PUTM:
            self._process_putm(line, requestor)
            return
        # A GetS/GetM from the registered owner means the owner silently
        # lost the line (its PutM is still in flight); normalize, and
        # remember to ignore that writeback when it arrives — by then the
        # same core may own the line again, so the owner check alone
        # cannot tell the stale PutM from a genuine one.
        if self.owner.get(line) == requestor:
            del self.owner[line]
            key = (line, requestor)
            self.stale_putm[key] = self.stale_putm.get(key, 0) + 1

        self.busy.add(line)
        lookup = self.system.config.l3_bank.hit_latency
        owner = self.owner.get(line)
        sharers = self.sharers.setdefault(line, set())
        ctrl = self.system.controllers[requestor]

        if kind == GETS:
            self._process_gets(line, requestor, ctrl, owner, sharers, lookup)
        elif kind == GETM:
            self._process_getm(line, requestor, ctrl, owner, sharers, lookup)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown request {kind}")

    def _process_gets(self, line: int, requestor: int,
                      ctrl: "PrivateController", owner: Optional[int],
                      sharers: Set[int], lookup: int) -> None:
        if owner is not None:
            # Forward to owner; owner downgrades to S and supplies data.
            owner_ctrl = self.system.controllers[owner]
            self.system.engine.schedule(
                lookup, self.system.network.send_control,
                owner_ctrl.handle_fwd_gets, line, requestor)
            sharers.add(owner)
            sharers.add(requestor)
            del self.owner[line]
            self.l3.insert(line)  # implicit writeback of the owner's data
            self._grant(ctrl, line, lookup, acks=0, with_data=False, state=S)
        else:
            fill = self._l3_fill_latency(line)
            if sharers:
                state = S
            else:
                state = E
                self.owner[line] = requestor
            sharers.add(requestor)
            self._grant(ctrl, line, lookup + fill, acks=0, with_data=True,
                        state=state)

    def _process_getm(self, line: int, requestor: int,
                      ctrl: "PrivateController", owner: Optional[int],
                      sharers: Set[int], lookup: int) -> None:
        invalidatees: Set[int] = {c for c in sharers if c != requestor}
        if owner is not None:
            invalidatees.add(owner)
        for victim in sorted(invalidatees):
            victim_ctrl = self.system.controllers[victim]
            self.system.engine.schedule(
                lookup, self.system.network.send_control,
                victim_ctrl.handle_inv, line, requestor)
            self.system.stats_invalidations += 1

        if requestor in sharers:
            # Upgrade: the requestor already holds the data.
            self._grant(ctrl, line, lookup, acks=len(invalidatees),
                        with_data=True, state=M)
        elif owner is not None:
            # The old owner's data rides with its invalidation ack.
            self._grant(ctrl, line, lookup, acks=len(invalidatees),
                        with_data=False, state=M)
        else:
            fill = self._l3_fill_latency(line)
            self._grant(ctrl, line, lookup + fill, acks=len(invalidatees),
                        with_data=True, state=M)
        self.owner[line] = requestor
        self.sharers[line] = set()

    def _process_putm(self, line: int, requestor: int) -> None:
        # Writeback of a dirty evicted line.  A stale PutM (ownership has
        # already moved on) is acknowledged and otherwise ignored.
        ctrl = self.system.controllers[requestor]
        key = (line, requestor)
        pending = self.stale_putm.get(key, 0)
        if pending:
            if pending == 1:
                del self.stale_putm[key]
            else:
                self.stale_putm[key] = pending - 1
        elif self.owner.get(line) == requestor and line not in self.busy:
            del self.owner[line]
            self.sharers.pop(line, None)
            self.l3.insert(line)
        self.system.network.send_control(ctrl.handle_putm_ack, line)

    def _l3_fill_latency(self, line: int) -> int:
        """Extra latency to fetch data: 0 on an L3 hit (charged with the
        directory lookup), memory latency on an L3 miss (then cached)."""
        if self.l3.lookup(line):
            return 0
        self.l3.insert(line)
        return self.system.config.memory_latency

    def _grant(self, ctrl: "PrivateController", line: int, delay: int,
               acks: int, with_data: bool, state: str) -> None:
        msg_class = "data" if with_data else "control"
        self.system.engine.schedule(
            delay, self.system.network.send, msg_class,
            ctrl.handle_grant, line, acks, with_data, state)


class PrivateController:
    """Per-core coherence controller for the private L1+L2 hierarchy."""

    __slots__ = ("system", "core_id", "hierarchy", "state", "txns",
                 "txns_finished", "txn_queue", "wb_buffer",
                 "removal_listener", "mshrs", "fault_store_delay",
                 "_fault_store_horizon",
                 "_p_inval", "_p_evict", "_p_fill", "_p_prefetch",
                 "line_bytes", "_line_pow2", "_line_mask")

    def __init__(self, system: "CoherentMemorySystem", core_id: int) -> None:
        self.system = system
        self.core_id = core_id
        mem = system.config
        self.hierarchy = PrivateHierarchy(mem.l1, mem.l2)
        # Line-align fast path: every core-facing access first maps a
        # byte address to its line, so the alignment is computed here in
        # one step instead of hopping controller -> hierarchy -> L1.
        lb = self.hierarchy.line_bytes
        self.line_bytes = lb
        self._line_pow2 = lb & (lb - 1) == 0
        self._line_mask = ~(lb - 1)
        self.state: Dict[int, str] = {}
        self.txns: Dict[int, _Txn] = {}
        # Transactions completed so far: an MSHR can only free, and a
        # line only become M/E, when this grows (see Core's drain-ahead
        # RFO scan).
        self.txns_finished = 0
        self.txn_queue: Deque[tuple] = deque()  # overflow beyond MSHRs
        self.wb_buffer: Set[int] = set()
        self.removal_listener: Optional[RemovalListener] = None
        self.mshrs = system.core_mshrs
        # Fault-injection hook (repro.resilience.faults): extra cycles
        # on an owned-line store commit.  None when no plan installed.
        self.fault_store_delay: Optional[Callable[[], int]] = None
        self._fault_store_horizon = 0
        self._p_inval = system.probe_bus.resolve("mesi.inval")
        self._p_evict = system.probe_bus.resolve("mesi.evict")
        self._p_fill = system.probe_bus.resolve("cache.fill")
        self._p_prefetch = system.probe_bus.resolve("prefetch.issue")
        if system.system_config.core.l1_evict_squash:
            self.hierarchy.l1_evict_listener = self._on_l1_evict

    def _on_l1_evict(self, line: int) -> None:
        # An L1 castout can filter a later invalidation from the load
        # queue's point of view; the paper therefore treats it like an
        # invalidation for speculative loads (Section IV, 'Evictions').
        if self.removal_listener is not None:
            self.removal_listener(line, "evict")

    # ------------------------------------------------------------------
    # Core-facing API
    # ------------------------------------------------------------------

    def line_of(self, addr: int) -> int:
        if self._line_pow2:
            return addr & self._line_mask
        return addr - (addr % self.line_bytes)

    def load(self, addr: int, done: Callable[[], None]) -> bool:
        """Access for a load.  Returns True on a private-hierarchy hit and
        schedules ``done`` after the hit latency; on a miss, ``done`` runs
        once the line is filled."""
        line = (addr & self._line_mask) if self._line_pow2 \
            else addr - (addr % self.line_bytes)
        if line in self.state:
            latency = self.hierarchy.access_latency(line)
            assert latency is not None, "state map out of sync with tags"
            self.system.engine.schedule(latency, done)
            return True
        self._miss(GETS, line, done)
        return False

    def store(self, addr: int, done: Callable[[], None]) -> bool:
        """Access for a store leaving the store buffer.  ``done`` runs when
        the write is *globally performed* (all invalidations acked)."""
        line = (addr & self._line_mask) if self._line_pow2 \
            else addr - (addr % self.line_bytes)
        if self.state.get(line) in (M, E):
            self.state[line] = M
            latency = self.hierarchy.access_latency(line)
            assert latency is not None, "state map out of sync with tags"
            delay = self.system.config.store_commit_latency
            if self.fault_store_delay is not None:
                delay = self._faulted_commit_delay(delay)
            self.system.engine.schedule(delay, done)
            return True
        self._miss(GETM, line, done)
        return False

    def _faulted_commit_delay(self, base: int) -> int:
        """Apply the injected extra store-commit delay, clamped to a
        monotone completion horizon: owned-line SB writes pipeline and
        must complete in order (TSO memory-order insertion), so a jitter
        that would finish a younger store first is stretched to the
        oldest outstanding completion instead."""
        now = self.system.engine.now
        target = now + base + self.fault_store_delay()
        if target < self._fault_store_horizon:
            target = self._fault_store_horizon
        self._fault_store_horizon = target
        return target - now

    def prefetch(self, addr: int) -> None:
        """Best-effort GetS issued by the stride prefetcher."""
        line = self.line_of(addr)
        if line in self.state or line in self.txns:
            return
        if len(self.txns) >= self.mshrs:
            return  # prefetches never queue
        if self._p_prefetch is not None:
            self._p_prefetch(self.core_id, self.system.engine.now, line)
        self._start_txn(GETS, line, lambda: None)

    def prefetch_exclusive(self, addr: int) -> bool:
        """Ownership (RFO) prefetch for a store in the window or the SB:
        get the line in M early so the SB drain write is an L1 hit.
        Returns False if dropped for lack of an MSHR (caller may retry)."""
        line = (addr & self._line_mask) if self._line_pow2 \
            else addr - (addr % self.line_bytes)
        if self.state.get(line) in (M, E) or line in self.txns:
            return True
        if len(self.txns) >= self.mshrs:
            return False  # prefetches never queue
        self._start_txn(GETM, line, lambda: None)
        return True

    def peek_state(self, addr: int) -> Optional[str]:
        line = (addr & self._line_mask) if self._line_pow2 \
            else addr - (addr % self.line_bytes)
        return self.state.get(line)

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------

    def _miss(self, kind: str, line: int, done: Callable[[], None]) -> None:
        txn = self.txns.get(line)
        if txn is not None:
            if kind == GETS or txn.kind == GETM:
                txn.callbacks.append(done)
            else:
                # A store needs M while only a GetS is in flight: wait for
                # the GetS to finish, then upgrade.
                self.txn_queue.append((kind, line, done))
            return
        if len(self.txns) >= self.mshrs:
            self.txn_queue.append((kind, line, done))
            return
        self._start_txn(kind, line, done)

    def _start_txn(self, kind: str, line: int,
                   done: Callable[[], None]) -> None:
        txn = _Txn(line=line, kind=kind, callbacks=[done])
        self.txns[line] = txn
        bank = self.system.bank_of(line)
        self.system.network.send_control(bank.request, kind, line,
                                         self.core_id)

    def _drain_queue(self) -> None:
        progressed = True
        while progressed and self.txn_queue and len(self.txns) < self.mshrs:
            progressed = False
            kind, line, done = self.txn_queue.popleft()
            existing = self.txns.get(line)
            if existing is not None:
                if kind == GETS or existing.kind == GETM:
                    existing.callbacks.append(done)
                    progressed = True
                    continue
                self.txn_queue.appendleft((kind, line, done))
                return
            if kind == GETM and self.state.get(line) in (M, E):
                # Became owner while queued (the earlier GetS was granted
                # E); the store can complete locally.
                self.state[line] = M
                latency = self.hierarchy.access_latency(line)
                self.system.engine.schedule(latency or 0, done)
                progressed = True
                continue
            self._start_txn(kind, line, done)
            progressed = True

    # ------------------------------------------------------------------
    # Protocol message handlers (arrive via the network)
    # ------------------------------------------------------------------

    def handle_grant(self, line: int, acks: int, with_data: bool,
                     state: str) -> None:
        txn = self.txns.get(line)
        if txn is None:  # pragma: no cover - defensive
            return
        txn.acks_needed = acks
        txn.granted_state = state
        if with_data:
            txn.data_got = True
        self._maybe_finish(txn)

    def handle_data(self, line: int) -> None:
        """Data supplied by a previous owner (GetS forward)."""
        txn = self.txns.get(line)
        if txn is None:  # pragma: no cover - defensive
            return
        txn.data_got = True
        self._maybe_finish(txn)

    def handle_inv_ack(self, line: int, with_data: bool) -> None:
        txn = self.txns.get(line)
        if txn is None:  # pragma: no cover - defensive
            return
        txn.acks_got += 1
        if with_data:
            txn.data_got = True
        self._maybe_finish(txn)

    def _maybe_finish(self, txn: _Txn) -> None:
        if not txn.complete():
            return
        line = txn.line
        del self.txns[line]
        self.txns_finished += 1
        self.state[line] = txn.granted_state
        if self._p_fill is not None:
            self._p_fill(self.core_id, self.system.engine.now, line)
        victim = self.hierarchy.fill(line)
        if victim is not None:
            self._evict(victim)
        latency = self.hierarchy.l1.config.hit_latency
        for callback in txn.callbacks:
            self.system.engine.schedule(latency, callback)
        bank = self.system.bank_of(line)
        self.system.network.send_control(bank.unblock, line)
        self._drain_queue()

    def handle_fwd_gets(self, line: int, requestor: int) -> None:
        """Owner receives a forwarded GetS: downgrade to S, send data."""
        if line in self.state:
            self.state[line] = S
        access = self.hierarchy.l2.config.hit_latency
        target = self.system.controllers[requestor]
        self.system.engine.schedule(
            access, self.system.network.send_data, target.handle_data, line)
        self.wb_buffer.discard(line)

    def handle_inv(self, line: int, requestor: int) -> None:
        """Invalidation on behalf of ``requestor``'s GetM/upgrade."""
        held_exclusive = (self.state.get(line) in (M, E)
                          or line in self.wb_buffer)
        present = self.hierarchy.invalidate(line)
        self.state.pop(line, None)
        self.wb_buffer.discard(line)
        if self._p_inval is not None:
            self._p_inval(self.core_id, self.system.engine.now, line,
                          requestor, present)
        if present and self.removal_listener is not None:
            self.removal_listener(line, "inval")
        target = self.system.controllers[requestor]
        if held_exclusive:
            self.system.network.send_data(target.handle_inv_ack, line, True)
        else:
            self.system.network.send_control(target.handle_inv_ack, line,
                                             False)

    def handle_putm_ack(self, line: int) -> None:
        self.wb_buffer.discard(line)

    # ------------------------------------------------------------------
    # Evictions
    # ------------------------------------------------------------------

    def force_evict(self, line: int) -> bool:
        """Fault injection: evict ``line`` from this private hierarchy
        as if capacity-pressured.  Returns False when the line is not
        held in a stable state (nothing to evict).  Goes through the
        normal eviction path: speculative loads squash, M/E lines write
        back, and the directory handles the silent loss exactly as it
        does for organic evictions."""
        if line not in self.state:
            return False
        self.hierarchy.invalidate(line)
        self._evict(line)
        return True

    def _evict(self, line: int) -> None:
        state = self.state.pop(line, None)
        self.system.stats_evictions += 1
        if self._p_evict is not None:
            self._p_evict(self.core_id, self.system.engine.now, line)
        if self.removal_listener is not None:
            self.removal_listener(line, "evict")
        if state in (M, E):
            self.wb_buffer.add(line)
            bank = self.system.bank_of(line)
            self.system.network.send_data(bank.request, PUTM, line,
                                          self.core_id)
        # S lines are dropped silently (the directory's sharer list goes
        # stale; a later Inv to this core is acked without effect).


class CoherentMemorySystem:
    """The full shared-memory system: directory banks + per-core
    controllers, glued together by the interconnect."""

    __slots__ = ("engine", "system_config", "config", "network",
                 "core_mshrs", "stats_invalidations", "stats_evictions",
                 "probe_bus", "banks", "controllers", "line_bytes")

    def __init__(self, engine: Engine, config: SystemConfig,
                 network: Optional[Network] = None,
                 probes=None) -> None:
        self.engine = engine
        self.system_config = config
        self.config: MemoryConfig = config.memory
        self.core_mshrs = config.core.mshrs
        self.stats_invalidations = 0
        self.stats_evictions = 0
        # Resolved by each PrivateController at construction and by the
        # Network; must be set before either is built.
        self.probe_bus = probes if probes is not None else NULL_BUS
        self.network = network or Network(engine, config.network,
                                          probes=self.probe_bus)
        self.banks = [DirectoryBank(self, i)
                      for i in range(self.config.l3_banks)]
        self.controllers = [PrivateController(self, i)
                            for i in range(config.cores)]
        self.line_bytes = self.config.l1.line_bytes

    def bank_of(self, line: int) -> DirectoryBank:
        return self.banks[(line // self.line_bytes) % len(self.banks)]

    def controller(self, core_id: int) -> PrivateController:
        return self.controllers[core_id]
