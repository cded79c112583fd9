"""Synthetic trace generation calibrated to Table IV.

The generator emits micro-op traces whose *rates* match a benchmark
profile: share of loads, share of forwarded (SLF) loads, store/branch
mix, plus behavioural patterns (stack-frame forwarding idiom, streaming
stores, strided loads, shared-heap accesses, a contended hot line).
A simple deficit controller keeps each category on target, so even short
traces land close to the Table IV percentages.

Address space layout (all word-aligned, per core):

=================  ====================================================
stack              private, tiny, write-then-read (forwarding source)
heap               private, ``footprint_bytes`` working set
stream             private, cold lines written once (streaming stores)
shared heap        one region common to all cores (parallel suites)
hot line           one contended line common to all cores (x264 idiom)
=================  ====================================================
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.cpu.isa import ALU, BRANCH, LOAD, STORE, Trace
from repro.workloads.profiles import BenchmarkProfile

WORD = 8
LINE = 64

_STACK_BASE = 0x7F00_0000_0000
_HEAP_BASE = 0x1000_0000_0000
_STREAM_BASE = 0x2000_0000_0000
_SHARED_BASE = 0x5000_0000_0000
_HOT_LINE = 0x6000_0000_0000
_SHARED_BYTES = 256 * 1024
_CORE_STRIDE = 0x0010_0000_0000

# Stable synthetic PCs per code "site" so the StoreSet predictor and the
# stride prefetcher see recurring instructions.
_PC_FWD_STORE = 0x100
_PC_FWD_LOAD = 0x200
_PC_HEAP_LOAD = 0x300
_PC_STRIDE_LOAD = 0x400
_PC_SHARED_LOAD = 0x500
_PC_STORE = 0x600
_PC_STREAM_STORE = 0x700
_PC_BRANCH = 0x800
_N_SITES = 8
_ALU_LATENCIES = (1, 1, 1, 2, 3)


def _randbelow(getrandbits: Callable[[int], int]) -> Callable[[int], int]:
    """``randrange`` for one ``random.Random``, bound to its
    ``getrandbits``: a copy of CPython's
    ``Random._randbelow_with_getrandbits``, which ``randrange(n)`` calls
    for ``n >= 1``.  It draws exactly what ``randrange(n)`` draws,
    without the two Python frames in between.  Defined for ``n >= 1``
    only: ``n == 0`` would draw forever."""
    def randrange(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r
    return randrange


def _emitter(trace: Trace) -> Callable[[int, int, tuple, int, int, int],
                                       None]:
    """``emit(kind, addr, deps, latency, taken, pc)``: append one op's
    fields to ``trace``'s columns, each column's ``append`` bound once.
    A generated op never forces a mispredict and stores the value 0."""
    (kinds, addrs, deps_, latencies, mispredicts, taken_, pcs,
     values) = [column.append for column in trace.columns()]

    def emit(kind: int, addr: int, deps: tuple, latency: int, taken: int,
             pc: int) -> None:
        kinds(kind)
        addrs(addr)
        deps_(deps)
        latencies(latency)
        mispredicts(0)
        taken_(taken)
        pcs(pc)
        values(0)
    return emit


class _TraceBuilder:
    """Stateful generator for one core's trace.

    The order of the random draws is part of the stats contract: every
    pinned stats digest, and the generation pin in
    ``tests/integration/test_trace_pin.py``, depends on it.  The builder
    draws only through ``rng.random`` and ``self.randrange``, which
    makes the ``getrandbits`` draws ``rng.randrange(n)`` makes (see
    :func:`_randbelow`; every call site passes ``n >= 1``).  Where it
    stands in for ``randint``, ``choice`` or ``sample`` it makes the
    ``randrange`` calls those methods make, in the same order, so the
    stream is the one they would draw.
    """

    def __init__(self, profile: BenchmarkProfile, core_id: int,
                 rng: random.Random, stream_epoch: int = 0) -> None:
        self.profile = profile
        self.random = rng.random
        self.randrange = _randbelow(rng.getrandbits)
        self.trace = Trace()
        self.kinds = self.trace.kinds   # its length is the next op's index
        self.emit = _emitter(self.trace)
        self.recent: Deque[int] = deque(maxlen=8)   # recent producers
        self.n_loads = 0
        self.n_stores = 0
        self.n_forwarded = 0
        self.n_branches = 0
        self.stack_base = _STACK_BASE + core_id * _CORE_STRIDE
        self.heap_base = _HEAP_BASE + core_id * _CORE_STRIDE
        lo, hi = profile.fwd_filler
        if hi < lo:
            # rng.randrange raised on this empty range; _randbelow would
            # spin on it.
            raise ValueError(f"{profile.name}: fwd_filler {lo}..{hi} is "
                             f"an empty range")
        self.stack_words = profile.stack_bytes // WORD
        self.heap_words = max(1, profile.footprint_bytes // WORD)
        self.hot_words = max(1, self.heap_words // 8)
        self.stride_span = max(LINE, profile.footprint_bytes // _N_SITES)
        # Each epoch streams through fresh lines: a warm-up trace must
        # not pre-own the lines the measured trace will stream into.
        self.stream_ptr = (_STREAM_BASE + core_id * _CORE_STRIDE
                           + stream_epoch * (_CORE_STRIDE // 2))
        self.frame_off = 0
        self.stride_ptrs = [self.heap_base + i * 4096
                            for i in range(_N_SITES)]

    # -- address helpers -------------------------------------------------

    def _stack_addr(self) -> int:
        """A slot in the current 'call frame' (high reuse)."""
        slot = (self.frame_off + self.randrange(8)) % self.stack_words
        return self.stack_base + slot * WORD

    def _heap_addr(self) -> int:
        return self.heap_base + self.randrange(self.heap_words) * WORD

    def _heap_store_addr(self) -> int:
        """Stores have more temporal locality than loads (hot structure
        fields get rewritten): 80% land in a hot eighth of the heap."""
        words = self.hot_words if self.random() < 0.8 else self.heap_words
        return self.heap_base + self.randrange(words) * WORD

    def _shared_addr(self) -> int:
        return _SHARED_BASE + self.randrange(_SHARED_BYTES // WORD) * WORD

    def _strided_addr(self, site: int) -> int:
        addr = self.stride_ptrs[site]
        self.stride_ptrs[site] += WORD
        span = self.stride_span
        if self.stride_ptrs[site] >= self.heap_base + (site + 1) * span:
            self.stride_ptrs[site] = self.heap_base + site * span
        return addr

    def _stream_addr(self) -> int:
        self.stream_ptr += LINE  # a fresh line every time
        return self.stream_ptr

    # -- dependence helper -----------------------------------------------

    def _deps(self, prob: Optional[float] = None, count: int = 1) -> tuple:
        """With probability ``prob`` (default: the profile's), up to
        ``count`` (1 or 2) distinct recent producers; otherwise none.

        The picks are those of ``rng.sample(list(recent), k)`` with
        ``k = min(count, len(recent))``: for a population of at most 8,
        CPython's ``sample`` draws ``randrange(n)``, moves the pool's
        last element into the picked place, then draws
        ``randrange(n - 1)``."""
        recent = self.recent
        if not recent or self.random() >= (
                self.profile.ilp_dep_prob if prob is None else prob):
            return ()
        n = len(recent)
        first = self.randrange(n)
        if count == 1 or n == 1:
            return (recent[first],)
        second = self.randrange(n - 1)
        return (recent[first],
                recent[n - 1] if second == first else recent[second])

    # -- op emitters -------------------------------------------------------
    #
    # Each op is appended straight to the trace's columns (``emit``); its
    # index is ``len(kinds)`` before the append.  A producer joins
    # ``recent`` only after its own deps are drawn, so an op never
    # depends on itself.

    def emit_forward_pair(self) -> None:
        """The stack write-then-read idiom (argument passing): one or
        more stores to call-frame slots, a short "call", then loads of
        the same slots inside the callee.

        With several arguments the oldest load forwards from the oldest
        store while *younger* stores are still older than that load in
        program order — exactly the pattern where 370-SLFSpec (wait for
        the whole SB) and 370-SLFSoS (reopen on SB drain) pay more than
        370-SLFSoS-key (reopen when the forwarding store itself writes).
        """
        profile, kinds, recent = self.profile, self.kinds, self.recent
        emit, random, randrange = self.emit, self.random, self.randrange
        if (profile.contended_fraction
                and random() < profile.contended_fraction):
            addrs = [_HOT_LINE]  # the shared synchronization variable
            sites = [0]
        else:
            n_args = 1 + randrange(3)  # randint(1, 3)
            addrs, sites = [], []
            base_site = randrange(_N_SITES)
            for arg in range(n_args):
                addr = self._stack_addr()
                if addr in addrs:
                    continue
                addrs.append(addr)
                sites.append((base_site + arg) % _N_SITES)
        for addr, site in zip(addrs, sites):
            emit(STORE, addr, self._deps(0.6), 1, 1, _PC_FWD_STORE + site)
        lo, hi = profile.fwd_filler
        for _ in range(lo + randrange(hi - lo + 1)):  # randint(lo, hi)
            deps = self._deps()
            recent.append(len(kinds))
            emit(ALU, -1, deps, 1, 1, 0)
        for addr, site in zip(addrs, sites):
            recent.append(len(kinds))
            emit(LOAD, addr, (), 1, 1, _PC_FWD_LOAD + site)
        last_load = (len(kinds) - 1,)
        for _ in range(profile.store_burst):
            emit(STORE, self._stack_addr(), last_load, 1, 1,
                 _PC_STORE + randrange(_N_SITES))
        self.n_stores += len(addrs) + profile.store_burst
        self.n_loads += len(addrs)
        self.n_forwarded += len(addrs)
        if random() < 0.2:
            self.frame_off += 8  # "return": move to a fresh frame window

    def emit_load(self) -> None:
        profile = self.profile
        roll = self.random()
        if profile.shared_fraction and roll < profile.shared_fraction:
            addr, pc = self._shared_addr(), _PC_SHARED_LOAD
        elif roll < profile.shared_fraction + profile.strided_loads:
            site = self.randrange(_N_SITES)
            addr, pc = self._strided_addr(site), _PC_STRIDE_LOAD + site
        else:
            addr, pc = self._heap_addr(), _PC_HEAP_LOAD
        deps = self._deps(0.35)
        if pc == _PC_HEAP_LOAD:
            pc += self.randrange(_N_SITES)
        self.recent.append(len(self.kinds))
        self.emit(LOAD, addr, deps, 1, 1, pc)
        self.n_loads += 1

    def emit_store(self) -> None:
        profile = self.profile
        roll = self.random()
        if profile.streaming_stores and roll < profile.streaming_stores:
            addr, pc = self._stream_addr(), _PC_STREAM_STORE
        elif (profile.shared_fraction
              and roll < profile.streaming_stores + profile.shared_fraction):
            addr, pc = self._shared_addr(), _PC_STORE
        else:
            addr, pc = self._heap_store_addr(), _PC_STORE
        deps = self._deps(0.5)
        self.emit(STORE, addr, deps, 1, 1, pc + self.randrange(_N_SITES))
        self.n_stores += 1

    def emit_branch(self) -> None:
        """Two kinds of branch sites: loop back-edges (strongly biased,
        the TAGE predictor learns them) and data-dependent branches
        (coin flips, mispredicted ~half the time).  The profile's
        mispredict_rate sets the share of data-dependent sites so the
        *effective* mispredict rate lands near the target."""
        random = self.random
        data_dependent = random() < 2 * self.profile.mispredict_rate
        if data_dependent:
            taken = random() < 0.5
            pc = _PC_BRANCH + 16 + self.randrange(_N_SITES)
        else:
            taken = random() < 0.94  # loop back-edge bias
            pc = _PC_BRANCH + self.randrange(_N_SITES)
        self.emit(BRANCH, -1, self._deps(0.5), 1, taken, pc)
        self.n_branches += 1

    def emit_alu(self) -> None:
        deps = self._deps(count=2)
        # choice(_ALU_LATENCIES)
        latency = _ALU_LATENCIES[self.randrange(len(_ALU_LATENCIES))]
        self.recent.append(len(self.kinds))
        self.emit(ALU, -1, deps, latency, 1, 0)

    # -- the deficit controller -------------------------------------------

    def build(self, length: int) -> Trace:
        profile, kinds = self.profile, self.kinds
        fwd_target = profile.forwarded_pct / 100.0
        load_target = profile.loads_pct / 100.0
        store_target = profile.stores_pct / 100.0
        branch_target = profile.branch_pct / 100.0
        while len(kinds) < length:
            n = len(kinds) or 1
            if self.n_forwarded / n < fwd_target:
                self.emit_forward_pair()
            elif self.n_loads / n < load_target:
                self.emit_load()
            elif self.n_stores / n < store_target:
                self.emit_store()
            elif self.n_branches / n < branch_target:
                self.emit_branch()
            else:
                self.emit_alu()
        # Static store->load dependences (the forwarding sites): the core
        # pre-trains its StoreSet with these, as a warmed-up predictor
        # would be in the paper's post-warm-up measurement window.
        self.trace.memdep_hints = [
            (_PC_FWD_LOAD + site, _PC_FWD_STORE + site)
            for site in range(_N_SITES)]
        # The cells of a trace unit share the trace: seal it once valid.
        self.trace.validate()
        return self.trace.seal()


def generate_trace(profile: BenchmarkProfile, core_id: int = 0,
                   length: int = 10_000, seed: int = 0,
                   stream_epoch: int = 0) -> Trace:
    """Generate one core's trace for ``profile``."""
    rng = random.Random((seed * 1_000_003 + core_id * 7919
                         + stream_epoch * 0x5A5A5A) & 0xFFFFFFFF)
    return _TraceBuilder(profile, core_id, rng, stream_epoch).build(length)


def generate_workload(profile: BenchmarkProfile, cores: int = 8,
                      length_per_core: int = 10_000,
                      seed: int = 0, stream_epoch: int = 0) -> List[Trace]:
    """Per-core traces: ``cores`` traces for a parallel profile, a single
    trace for a sequential one."""
    n = 1 if profile.suite == "sequential" else cores
    return [generate_trace(profile, core_id, length_per_core, seed,
                           stream_epoch)
            for core_id in range(n)]


def generate_warmup(profile: BenchmarkProfile, cores: int = 8,
                    length_per_core: int = 10_000,
                    seed: int = 0) -> List[Trace]:
    """A warm-up workload drawn from the same distribution as
    :func:`generate_workload` but with different random picks and a
    disjoint streaming region — functionally walked before measurement
    (the paper's warm-up phase)."""
    return generate_workload(profile, cores, length_per_core,
                             seed=seed + 7_777_777, stream_epoch=1)
