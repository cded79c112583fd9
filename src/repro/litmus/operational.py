"""Operational memory-model executors with exhaustive enumeration.

Five abstract machines, each a thread-interleaved transition system:

* ``SC``  — no store buffer: a store writes memory immediately.
* ``370`` — FIFO store buffer, **no forwarding**: a load whose address
  matches an entry in its own store buffer is *not enabled* until the
  buffer drains past that entry (IBM 370 semantics: the store must be
  inserted in memory order before the load may read it).
* ``x86`` — FIFO store buffer **with store-to-load forwarding**: a load
  reads the youngest matching entry of its own buffer, else memory
  (the x86-TSO abstract machine of Sewell et al.).
* ``PC``  — Goodman's Processor Consistency (paper Table I's third
  row): **non-write-atomic**.  Each core has its own memory copy; a
  drained store reaches the other cores through per-destination FIFO
  channels, so remote cores may observe independent writers' stores in
  different orders (iriw becomes observable).  The paper excludes PC
  from its evaluation because its MESI protocol is write-atomic; the
  model is provided to complete the Table I taxonomy.
* ``WMM`` — Zhang et al.'s weak memory model (*Taming Weak Memory
  Models*): an I2E machine over a **monolithic memory** with
  out-of-order store buffers (st→st relaxes) and **invalidation
  buffers** holding overwritten values that loads may still read
  (ld→ld relaxes), subject to per-location coherence.  Loads execute
  in instruction order, so ld→st stays ordered and out-of-thin-air
  behaviours are impossible.  ``mfence`` commits the store buffer and
  reconciles (clears) the invalidation buffer; ``lwfence`` inserts a
  store-buffer barrier and reconciles without waiting for the drain;
  ``ld.acq`` reconciles after reading; ``st.rel`` orders all earlier
  stores before itself via a store-buffer barrier.

Atomic read-modify-writes (:class:`~repro.litmus.program.Rmw` /
:class:`~repro.litmus.program.Cas`, x86 locked instructions) drain the
store buffer and act on memory in one indivisible step; on PC they
additionally wait until every copy of the location has converged (a bus
lock) and update all copies at once, and on WMM they reconcile the
invalidation buffer (full fence semantics on both sides).

:func:`enumerate_outcomes` explores every interleaving (with state
memoization) and returns the complete set of reachable final outcomes —
a strict superset of what hardware sampling (litmus7 in the paper) can
exhibit, and exactly the model's allowed behaviours.  The per-model
transition systems are exposed uniformly through :func:`machine_for`
(initial state / successors / final outcome), which the sampler and the
model registry (:mod:`repro.models`) build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.litmus.program import (Cas, Fence, Ld, Outcome, Program, Rmw, St)

SC = "SC"
M370 = "370"
X86 = "x86"
PC = "PC"
WMM = "WMM"

MODELS = (SC, M370, X86, PC, WMM)

# State: (pcs, sbs, mem, regs)
#   pcs:  tuple[int, ...] per-thread program counter
#   sbs:  tuple[tuple[(addr, val), ...], ...] per-thread FIFO store buffer
#   mem:  tuple[(addr, val), ...] sorted
#   regs: tuple[((tid, reg), val), ...] sorted
_State = Tuple[tuple, tuple, tuple, tuple]


def _mem_write(mem: tuple, addr: str, value: int) -> tuple:
    return tuple(sorted({**dict(mem), addr: value}.items()))


def _mem_read(mem: tuple, addr: str) -> int:
    return dict(mem)[addr]


def _initial_state(program: Program) -> _State:
    pcs = (0,) * len(program.threads)
    sbs = ((),) * len(program.threads)
    mem = tuple(sorted((addr, program.initial_value(addr))
                       for addr in program.addresses))
    return pcs, sbs, mem, ()


def _successors(program: Program, model: str,
                state: _State) -> List[_State]:
    pcs, sbs, mem, regs = state
    out: List[_State] = []
    for tid, thread in enumerate(program.threads):
        sb = sbs[tid]
        # Transition 1: drain the oldest store-buffer entry to memory.
        if sb:
            addr, value = sb[0]
            new_sbs = sbs[:tid] + (sb[1:],) + sbs[tid + 1:]
            out.append((pcs, new_sbs, _mem_write(mem, addr, value), regs))
        # Transition 2: execute the next instruction, if enabled.
        pc = pcs[tid]
        if pc >= len(thread):
            continue
        op = thread[pc]
        new_pcs = pcs[:tid] + (pc + 1,) + pcs[tid + 1:]
        if isinstance(op, St):
            if model == SC:
                out.append((new_pcs, sbs, _mem_write(mem, op.addr, op.value),
                            regs))
            else:
                new_sbs = sbs[:tid] + (sb + ((op.addr, op.value),),) \
                    + sbs[tid + 1:]
                out.append((new_pcs, new_sbs, mem, regs))
        elif isinstance(op, Ld):
            matches = [value for addr, value in sb if addr == op.addr]
            if matches and model == M370:
                # Blocked: must wait for the matching store to be
                # inserted in memory order (drain transitions only).
                continue
            if matches and model == X86:
                value = matches[-1]  # youngest matching entry forwards
            else:
                value = _mem_read(mem, op.addr)
            new_regs = tuple(sorted(regs + (((tid, op.reg), value),)))
            out.append((new_pcs, sbs, mem, new_regs))
        elif isinstance(op, Fence):
            # lwfence orders ld->ld, ld->st and st->st, all of which the
            # TSO family already preserves: architecturally a no-op.
            if op.kind == "mf" and sb:
                continue  # enabled only once the buffer has drained
            out.append((new_pcs, sbs, mem, regs))
        elif isinstance(op, (Rmw, Cas)):
            if sb:
                continue  # locked instructions drain the SB first
            old = _mem_read(mem, op.addr)
            new_regs = tuple(sorted(regs + (((tid, op.reg), old),)))
            if isinstance(op, Cas) and old != op.expect:
                out.append((new_pcs, sbs, mem, new_regs))
            else:
                out.append((new_pcs, sbs,
                            _mem_write(mem, op.addr, op.value), new_regs))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction {op!r}")
    return out


# ----------------------------------------------------------------------
# The PC (Processor Consistency) machine: per-core memory copies with
# per-destination FIFO propagation channels.  Per-location coherence
# (a property PC keeps) is enforced by versioning: the drain order to a
# location is its coherence order, and a core ignores deliveries older
# than what its copy already holds.
# ----------------------------------------------------------------------

# PC state: (pcs, sbs, channels, mems, vers, regs)
#   channels: tuple[(src, dst)-indexed, tuple[(addr, val, ver), ...]]
#   mems:     tuple[per-core memory as sorted (addr, (val, ver)) tuples]
#   vers:     sorted (addr, drain-count) tuples (global version clocks)


def _pc_mem_read(mem: tuple, addr: str):
    return dict(mem)[addr]


def _pc_mem_write(mem: tuple, addr: str, value: int, version: int) -> tuple:
    current = dict(mem)
    if current[addr][1] < version:
        current[addr] = (value, version)
    return tuple(sorted(current.items()))


def _pc_initial_state(program: Program):
    n = len(program.threads)
    pcs = (0,) * n
    sbs = ((),) * n
    mem = tuple(sorted((addr, (program.initial_value(addr), 0))
                       for addr in program.addresses))
    mems = (mem,) * n
    channels = ((),) * (n * n)
    vers = tuple(sorted((addr, 0) for addr in program.addresses))
    return pcs, sbs, channels, mems, vers, ()


def _pc_successors(program: Program, state):
    pcs, sbs, channels, mems, vers, regs = state
    n = len(program.threads)
    out = []
    for tid, thread in enumerate(program.threads):
        sb = sbs[tid]
        # Drain own SB head: visible to self immediately, queued for
        # every other core, stamped with the location's next version.
        if sb:
            addr, value = sb[0]
            version = dict(vers)[addr] + 1
            new_vers = tuple(sorted({**dict(vers), addr: version}.items()))
            new_sbs = sbs[:tid] + (sb[1:],) + sbs[tid + 1:]
            new_mems = list(mems)
            new_mems[tid] = _pc_mem_write(mems[tid], addr, value, version)
            new_channels = list(channels)
            for dst in range(n):
                if dst != tid:
                    slot = tid * n + dst
                    new_channels[slot] = channels[slot] \
                        + ((addr, value, version),)
            out.append((pcs, new_sbs, tuple(new_channels),
                        tuple(new_mems), new_vers, regs))
        # Deliver one queued remote store to this core (older-than-held
        # versions are dropped: per-location coherence).
        for src in range(n):
            slot = src * n + tid
            channel = channels[slot]
            if channel:
                addr, value, version = channel[0]
                new_channels = list(channels)
                new_channels[slot] = channel[1:]
                new_mems = list(mems)
                new_mems[tid] = _pc_mem_write(mems[tid], addr, value,
                                              version)
                out.append((pcs, sbs, tuple(new_channels),
                            tuple(new_mems), vers, regs))
        # Execute the next instruction.
        pc = pcs[tid]
        if pc >= len(thread):
            continue
        op = thread[pc]
        new_pcs = pcs[:tid] + (pc + 1,) + pcs[tid + 1:]
        if isinstance(op, St):
            new_sbs = sbs[:tid] + (sb + ((op.addr, op.value),),) \
                + sbs[tid + 1:]
            out.append((new_pcs, new_sbs, channels, mems, vers, regs))
        elif isinstance(op, Ld):
            matches = [value for addr, value in sb if addr == op.addr]
            value = matches[-1] if matches \
                else _pc_mem_read(mems[tid], op.addr)[0]
            new_regs = tuple(sorted(regs + (((tid, op.reg), value),)))
            out.append((new_pcs, sbs, channels, mems, vers, new_regs))
        elif isinstance(op, Fence):
            if op.kind == "lw":
                # PC already preserves ld->ld, ld->st and st->st (FIFO
                # buffers and channels): architecturally a no-op.
                out.append((new_pcs, sbs, channels, mems, vers, regs))
                continue
            # Strong fence: own SB drained and all own stores delivered.
            outgoing = any(channels[tid * n + dst]
                           for dst in range(n) if dst != tid)
            if sb or outgoing:
                continue
            out.append((new_pcs, sbs, channels, mems, vers, regs))
        elif isinstance(op, (Rmw, Cas)):
            # A locked operation on a non-write-atomic machine is a bus
            # lock: it waits until its own buffers are flushed and every
            # copy of the location has converged (no in-flight delivery
            # anywhere mentions the address), then reads the agreed
            # value and updates all copies in one indivisible step.
            outgoing = any(channels[tid * n + dst]
                           for dst in range(n) if dst != tid)
            in_flight = any(entry[0] == op.addr
                            for channel in channels for entry in channel)
            if sb or outgoing or in_flight:
                continue
            old, version = _pc_mem_read(mems[tid], op.addr)
            new_regs = tuple(sorted(regs + (((tid, op.reg), old),)))
            if isinstance(op, Cas) and old != op.expect:
                out.append((new_pcs, sbs, channels, mems, vers, new_regs))
                continue
            new_version = dict(vers)[op.addr] + 1
            new_vers = tuple(sorted(
                {**dict(vers), op.addr: new_version}.items()))
            new_mems = tuple(
                _pc_mem_write(copy, op.addr, op.value, new_version)
                for copy in mems)
            out.append((new_pcs, sbs, channels, new_mems, new_vers,
                        new_regs))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction {op!r}")
    return out


# ----------------------------------------------------------------------
# The WMM machine (Zhang et al., "Taming Weak Memory Models"): one
# monolithic memory, out-of-order store buffers (same-address entries
# stay FIFO; lwfence / st.rel insert drain barriers), and per-thread
# invalidation buffers holding overwritten values that loads may still
# read — pruned on every read so per-location coherence holds.
# ----------------------------------------------------------------------

# WMM state: (pcs, sbs, mem, ibs, regs)
#   sbs:  per-thread tuple of *segments*; each segment is a tuple of
#         (addr, value) entries.  Only the first segment drains (any
#         entry with no older same-address entry in it); a barrier
#         (lwfence / st.rel) starts a new segment.
#   mem:  tuple[(addr, (value, version)), ...] sorted; the version
#         counts drains per location (its coherence order).
#   ibs:  per-thread tuple[(addr, ((value, version), ...)), ...] of
#         stale (overwritten) values still readable by that thread.


def _wmm_initial_state(program: Program):
    n = len(program.threads)
    mem = tuple(sorted((addr, (program.initial_value(addr), 0))
                       for addr in program.addresses))
    return (0,) * n, ((),) * n, mem, ((),) * n, ()


def _sb_has_entries(sb: tuple) -> bool:
    return any(segment for segment in sb)


def _sb_youngest(sb: tuple, addr: str):
    for segment in reversed(sb):
        for entry_addr, value in reversed(segment):
            if entry_addr == addr:
                return value
    return None


def _sb_push(sb: tuple, addr: str, value: int, barrier: bool) -> tuple:
    """Append a store; with ``barrier`` it starts a new segment so it
    cannot drain before any earlier entry."""
    if not sb:
        return (((addr, value),),)
    if barrier and sb[-1]:
        return sb + (((addr, value),),)
    return sb[:-1] + (sb[-1] + ((addr, value),),)


def _sb_normalize(sb: tuple) -> tuple:
    while len(sb) > 1 and not sb[0]:
        sb = sb[1:]
    if sb == ((),):
        return ()
    return sb


def _ib_get(ib: tuple, addr: str) -> tuple:
    for entry_addr, entries in ib:
        if entry_addr == addr:
            return entries
    return ()


def _ib_set(ib: tuple, addr: str, entries: tuple) -> tuple:
    rest = tuple((a, e) for a, e in ib if a != addr)
    if entries:
        rest += ((addr, entries),)
    return tuple(sorted(rest))


def _ib_prune(ib: tuple, addr: str, version: int) -> tuple:
    """Reading ``version`` of ``addr``: older stale values become
    unreadable (per-location coherence is monotone)."""
    kept = tuple(e for e in _ib_get(ib, addr) if e[1] >= version)
    return _ib_set(ib, addr, kept)


def _wmm_drain(state, tid: int, slot: int):
    """Drain entry ``slot`` of thread ``tid``'s first segment."""
    pcs, sbs, mem, ibs, regs = state
    segment = sbs[tid][0]
    addr, value = segment[slot]
    new_segment = segment[:slot] + segment[slot + 1:]
    new_sb = _sb_normalize((new_segment,) + sbs[tid][1:])
    old_value, old_version = dict(mem)[addr]
    new_mem = tuple(sorted(
        {**dict(mem), addr: (value, old_version + 1)}.items()))
    new_ibs = []
    for u, ib in enumerate(ibs):
        if u == tid:
            # Own drain: this thread must now read its store or newer.
            new_ibs.append(_ib_set(ib, addr, ()))
        else:
            new_ibs.append(_ib_set(
                ib, addr, _ib_get(ib, addr) + ((old_value, old_version),)))
    return (pcs, sbs[:tid] + (new_sb,) + sbs[tid + 1:], new_mem,
            tuple(new_ibs), regs)


def _wmm_successors(program: Program, state) -> List[tuple]:
    pcs, sbs, mem, ibs, regs = state
    out: List[tuple] = []
    for tid, thread in enumerate(program.threads):
        sb = sbs[tid]
        # Drain transitions: any first-segment entry with no older
        # same-address entry (same-address stores stay FIFO; different
        # addresses commit out of order — the st->st relaxation).
        if sb and sb[0]:
            seen_addrs: Set[str] = set()
            for slot, (addr, _value) in enumerate(sb[0]):
                if addr not in seen_addrs:
                    out.append(_wmm_drain(state, tid, slot))
                    seen_addrs.add(addr)
        pc = pcs[tid]
        if pc >= len(thread):
            continue
        op = thread[pc]
        new_pcs = pcs[:tid] + (pc + 1,) + pcs[tid + 1:]
        ib = ibs[tid]
        if isinstance(op, St):
            new_sb = _sb_push(sb, op.addr, op.value, barrier=op.release)
            out.append((new_pcs, sbs[:tid] + (new_sb,) + sbs[tid + 1:],
                        mem, ibs, regs))
        elif isinstance(op, Ld):
            forwarded = _sb_youngest(sb, op.addr)
            if forwarded is not None:
                choices = [(forwarded, None)]
            else:
                mem_value, mem_version = dict(mem)[op.addr]
                choices = [(mem_value, mem_version)]
                choices += [(value, version)
                            for value, version in _ib_get(ib, op.addr)]
            for value, version in choices:
                new_ib = ib if version is None \
                    else _ib_prune(ib, op.addr, version)
                if op.acquire:
                    new_ib = ()   # reconcile: later loads read fresh
                new_regs = tuple(sorted(regs + (((tid, op.reg), value),)))
                out.append((new_pcs, sbs, mem,
                            ibs[:tid] + (new_ib,) + ibs[tid + 1:],
                            new_regs))
        elif isinstance(op, Fence):
            if op.kind == "mf":
                if _sb_has_entries(sb):
                    continue   # commit: enabled once the buffer drained
                new_sbs = sbs
            else:
                new_sb = sb + ((),) if sb and sb[-1] else sb
                new_sbs = sbs[:tid] + (new_sb,) + sbs[tid + 1:]
            out.append((new_pcs, new_sbs, mem,
                        ibs[:tid] + ((),) + ibs[tid + 1:], regs))
        elif isinstance(op, (Rmw, Cas)):
            if _sb_has_entries(sb):
                continue       # locked: commit the store buffer first
            old_value, old_version = dict(mem)[op.addr]
            new_regs = tuple(sorted(regs + (((tid, op.reg), old_value),)))
            new_ibs = ibs[:tid] + ((),) + ibs[tid + 1:]   # reconcile
            if isinstance(op, Cas) and old_value != op.expect:
                out.append((new_pcs, sbs, mem, new_ibs, new_regs))
                continue
            new_mem = tuple(sorted(
                {**dict(mem), op.addr: (op.value, old_version + 1)}
                .items()))
            stale = []
            for u, other_ib in enumerate(new_ibs):
                if u == tid:
                    stale.append(other_ib)
                else:
                    stale.append(_ib_set(
                        other_ib, op.addr,
                        _ib_get(other_ib, op.addr)
                        + ((old_value, old_version),)))
            out.append((new_pcs, sbs, new_mem, tuple(stale), new_regs))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction {op!r}")
    return out


# ----------------------------------------------------------------------
# The uniform machine protocol: initial state, successors, and final
# outcome extraction per model — what the enumerator, the sampler and
# the model registry (repro.models) all build on.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Machine:
    """One model's transition system over one program."""

    model: str
    initial: Callable[[], tuple]
    successors: Callable[[tuple], List[tuple]]
    final_outcome: Callable[[tuple], Optional[Outcome]]


def machine_for(program: Program, model: str) -> Machine:
    """The operational machine of ``model`` instantiated on ``program``."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    lengths = tuple(len(t) for t in program.threads)
    if model == PC:
        def pc_final(state):
            pcs, sbs, channels, mems, _vers, regs = state
            if (pcs == lengths and all(not sb for sb in sbs)
                    and all(not ch for ch in channels)):
                # Versioned delivery guarantees all copies converged.
                memory = tuple(sorted((addr, value)
                                      for addr, (value, _) in mems[0]))
                return Outcome(registers=regs, memory=memory)
            return None

        return Machine(model=model,
                       initial=lambda: _pc_initial_state(program),
                       successors=lambda s: _pc_successors(program, s),
                       final_outcome=pc_final)
    if model == WMM:
        def wmm_final(state):
            pcs, sbs, mem, _ibs, regs = state
            if pcs == lengths and not any(map(_sb_has_entries, sbs)):
                memory = tuple(sorted((addr, value)
                                      for addr, (value, _) in mem))
                return Outcome(registers=regs, memory=memory)
            return None

        return Machine(model=model,
                       initial=lambda: _wmm_initial_state(program),
                       successors=lambda s: _wmm_successors(program, s),
                       final_outcome=wmm_final)

    def tso_final(state):
        pcs, sbs, mem, regs = state
        if pcs == lengths and all(not sb for sb in sbs):
            return Outcome(registers=regs, memory=mem)
        return None

    return Machine(model=model,
                   initial=lambda: _initial_state(program),
                   successors=lambda s: _successors(program, model, s),
                   final_outcome=tso_final)


def enumerate_outcomes(program: Program, model: str) -> FrozenSet[Outcome]:
    """All reachable final outcomes of ``program`` under ``model``."""
    machine = machine_for(program, model)
    start = machine.initial()
    seen = {start}
    stack = [start]
    outcomes: Set[Outcome] = set()
    while stack:
        state = stack.pop()
        outcome = machine.final_outcome(state)
        if outcome is not None:
            outcomes.add(outcome)
            continue
        for nxt in machine.successors(state):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(outcomes)


def allows(program: Program, model: str, **conditions: int) -> bool:
    """True if some outcome satisfies all ``reg`` / ``mem`` conditions.

    Conditions use keys like ``r0_rx`` (thread 0, register ``rx``) and
    ``mem_x`` (final value of location ``x``)::

        allows(MP, "x86", r1_rx=1, r1_ry=0)
    """
    return any(_matches(outcome, conditions)
               for outcome in enumerate_outcomes(program, model))


def matching_outcomes(program: Program, model: str,
                      **conditions: int) -> FrozenSet[Outcome]:
    """The outcomes that satisfy the given conditions."""
    return frozenset(o for o in enumerate_outcomes(program, model)
                     if _matches(o, conditions))


def _matches(outcome: Outcome, conditions: Dict[str, int]) -> bool:
    for key, expected in conditions.items():
        if key.startswith("mem_"):
            if outcome.mem(key[4:]) != expected:
                return False
        elif key.startswith("r") and "_" in key:
            tid_str, reg = key[1:].split("_", 1)
            if outcome.reg(int(tid_str), reg) != expected:
                return False
        else:
            raise ValueError(f"bad condition key {key!r}")
    return True
