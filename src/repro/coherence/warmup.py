"""Functional cache warm-up.

The paper measures "≈1 billion instructions after the warm up phase";
a short trace-driven run would otherwise spend its whole measurement
window compulsory-missing.  :func:`warm_from_traces` walks the traces
once *functionally* (no timing) and installs their working sets into the
private hierarchies, the L3 banks, and the directory — with correct LRU
recency and coherence states (a store leaves the line M at its core; a
line read by several cores ends up S everywhere).

Must run before the cores are constructed (no removal listeners fire
during warm-up).
"""

from __future__ import annotations

from typing import Sequence

from repro.coherence.mesi import E, GETM, GETS, M, S, CoherentMemorySystem
from repro.cpu.isa import LOAD, STORE, Trace


def _warm_evict(memory: CoherentMemorySystem, core_id: int,
                line: int) -> None:
    """Bookkeeping for a line that fell out of a private hierarchy."""
    ctrl = memory.controllers[core_id]
    state = ctrl.state.pop(line, None)
    bank = memory.bank_of(line)
    if state in (M, E):
        if bank.owner.get(line) == core_id:
            del bank.owner[line]
        bank.sharers.pop(line, None)
        bank.l3.insert(line)
    # S lines drop silently (stale sharer bits are harmless, as in the
    # live protocol).


def _install(memory: CoherentMemorySystem, core_id: int, line: int,
             state: str) -> None:
    ctrl = memory.controllers[core_id]
    ctrl.state[line] = state
    victim = ctrl.hierarchy.fill(line)
    if victim is not None:
        _warm_evict(memory, core_id, victim)


def warm_store(memory: CoherentMemorySystem, core_id: int,
               addr: int) -> None:
    """Install a line as if ``core_id`` had written it: M locally,
    invalid everywhere else, owned in the directory."""
    line = memory.controllers[core_id].line_of(addr)
    for other in memory.controllers:
        if other.core_id != core_id and line in other.state:
            other.hierarchy.invalidate(line)
            other.state.pop(line, None)
    bank = memory.bank_of(line)
    bank.owner[line] = core_id
    bank.sharers[line] = set()
    bank.l3.insert(line)
    _install(memory, core_id, line, M)


def warm_load(memory: CoherentMemorySystem, core_id: int,
              addr: int) -> None:
    """Install a line as if ``core_id`` had read it: E if nobody else
    holds it, otherwise S everywhere (downgrading a remote owner)."""
    ctrl = memory.controllers[core_id]
    line = ctrl.line_of(addr)
    if line in ctrl.state:
        ctrl.hierarchy.fill(line)  # refresh recency, no state change
        return
    bank = memory.bank_of(line)
    owner = bank.owner.get(line)
    sharers = bank.sharers.setdefault(line, set())
    if owner is not None and owner != core_id:
        memory.controllers[owner].state[line] = S
        sharers.add(owner)
        del bank.owner[line]
        bank.l3.insert(line)
        state = S
    elif sharers:
        state = S
    else:
        state = E
        bank.owner[line] = core_id
    sharers.add(core_id)
    bank.l3.insert(line)
    _install(memory, core_id, line, state)


def warm_from_traces(memory: CoherentMemorySystem,
                     traces: Sequence[Trace]) -> None:
    """Round-robin functional walk of all traces (one op per core per
    step, as a fair interleaving) installing every touched line.  It
    reads each trace's ``kinds`` and ``addrs`` columns."""
    columns = [(core_id, trace.kinds, trace.addrs)
               for core_id, trace in enumerate(traces)]
    longest = max(len(kinds) for _, kinds, _ in columns)
    for position in range(longest):
        for core_id, kinds, addrs in columns:
            if position >= len(kinds):
                continue
            kind = kinds[position]
            if kind == STORE:
                warm_store(memory, core_id, addrs[position])
            elif kind == LOAD:
                warm_load(memory, core_id, addrs[position])
