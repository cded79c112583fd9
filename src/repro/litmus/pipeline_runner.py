"""Run litmus tests on the cycle-level pipeline — the conformance bridge.

The performance model carries a functional value layer: stores write a
global memory image at their memory-order insertion (the L1 write) and
loads bind values at perform time (or take them from the forwarding
store).  This module compiles a litmus :class:`~repro.litmus.program.
Program` into per-core micro-op traces, runs it under any of the five
consistency configurations, and extracts the architectural outcome —
so the *pipeline implementations* can be checked against the *abstract
models*:

* every outcome the ``x86`` pipeline produces must be allowed by the
  x86-TSO model;
* every outcome any ``370-*`` pipeline produces must be allowed by the
  store-atomic 370 model — this is the paper's correctness claim for
  the retire-gate mechanism, tested end to end;
* with enough timing perturbation the ``x86`` pipeline can *exhibit*
  the paper's non-store-atomic witnesses (n6, fig5), which no 370
  configuration ever does.

Timing perturbation: random ALU padding before and between the litmus
accesses varies the interleaving across seeds, playing the role of
litmus7's run-to-run variation on real hardware.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.cpu.isa import Trace, alu, fence, load, rmw, store
from repro.litmus.program import Fence, Ld, Outcome, Program, Rmw, St
from repro.sim.config import (CacheConfig, CoreConfig, MemoryConfig,
                              SystemConfig)
from repro.sim.system import System

#: A small, fast configuration for litmus runs (structure sizes stay
#: realistic; caches shrink so coherence traffic is exercised).
LITMUS_CONFIG = SystemConfig(
    cores=8,
    core=CoreConfig(rob_entries=64, lq_entries=24, sq_sb_entries=16,
                    mshrs=4, branch_predictor=False),
    memory=MemoryConfig(
        l1=CacheConfig(4 * 1024, 2, 4),
        l2=CacheConfig(16 * 1024, 4, 12),
        l3_bank=CacheConfig(64 * 1024, 8, 35),
        l3_banks=2,
        prefetcher=False,
    ),
)

_VAR_BASE = 0x10000
_VAR_STRIDE = 64  # one cache line per litmus variable
_MAX_PADDING = 24  # ALU/store padding ops before a thread's litmus accesses


def _address_map(program: Program) -> Dict[str, int]:
    return {addr: _VAR_BASE + i * _VAR_STRIDE
            for i, addr in enumerate(program.addresses)}


def compile_program(program: Program, seed: int = 0
                    ) -> Tuple[List[Trace], Dict[Tuple[int, int], int],
                               Dict[str, int]]:
    """Compile a litmus program to per-core traces.

    Returns (traces, load_map, address_map) where ``load_map`` maps
    (tid, op index) of each litmus load to its trace sequence number.
    Raises ``ValueError`` naming any op the pipeline cannot express
    (``cas``: the ISA has no conditional write).
    """
    rng = random.Random(seed)
    addresses = _address_map(program)
    traces: List[Trace] = []
    load_map: Dict[Tuple[int, int], int] = {}
    for tid, thread in enumerate(program.threads):
        trace = Trace()
        private = 0x900000 + tid * 0x100000  # invisible to the outcome
        for k in range(rng.randrange(_MAX_PADDING + 1)):
            if rng.random() < 0.35:
                # A cold private store: queues in the SQ/SB ahead of the
                # litmus stores, delaying their memory-order insertion —
                # the SB backlog real programs have, and the condition
                # that opens the window of vulnerability.
                trace.append(store(private + k * 64, pc=0x80 + tid))
            else:
                trace.append(alu(latency=rng.choice((1, 1, 2, 3))))
        for idx, op in enumerate(thread):
            if isinstance(op, St):
                trace.append(store(addresses[op.addr], value=op.value,
                                   pc=0x10 + idx))
            elif isinstance(op, Ld):
                seq = trace.append(load(addresses[op.addr], pc=0x20 + idx))
                load_map[(tid, idx)] = seq
            elif isinstance(op, Fence):
                trace.append(fence())
            elif isinstance(op, Rmw):
                seq = trace.append(rmw(addresses[op.addr], value=op.value,
                                       pc=0x30 + idx))
                load_map[(tid, idx)] = seq  # the old value it read
            else:
                raise ValueError(f"the pipeline cannot compile "
                                 f"{type(op).__name__} ({op}) in thread "
                                 f"{tid}")
            for _ in range(rng.randrange(4)):
                trace.append(alu(latency=rng.choice((1, 2))))
        trace.validate()
        traces.append(trace)
    return traces, load_map, addresses


def run_once(program: Program, policy: str, seed: int = 0,
             faults=None, watchdog=None,
             max_cycles: int = 2_000_000) -> Outcome:
    """One timed execution of the litmus test under ``policy``.

    ``faults`` is an optional :class:`repro.resilience.faults.FaultPlan`
    (single-use; make one per call) and ``watchdog`` an optional
    :class:`repro.resilience.invariants.Watchdog` — both are installed
    on the system before the run, which is how
    :func:`repro.models.conformance.check_pipelines` drives this
    function.
    """
    traces, load_map, addresses = compile_program(program, seed)
    initial = {addr_val: program.initial_value(name)
               for name, addr_val in addresses.items()}
    system = System(traces, policy, LITMUS_CONFIG,
                    warm_caches=False, initial_memory=initial,
                    faults=faults)
    if watchdog is not None:
        watchdog.install(system)
    system.run(max_cycles=max_cycles)
    registers = []
    for tid, thread in enumerate(program.threads):
        for idx, op in enumerate(thread):
            if isinstance(op, (Ld, Rmw)):
                seq = load_map[(tid, idx)]
                value = system.cores[tid].retired_load_values[seq]
                registers.append(((tid, op.reg), value))
    memory = tuple(sorted(
        (name, system.memory_data.get(addr_val,
                                      program.initial_value(name)))
        for name, addr_val in addresses.items()))
    return Outcome(registers=tuple(sorted(registers)), memory=memory)
