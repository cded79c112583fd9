"""Property-based tests of the memory-model engines.

The two independent implementations — the operational abstract machines
and the axiomatic happens-before engine — must agree on *every*
program; the model hierarchy SC ⊆ 370 ⊆ x86 must hold everywhere; and
the engine's two Kahn peels (the witness-building cycle finder and the
profile judge's bitmask peel) must agree with a plain DFS over the
transitive closure.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.litmus.operational import (M370, PC, SC, WMM, X86,
                                      enumerate_outcomes)
from repro.litmus.program import Fence, Ld, Program, St
from repro.models.axiomatic import (Edge, acyclic, find_cycle,
                                    outcome_profile)

ADDRESSES = ("x", "y")


@st.composite
def small_programs(draw, max_threads=2, max_ops=3, fences=False):
    n_threads = draw(st.integers(1, max_threads))
    value = [1]
    threads = []
    for tid in range(n_threads):
        n_ops = draw(st.integers(1, max_ops))
        ops = []
        regs = 0
        for _ in range(n_ops):
            choices = ["ld", "st"] + (["fence"] if fences else [])
            kind = draw(st.sampled_from(choices))
            addr = draw(st.sampled_from(ADDRESSES))
            if kind == "ld":
                ops.append(Ld(addr, f"r{regs}"))
                regs += 1
            elif kind == "st":
                ops.append(St(addr, value[0]))
                value[0] += 1
            else:
                ops.append(Fence())
        threads.append(tuple(ops))
    return Program(name="prop", threads=tuple(threads))


@settings(max_examples=60, deadline=None)
@given(small_programs(fences=True))
def test_operational_equals_axiomatic_all_models(program):
    """The abstract machine and the axiom system are two formalizations
    of the same four models — they must agree exactly."""
    profile = outcome_profile(program)
    assert set(profile) == {SC, M370, X86, WMM}
    for model, allowed in profile.items():
        assert enumerate_outcomes(program, model) == allowed, model


def _cyclic_by_closure(edges):
    """Reference: DFS each node's transitive successors; the relation
    is cyclic iff some node reaches itself."""
    succ = {}
    for edge in edges:
        succ.setdefault(edge.src, set()).add(edge.dst)
    for start in succ:
        seen, stack = set(), list(succ[start])
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
    return False


_NODES = st.tuples(st.integers(-1, 1), st.integers(0, 1))   # <= 6 events


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_NODES, _NODES, st.sampled_from(("po", "co"))),
                max_size=12))
def test_cycle_finder_agrees_with_closure_dfs(raw):
    edges = [Edge(src, dst, kind) for src, dst, kind in raw]
    cycle = find_cycle(edges)
    assert (cycle is None) == (not _cyclic_by_closure(edges))
    # The profile judge's peel, on the same edges packed as masks.
    bit = {node: index for index, node in enumerate(
        sorted({edge.src for edge in edges} | {edge.dst for edge in edges}))}
    stride = len(bit)
    relation = 0
    for edge in edges:
        relation |= 1 << (bit[edge.src] * stride + bit[edge.dst])
    assert acyclic(relation, (1 << stride) - 1, stride) == \
        (not _cyclic_by_closure(edges))
    if cycle is not None:
        assert all(edge in edges for edge in cycle)
        for first, second in zip(cycle, cycle[1:] + cycle[:1]):
            assert first.dst == second.src


@settings(max_examples=60, deadline=None)
@given(small_programs())
def test_model_hierarchy(program):
    """Relaxation only adds behaviours: SC ⊆ 370 ⊆ x86 ⊆ PC."""
    sc = enumerate_outcomes(program, SC)
    m370 = enumerate_outcomes(program, M370)
    x86 = enumerate_outcomes(program, X86)
    pc = enumerate_outcomes(program, PC)
    assert sc <= m370 <= x86 <= pc
    assert len(sc) >= 1


@settings(max_examples=60, deadline=None)
@given(small_programs(fences=True))
def test_hierarchy_holds_with_fences(program):
    sc = enumerate_outcomes(program, SC)
    m370 = enumerate_outcomes(program, M370)
    x86 = enumerate_outcomes(program, X86)
    assert sc <= m370 <= x86


@settings(max_examples=60, deadline=None)
@given(small_programs())
def test_370_equals_x86_without_forwarding_opportunity(program):
    """If no thread loads an address it also stores, store-to-load
    forwarding can never occur — and then x86 and the store-atomic 370
    are indistinguishable (the paper's §III: forwarding is the *only*
    source of the difference under a write-atomic memory system)."""
    for thread in program.threads:
        st_addrs = {op.addr for op in thread if isinstance(op, St)}
        ld_addrs = {op.addr for op in thread if isinstance(op, Ld)}
        if st_addrs & ld_addrs:
            return  # forwarding possible: models may differ
    assert enumerate_outcomes(program, M370) \
        == enumerate_outcomes(program, X86)


@settings(max_examples=60, deadline=None)
@given(small_programs())
def test_single_assignment_registers_and_final_memory(program):
    """Every outcome binds each register exactly once and reports a
    final value for every address."""
    addresses = set(program.addresses)
    n_loads = sum(1 for _ in program.loads())
    for model in (SC, M370, X86):
        for outcome in enumerate_outcomes(program, model):
            assert len(outcome.registers) == n_loads
            assert {addr for addr, _ in outcome.memory} == addresses


@settings(max_examples=40, deadline=None)
@given(small_programs(max_threads=1, max_ops=4))
def test_single_thread_is_sequential_in_every_model(program):
    """One thread, no races: every model yields exactly the sequential
    semantics (one outcome, loads see the latest program-order store)."""
    results = [enumerate_outcomes(program, model)
               for model in (SC, M370, X86)]
    assert results[0] == results[1] == results[2]
    assert len(results[0]) == 1
    (outcome,) = results[0]
    memory = {addr: program.initial_value(addr)
              for addr in program.addresses}
    for op in program.threads[0]:
        if isinstance(op, St):
            memory[op.addr] = op.value
        elif isinstance(op, Ld):
            assert outcome.reg(0, op.reg) == memory[op.addr]
    for addr, value in memory.items():
        assert outcome.mem(addr) == value
