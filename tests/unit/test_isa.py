"""Unit tests for the micro-op ISA and traces."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.cpu import isa
from repro.cpu.isa import Op, Trace, alu, branch, fence, load, store
from repro.workloads import generate_workload, get_profile
from repro.workloads.tracefile import trace_from_dict, trace_to_dict


class TestOps:
    def test_constructors(self):
        ld = load(0x100, deps=(1, 2), pc=7)
        assert ld.kind == isa.LOAD and ld.addr == 0x100
        assert ld.deps == (1, 2) and ld.pc == 7
        st = store(0x200)
        assert st.kind == isa.STORE
        op = alu(latency=3)
        assert op.kind == isa.ALU and op.latency == 3
        br = branch(mispredict=True)
        assert br.kind == isa.BRANCH and br.mispredict
        assert fence().kind == isa.FENCE

    def test_memory_op_requires_address(self):
        with pytest.raises(ValueError):
            Op(isa.LOAD)
        with pytest.raises(ValueError):
            Op(isa.STORE, addr=-5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Op(99)

    def test_is_mem(self):
        assert load(0).is_mem and store(0).is_mem
        assert not alu().is_mem and not branch().is_mem

    def test_ops_are_frozen(self):
        with pytest.raises(Exception):
            load(0x100).addr = 0x200

    def test_handwritten_init_keeps_value_semantics(self):
        """``Op`` has the frozen dataclass's semantics: its ``__init__``
        takes the fields with their defaults, and equality, hashing,
        ``replace`` (which re-runs the checks), pickling and
        ``deepcopy`` are the dataclass's."""
        params = inspect.signature(Op).parameters
        assert list(params) == [f.name for f in dataclasses.fields(Op)]
        for f in dataclasses.fields(Op):
            assert params[f.name].default == (
                inspect.Parameter.empty if f.default is dataclasses.MISSING
                else f.default)
        op = Op(isa.STORE, 0x100, (1, 2), pc=7, value=9)
        twin = store(0x100, deps=[1, 2], pc=7, value=9)
        assert op == twin and hash(op) == hash(twin)
        assert op != store(0x108, deps=[1, 2], pc=7, value=9)
        moved = dataclasses.replace(op, addr=0x108)
        assert moved == store(0x108, deps=[1, 2], pc=7, value=9)
        assert op.addr == 0x100
        with pytest.raises(ValueError):
            dataclasses.replace(op, addr=-1)
        assert pickle.loads(pickle.dumps(op)) == op
        assert copy.deepcopy(op) == op


class TestTrace:
    def test_append_returns_index(self):
        trace = Trace()
        assert trace.append(alu()) == 0
        assert trace.append(alu()) == 1
        assert len(trace) == 2

    def test_validate_rejects_forward_deps(self):
        trace = Trace()
        trace.append(alu(deps=(0,)))  # self-dependence
        with pytest.raises(ValueError):
            trace.validate()

    def test_validate_rejects_future_deps(self):
        trace = Trace()
        trace.append(alu())
        trace.append(alu(deps=(5,)))
        with pytest.raises(ValueError):
            trace.validate()

    def test_validate_rejects_misaligned_addresses(self):
        trace = Trace()
        trace.append(load(0x103))
        with pytest.raises(ValueError):
            trace.validate()

    def test_from_ops_validates(self):
        trace = Trace.from_ops([alu(), alu(deps=(0,)), load(0x100,
                                                            deps=(1,))])
        assert len(trace) == 3
        with pytest.raises(ValueError):
            Trace.from_ops([alu(deps=(3,))])

    def test_getitem(self):
        """``trace[i]`` rebuilds an op equal to the one appended (the
        trace stores columns, not the op object)."""
        trace = Trace()
        op = alu()
        trace.append(op)
        assert trace[0] == op


def _full_op(kind):
    """An op of ``kind`` with every field off its default, the 64-bit
    columns at their limits, depending on op 0 of its trace."""
    return Op(kind, addr=0x1000 + 8 * kind, deps=(0,), latency=3 + kind,
              mispredict=True, taken=False, pc=(1 << 63) - 1 - kind,
              value=-(1 << 63) + kind)


class TestColumns:
    @pytest.mark.parametrize("kind", sorted(isa.KIND_NAMES),
                             ids=lambda kind: isa.KIND_NAMES[kind])
    def test_round_trip(self, kind):
        """Every field of every kind survives the columns, the trace
        file's records and sealing."""
        ops = [alu(), _full_op(kind)]
        trace = Trace(ops)
        assert trace.ops == ops
        assert trace[1] == ops[1] and trace[-1] == ops[1]
        assert trace_from_dict(trace_to_dict(trace)) == trace
        assert trace.seal().ops == ops
        assert trace_from_dict(trace_to_dict(trace)) == trace

    def test_append_refuses_what_a_column_cannot_hold(self):
        trace = Trace([alu()])
        for op in (load(1 << 63), store(8, value=-(1 << 63) - 1),
                   alu(pc=1.5)):
            with pytest.raises(ValueError, match="not a 64-bit integer"):
                trace.append(op)
        assert trace.ops == [alu()]  # a refused op left no field behind

    def test_validate_checks_what_op_checked(self):
        """The generators write the columns without building an ``Op``,
        so ``validate`` makes ``Op``'s checks: a known kind and a
        non-negative memory address."""
        trace = Trace([alu(), alu()])
        trace.kinds[1] = 99
        with pytest.raises(ValueError, match="op 1: unknown op kind 99"):
            trace.validate()
        trace.kinds[1] = isa.STORE
        with pytest.raises(ValueError, match="op 1: memory op requires"):
            trace.validate()
        trace.addrs[1] = 0x40
        trace.validate()

    def test_generated_trace_is_sealed(self):
        """A unit's cells share its traces: every generated column
        refuses writes, and so does the trace; only the hints stay
        assignable."""
        trace = generate_workload(get_profile("barnes"), 1, 50)[0]
        assert trace.sealed
        for column in trace.columns():
            with pytest.raises(TypeError):
                column[0] = column[1]
        with pytest.raises(TypeError):
            trace.append(alu())
        before = trace.ops
        trace.memdep_hints = []
        assert trace.ops == before and trace.memdep_hints == []
