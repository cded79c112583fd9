"""Unit tests for the micro-op ISA and traces."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.cpu import isa
from repro.cpu.isa import Op, Trace, alu, branch, fence, load, store


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
        """``Op.__init__`` is written by hand; equality, hashing,
        ``replace``, pickling and the field defaults are the
        dataclass's."""
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
        trace = Trace()
        op = alu()
        trace.append(op)
        assert trace[0] is op
