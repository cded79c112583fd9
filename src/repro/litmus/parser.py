"""Text format for litmus tests (a simplified litmus7 dialect).

Example::

    name: my-mp
    init: x=0 y=0

    T0:
      ld x -> rx
      ld y -> ry

    T1:
      st y,1
      mfence
      st x,1

    exists: r0_rx=1 r0_ry=0

Instructions:

==============================  =======================================
``ld ADDR -> REG``              load ADDR into REG
``ld.acq ADDR -> REG``          acquire load (orders later accesses)
``st ADDR,VALUE``               store VALUE to ADDR
``st.rel ADDR,VALUE``           release store (orders earlier accesses)
``mfence``                      full fence (drains the store buffer)
``lwfence``                     lightweight fence (all orders but st→ld)
``xchg ADDR,VALUE -> REG``      atomic exchange (locked RMW)
``cas ADDR,EXPECT,VALUE -> REG``  compare-and-swap (locked; writes only
                                when the old value equals EXPECT)
==============================  =======================================

The optional ``exists:`` clause names the witness condition in the same
``key=value`` syntax the :func:`repro.litmus.operational.allows` API
uses (``rT_REG`` for registers, ``mem_ADDR`` for final memory), checked
against the program by :func:`parse_witness`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.litmus.program import (READS, Cas, Fence, Instruction, Ld,
                                  Program, Rmw, St, make_program)


class LitmusParseError(ValueError):
    """Malformed litmus source text."""


_NAME_RE = re.compile(r"^name:\s*(\S+)\s*$")
_INIT_RE = re.compile(r"^init:\s*(.*)$")
_THREAD_RE = re.compile(r"^T(\d+):\s*$")
_EXISTS_RE = re.compile(r"^exists:\s*(.*)$")
_LD_RE = re.compile(r"^ld(\.acq)?\s+(\w+)\s*->\s*(\w+)$")
_ST_RE = re.compile(r"^st(\.rel)?\s+(\w+)\s*,\s*(-?\d+)$")
_FENCE_RE = re.compile(r"^(m|lw)fence$")
_XCHG_RE = re.compile(r"^xchg\s+(\w+)\s*,\s*(-?\d+)\s*->\s*(\w+)$")
_CAS_RE = re.compile(
    r"^cas\s+(\w+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*->\s*(\w+)$")


@dataclass(frozen=True)
class ParsedLitmus:
    """A parsed litmus file: the program plus its witness, if any."""

    program: Program
    witness: Optional[Dict[str, int]]


def _parse_instruction(line: str, line_no: int) -> Instruction:
    match = _LD_RE.match(line)
    if match:
        return Ld(match.group(2), match.group(3),
                  acquire=bool(match.group(1)))
    match = _ST_RE.match(line)
    if match:
        return St(match.group(2), int(match.group(3)),
                  release=bool(match.group(1)))
    match = _FENCE_RE.match(line)
    if match:
        return Fence("mf" if match.group(1) == "m" else "lw")
    match = _XCHG_RE.match(line)
    if match:
        return Rmw(match.group(1), int(match.group(2)), match.group(3))
    match = _CAS_RE.match(line)
    if match:
        return Cas(match.group(1), int(match.group(2)),
                   int(match.group(3)), match.group(4))
    raise LitmusParseError(f"line {line_no}: cannot parse {line!r}")


def _parse_conditions(tokens: Sequence[str]) -> Dict[str, int]:
    conditions: Dict[str, int] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"condition {token!r} is not key=value")
        try:
            conditions[key] = int(value)
        except ValueError:
            raise ValueError(f"condition {token!r}: {value!r} is not an "
                             f"integer") from None
    return conditions


def parse_witness(program: Program,
                  tokens: Sequence[str]) -> Dict[str, int]:
    """Witness ``key=value`` tokens as a condition dict, each value an
    integer and each key a register some op of thread T writes
    (``rT_REG``) or a location the program uses (``mem_ADDR``): the
    check behind ``exists:`` and ``repro explain -w``.  Raises
    ValueError naming the first bad token."""
    conditions = _parse_conditions(tokens)
    known = {f"mem_{addr}" for addr in program.addresses}
    known.update(f"r{tid}_{op.reg}"
                 for tid, thread in enumerate(program.threads)
                 for op in thread if isinstance(op, READS))
    for key in conditions:
        if key not in known:
            raise ValueError(f"condition {key!r}: {program.name} has no "
                             f"such register or location")
    return conditions


def _on_line(line_no: int, parse, *args):
    """``parse(*args)``, a ValueError re-raised naming the line."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise LitmusParseError(f"line {line_no}: {exc}") from None


def parse_litmus(source: str) -> ParsedLitmus:
    """Parse litmus source text into a program + optional witness."""
    name = "unnamed"
    initial: Dict[str, int] = {}
    threads: Dict[int, List[Instruction]] = {}
    exists: Optional[Tuple[int, List[str]]] = None   # (line, tokens)
    current: Optional[int] = None

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _NAME_RE.match(line)
        if match:
            name = match.group(1)
            continue
        match = _INIT_RE.match(line)
        if match:
            initial.update(_on_line(line_no, _parse_conditions,
                                    match.group(1).split()))
            continue
        match = _THREAD_RE.match(line)
        if match:
            current = int(match.group(1))
            if current in threads:
                raise LitmusParseError(
                    f"line {line_no}: thread T{current} defined twice")
            threads[current] = []
            continue
        match = _EXISTS_RE.match(line)
        if match:
            exists = line_no, match.group(1).split()
            continue
        if current is None:
            raise LitmusParseError(
                f"line {line_no}: instruction outside a thread block")
        threads[current].append(_parse_instruction(line, line_no))

    if not threads:
        raise LitmusParseError("no threads defined")
    expected = list(range(len(threads)))
    if sorted(threads) != expected:
        raise LitmusParseError(
            f"thread ids must be contiguous from T0; got "
            f"{sorted('T%d' % t for t in threads)}")
    program = make_program(
        name, [threads[tid] for tid in expected], initial)
    witness = (None if exists is None
               else _on_line(exists[0], parse_witness, program, exists[1]))
    return ParsedLitmus(program=program, witness=witness)


def parse_litmus_file(path: str) -> ParsedLitmus:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_litmus(handle.read())


def render_litmus(program: Program,
                  witness: Optional[Dict[str, int]] = None) -> str:
    """The inverse of :func:`parse_litmus` (round-trippable)."""
    lines = [f"name: {program.name}"]
    if program.initial:
        lines.append("init: " + " ".join(
            f"{addr}={value}" for addr, value in program.initial))
    for tid, thread in enumerate(program.threads):
        lines.append("")
        lines.append(f"T{tid}:")
        for op in thread:
            lines.append(f"  {op}")
    if witness:
        lines.append("")
        lines.append("exists: " + " ".join(
            f"{key}={value}" for key, value in sorted(witness.items())))
    return "\n".join(lines) + "\n"
