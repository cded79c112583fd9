"""Trace serialization: save and replay micro-op workloads.

A workload (one trace per core plus its warm-up) is stored as a single
JSON document, so experiments can be archived, diffed, and replayed
bit-identically — useful for regression-pinning a measured result or
shipping a failing case.

Format (version 1)::

    {
      "format": "repro-trace",
      "version": 1,
      "meta": {...},                      # free-form provenance
      "cores": [
        {"memdep_hints": [[lpc, spc]...],
         "ops": [[kind, addr, deps, latency, mispredict, taken, pc,
                  value], ...]},
        ...
      ],
      "warmup": [ ...same shape... ]      # optional
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.cpu.isa import Op, Trace

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1


class TraceFileError(ValueError):
    """Malformed trace file."""


def _append_record(trace: Trace, fields: list, index: int) -> None:
    """Append op record ``index`` to ``trace``'s columns;
    :class:`TraceFileError` names the record if it is malformed or a
    field does not fit its column."""
    try:
        kind, addr, deps, latency, mispredict, taken, pc, value = fields
        deps = tuple(deps)
        if not all(type(n) is int
                   for n in (kind, addr, latency, pc, value, *deps)):
            raise TypeError("kind, addr, deps, latency, pc and value "
                            "must be integers")
        trace.append(Op(kind=kind, addr=addr, deps=deps, latency=latency,
                        mispredict=bool(mispredict), taken=bool(taken),
                        pc=pc, value=value))
    except (ValueError, TypeError) as exc:
        raise TraceFileError(f"bad op record at index {index}: {exc}") \
            from None


def _hint_from_list(pair: list, index: int) -> tuple:
    if not (isinstance(pair, list) and len(pair) == 2
            and all(type(pc) is int for pc in pair)):
        raise TraceFileError(
            f"memdep hint {index} is not a pair of integers")
    return tuple(pair)


def trace_to_dict(trace: Trace) -> dict:
    """One core entry, read from ``trace``'s columns (a flag is 0 or
    1)."""
    return {
        "memdep_hints": [list(pair) for pair in trace.memdep_hints],
        "ops": [[kind, addr, list(deps), *rest]
                for kind, addr, deps, *rest in zip(*trace.columns())],
    }


def trace_from_dict(data: dict) -> Trace:
    """The trace of one core entry; :class:`TraceFileError` names the
    op or hint at fault."""
    if not isinstance(data, dict):
        raise TraceFileError("not an object")
    records = _list(data, "ops")
    hints = _list(data, "memdep_hints")
    trace = Trace()
    for i, fields in enumerate(records):
        _append_record(trace, fields, i)
    trace.memdep_hints = [_hint_from_list(pair, i)
                          for i, pair in enumerate(hints)]
    try:
        trace.validate()
    except ValueError as exc:
        raise TraceFileError(str(exc)) from None
    return trace


def _list(document: dict, key: str) -> list:
    """``document[key]`` (empty when absent), which must be a list."""
    value = document.get(key, [])
    if not isinstance(value, list):
        raise TraceFileError(f"{key!r} is not a list")
    return value


def _traces(document: dict, key: str) -> List[Trace]:
    """The traces of ``document[key]``; an error names the core entry
    at fault, e.g. ``cores[2]: op 5 depends on 9, not an older op``."""
    traces = []
    for core, data in enumerate(_list(document, key)):
        try:
            traces.append(trace_from_dict(data))
        except TraceFileError as exc:
            raise TraceFileError(f"{key}[{core}]: {exc}") from None
    return traces


def save_workload(path: Union[str, Path], traces: Sequence[Trace],
                  warmup: Optional[Sequence[Trace]] = None,
                  meta: Optional[Dict[str, object]] = None) -> None:
    """Write a workload (and optionally its warm-up) to ``path``."""
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": dict(meta or {}),
        "cores": [trace_to_dict(trace) for trace in traces],
    }
    if warmup is not None:
        document["warmup"] = [trace_to_dict(trace) for trace in warmup]
    Path(path).write_text(json.dumps(document, separators=(",", ":")),
                          encoding="utf-8")


def load_workload(path: Union[str, Path]
                  ) -> tuple:
    """Read (traces, warmup_or_None, meta) from ``path``.

    A file that is not a well-formed repro-trace document raises
    :class:`TraceFileError`, which names the core entry and the op or
    hint at fault."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TraceFileError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict) \
            or document.get("format") != FORMAT_NAME:
        raise TraceFileError("not a repro-trace file")
    if document.get("version") != FORMAT_VERSION:
        raise TraceFileError(
            f"unsupported version {document.get('version')!r}")
    traces = _traces(document, "cores")
    if not traces:
        raise TraceFileError("workload has no cores")
    warmup = _traces(document, "warmup") if "warmup" in document else None
    if warmup is not None and len(warmup) > len(traces):
        raise TraceFileError(f"{len(warmup)} warm-up traces for "
                             f"{len(traces)} cores")
    meta = document.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceFileError("'meta' is not an object")
    return traces, warmup, meta
