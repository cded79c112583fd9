"""Chrome trace-event / Perfetto JSON export.

Renders one observed run as a Trace Event Format object (the JSON
format accepted by ``chrome://tracing`` and https://ui.perfetto.dev):

* **pid = core id**, one process per core, named via ``M`` metadata;
* **instruction slices** ("X" complete events): one slice per dynamic
  incarnation from dispatch to retire (or to the squash cycle for
  killed incarnations), laid out greedily across ``insn-<lane>``
  threads so overlapping in-flight instructions never collide;
* **gate track** (``tid = 0``, thread name "gate"): one slice per
  gate-closed interval, named by the locking store-buffer key;
* **occupancy counters** ("C" events): ROB / LQ / SB depth and the
  gate bit from the periodic sampler;
* **squash instants** ("i" events) on the gate track;
* **leakage track** (``tid = 999``, thread name "leakage"), present
  only when a :class:`~repro.leakage.watcher.LeakReport` is supplied:
  one slice per confirmed transient leak spanning its speculation
  window (perform → squash), args carrying the taint provenance
  (originating secret-load seq, spec bits, squash reason), plus
  instant markers for exposed (never-squashed) candidates.

Cycles are emitted as microseconds (1 cycle = 1 us) — Perfetto needs a
time unit and the absolute scale is meaningless for a simulator, so the
"us" readings are really cycle counts.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.leakage.watcher import LeakReport
    from repro.obs.session import ObsReport
    from repro.sim.pipetrace import PipeTracer
    from repro.sim.system import System

#: tid of the per-core gate/squash track; instruction lanes start above.
GATE_TID = 0
_INSN_TID_BASE = 1
#: tid of the per-core leakage track — far above any instruction lane.
LEAK_TID = 999

_KIND_COLORS = {
    "load": "thread_state_running",
    "store": "thread_state_iowait",
    "alu": "thread_state_runnable",
    "fence": "thread_state_unknown",
}


def _assign_lanes(spans: List[tuple]) -> List[int]:
    """Greedy interval-graph coloring: each span ``(start, end)`` gets
    the lowest lane whose previous span has ended.  Spans must be
    sorted by start."""
    lane_free_at: List[int] = []
    lanes = []
    for start, end in spans:
        for lane, free_at in enumerate(lane_free_at):
            if free_at <= start:
                lane_free_at[lane] = end
                lanes.append(lane)
                break
        else:
            lane_free_at.append(end)
            lanes.append(len(lane_free_at) - 1)
    return lanes


def _core_instruction_events(core_id: int, tracer: "PipeTracer",
                             end_cycle: int) -> List[Dict]:
    events: List[Dict] = []
    drawable = []
    for record in tracer.records:
        if record.core_id != core_id or record.dispatched is None:
            continue
        if record.retired is not None:
            end = record.retired
        elif record.squashed is not None:
            end = record.squashed
        else:
            end = end_cycle
        # Zero-duration slices vanish in Perfetto; pad to one cycle.
        drawable.append((record, record.dispatched,
                         max(end, record.dispatched + 1)))

    drawable.sort(key=lambda item: (item[1], item[0].seq))
    lanes = _assign_lanes([(start, end) for _, start, end in drawable])
    max_lane = -1
    for (record, start, end), lane in zip(drawable, lanes):
        max_lane = max(max_lane, lane)
        name = f"{record.kind} #{record.seq}"
        if record.incarnation:
            name += f" (inc {record.incarnation})"
        args: Dict[str, object] = {
            "seq": record.seq,
            "incarnation": record.incarnation,
            "dispatched": record.dispatched,
            "issued": record.issued,
            "completed": record.completed,
            "retired": record.retired,
        }
        if record.slf:
            args["slf"] = True
        if record.gate_blocked_cycles:
            args["gate_blocked_cycles"] = record.gate_blocked_cycles
        if record.squashed is not None:
            args["squashed"] = record.squashed
            args["squash_reason"] = record.squash_reason
        event = {
            "name": name,
            "cat": "insn,squashed" if record.squashed is not None
                   else "insn",
            "ph": "X",
            "pid": core_id,
            "tid": _INSN_TID_BASE + lane,
            "ts": start,
            "dur": end - start,
            "args": args,
        }
        color = _KIND_COLORS.get(record.kind)
        if color and record.squashed is None:
            event["cname"] = color
        events.append(event)

    for lane in range(max_lane + 1):
        events.append({
            "name": "thread_name", "ph": "M", "pid": core_id,
            "tid": _INSN_TID_BASE + lane,
            "args": {"name": f"insn-{lane}"},
        })
    return events


def _core_gate_events(core_id: int, report: "ObsReport") -> List[Dict]:
    events: List[Dict] = [{
        "name": "thread_name", "ph": "M", "pid": core_id,
        "tid": GATE_TID, "args": {"name": "gate"},
    }]
    for interval in report.gate_intervals.get(core_id, ()):  # in order
        events.append({
            "name": f"gate closed (key=0x{interval.key:x})",
            "cat": "gate",
            "ph": "X",
            "pid": core_id,
            "tid": GATE_TID,
            "ts": interval.start,
            "dur": max(interval.cycles, 1),
            "cname": "terrible",
            "args": interval.to_dict(),
        })
    return events


def _core_counter_events(core_id: int,
                         report: "ObsReport") -> List[Dict]:
    events: List[Dict] = []
    for cycle, rob, lq, sb, closed in report.samples.get(core_id, ()):
        events.append({
            "name": "occupancy", "cat": "sample", "ph": "C",
            "pid": core_id, "tid": 0, "ts": cycle,
            "args": {"rob": rob, "lq": lq, "sb": sb},
        })
        events.append({
            "name": "gate_closed", "cat": "sample", "ph": "C",
            "pid": core_id, "tid": 0, "ts": cycle,
            "args": {"closed": closed},
        })
    return events


def _instant(name: str, cat: str, pid: int, tid: int, ts: int,
             args: Dict) -> Dict:
    """The one shape every thread-scoped instant marker uses (squash
    and leakage tracks both emit these)."""
    return {"name": name, "cat": cat, "ph": "i", "s": "t",
            "pid": pid, "tid": tid, "ts": ts, "args": args}


def _squash_instants(report: "ObsReport") -> List[Dict]:
    return [
        _instant(f"squash:{reason}", "squash", core_id, GATE_TID, cycle,
                 {"from_seq": from_seq, "flushed": flushed})
        for core_id, cycle, from_seq, reason, flushed
        in report.squash_events
    ]


def _leak_events(leak_report: "LeakReport") -> List[Dict]:
    """The leakage track: confirmed leaks as window-wide slices,
    exposed candidates as instants, named thread per leaking core."""
    events: List[Dict] = []
    cores = {c.core_id
             for c in leak_report.confirmed + leak_report.exposed}
    for core_id in sorted(cores):
        events.append({
            "name": "thread_name", "ph": "M", "pid": core_id,
            "tid": LEAK_TID, "args": {"name": "leakage"},
        })
    for leak in leak_report.confirmed:
        events.append({
            "name": f"leak line {leak.line} (secret #{leak.source})",
            "cat": "leak",
            "ph": "X",
            "pid": leak.core_id,
            "tid": LEAK_TID,
            "ts": leak.cycle,
            "dur": max(leak.window, 1),
            "cname": "terrible",
            "args": leak.to_dict(),
        })
        events.append(_instant(f"squashed:{leak.squash_reason}", "leak",
                               leak.core_id, LEAK_TID, leak.squash_cycle,
                               {"seq": leak.seq, "line": leak.line}))
    for leak in leak_report.exposed:
        events.append(_instant(f"exposed line {leak.line}", "leak",
                               leak.core_id, LEAK_TID, leak.cycle,
                               leak.to_dict()))
    return events


def build_chrome_trace(system: "System", report: "ObsReport",
                       stats=None, leak_report=None) -> Dict:
    """Assemble the Trace Event Format dict for one finished run.

    ``system`` supplies the cores; ``report`` supplies gate intervals,
    samples, squash events and, if the pipeline was traced, the
    :class:`PipeTracer` whose records become instruction slices;
    ``leak_report`` (optional) adds the per-core leakage track.
    """
    events: List[Dict] = []
    for core in system.cores:
        core_id = core.core_id
        events.append({
            "name": "process_name", "ph": "M", "pid": core_id,
            "tid": 0, "args": {"name": f"core {core_id}"},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": core_id,
            "tid": 0, "args": {"sort_index": core_id},
        })
        events.extend(_core_gate_events(core_id, report))
        if report.tracer is not None:
            events.extend(_core_instruction_events(
                core_id, report.tracer, report.end_cycle))
        events.extend(_core_counter_events(core_id, report))
    events.extend(_squash_instants(report))
    if leak_report is not None:
        events.extend(_leak_events(leak_report))

    metadata = {
        "policy": report.policy,
        "end_cycle": report.end_cycle,
        "gate_intervals": report.gate_interval_count(),
        "time-unit": "cycles (rendered as us)",
    }
    if stats is not None:
        total = stats.total
        metadata["retired"] = total.retired_instructions
        metadata["gate_closes"] = total.gate_closes
    if leak_report is not None:
        metadata["leaks"] = len(leak_report.confirmed)
        metadata["leaked_lines"] = leak_report.leaked_lines
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata,
    }


def write_chrome_trace(path, system: "System", report: "ObsReport",
                       stats=None, leak_report=None) -> Dict:
    """Build and write the trace JSON; returns the built dict."""
    trace = build_chrome_trace(system, report, stats, leak_report)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace
