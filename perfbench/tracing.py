"""The traced run's instruments: in-memory spans, hooks on the program's
public entry points, and a sampling profiler for self time per package.

Spans stay in memory and are written once, at the end, as a Chrome-trace
JSON file that Perfetto loads.  Nothing here is active during the
untraced runs that give the end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


class Recorder:
    """Spans with a name, start, end, parent and the id of the cell or
    job they belong to; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.t0 = time.perf_counter()
        self.cell: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(s["name"] == name for s in self._stack())

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[int] = None, **args):
        """Record the enclosed block; ``cell`` overrides the recorder's
        current cell id (client threads pass their job's id)."""
        stack = self._stack()
        record = {"id": next(self._ids), "name": name,
                  "parent": stack[-1]["id"] if stack else None,
                  "cell": self.cell if cell is None else cell,
                  "tid": threading.get_ident(),
                  "start": time.perf_counter(), "end": None,
                  "args": dict(args)}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def named(self, name: str, outside: Optional[str] = None) -> List[Dict]:
        """Finished spans called ``name``, optionally skipping those with
        an ancestor called ``outside``."""
        spans = [s for s in self.spans if s["name"] == name]
        if outside is None:
            return spans
        by_id = {s["id"]: s for s in self.spans}
        kept = []
        for span in spans:
            parent = by_id.get(span["parent"])
            while parent is not None and parent["name"] != outside:
                parent = by_id.get(parent["parent"])
            if parent is None:
                kept.append(span)
        return kept

    def total(self, name: str, outside: Optional[str] = None) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, outside))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def arg_sum(self, name: str, key: str) -> float:
        return sum(s["args"].get(key, 0) for s in self.named(name))

    def write_chrome(self, path: str, other: Dict) -> None:
        """Write every span as a Chrome-trace complete ("X") event."""
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: (s["start"], s["id"])):
            tid = tids.setdefault(span["tid"], len(tids) + 1)
            args = {"span_id": span["id"], "parent": span["parent"],
                    "cell": span["cell"]}
            args.update(span["args"])
            events.append({
                "name": span["name"], "cat": span["name"].split(".")[0],
                "ph": "X", "pid": 1, "tid": tid,
                "ts": round((span["start"] - self.t0) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "args": args})
        for tid in tids.values():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid,
                           "args": {"name": f"bench thread {tid}"}})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": other}, out)


# ----------------------------------------------------------------------
# entry-point hooks
# ----------------------------------------------------------------------

def _traces_args(_args, result, _state) -> Dict:
    return {"instructions": sum(len(trace) for trace in result)}


def _run_state(args) -> int:
    return args[0].engine.events_dispatched


def _run_args(args, stats, before) -> Dict:
    return {"events": args[0].engine.events_dispatched - before,
            "cycles": stats.execution_cycles,
            "instr": stats.total.retired_instructions}


def _synth_args(_args, result, _state) -> Dict:
    return {"enumerated": result.enumerated, "judged": result.judged}


#: (module, attribute, span name, state-before-call, args-after-call).
#: ``Class.method`` attributes are patched on the class.
HOOKS = (
    ("repro.workloads.synthetic", "generate_workload",
     "workloads.generate_workload", None, _traces_args),
    ("repro.workloads.synthetic", "generate_warmup",
     "workloads.generate_warmup", None, _traces_args),
    ("repro.coherence.warmup", "warm_from_traces",
     "coherence.warm_from_traces", None, None),
    ("repro.sim.system", "System.__init__", "sim.build", None, None),
    ("repro.sim.system", "System.run", "sim.run", _run_state, _run_args),
    ("repro.snapshot", "capture", "snapshot.capture", None, None),
    ("repro.snapshot", "fork", "snapshot.fork", None, None),
    ("repro.sweep.runner", "job_key", "sweep.job_key", None, None),
    ("repro.sweep.cache", "ResultCache.get", "sweep.cache_get", None, None),
    ("repro.sweep.cache", "ResultCache.put", "sweep.cache_put", None, None),
    ("repro.serve.jobs", "execute_litmus", "litmus.execute_litmus",
     None, None),
    ("repro.synth.search", "search", "synth.search", None, _synth_args),
)


class Hooks:
    """Wraps the named entry points so that every call the program makes
    records a span.  Functions are also rebound in every loaded
    ``repro`` module that imported them by name, so the spans follow
    whatever path the program takes to reach them.  A hook whose target
    no longer exists is listed in ``missing`` and skipped."""

    def __init__(self, recorder: Recorder,
                 on_generate: Optional[Callable[[], None]] = None) -> None:
        self.recorder = recorder
        self.on_generate = on_generate
        self.missing: List[str] = []
        self._undo: List[tuple] = []

    def _wrap(self, fn, name, before, after):
        recorder = self.recorder
        on_generate = (self.on_generate
                       if name == "workloads.generate_workload" else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_generate is not None and not recorder.inside(
                    "workloads.generate_warmup"):
                on_generate()
            with recorder.span(name) as span:
                state = before(args) if before else None
                result = fn(*args, **kwargs)
                if after is not None:
                    span["args"].update(after(args, result, state))
                return result
        return wrapper

    def install(self) -> "Hooks":
        for module_name, attr, name, before, after in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, member, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, before, after)
            self._set(owner, member, original, wrapper)
            if owner_name:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod is not None and mod is not module
                        and mod_name.startswith("repro")
                        and getattr(mod, member, None) is original):
                    self._set(mod, member, original, wrapper)
        return self

    def _set(self, owner, member, original, wrapper) -> None:
        setattr(owner, member, wrapper)
        self._undo.append((owner, member, original))

    def uninstall(self) -> None:
        for owner, member, original in reversed(self._undo):
            setattr(owner, member, original)
        self._undo.clear()


# ----------------------------------------------------------------------
# self time per package
# ----------------------------------------------------------------------

class Sampler:
    """Samples the calling thread's stack every ``interval`` seconds and
    charges the time since the previous sample to the ``repro`` package
    of the innermost ``repro`` frame (stdlib calls count toward their
    caller).  Time outside any ``repro`` frame is charged to "other"."""

    def __init__(self, repro_dir: str, interval: float = 0.001) -> None:
        self.root = os.path.join(os.path.realpath(repro_dir), "")
        self.interval = interval
        self.self_s: Dict[str, float] = {}
        self.samples = 0
        self._cache: Dict[str, Optional[str]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target = 0

    def _package(self, filename: str) -> Optional[str]:
        pkg = self._cache.get(filename, "")
        if pkg == "":
            real = os.path.realpath(filename)
            if real.startswith(self.root):
                head = real[len(self.root):].split(os.sep)
                pkg = head[0] if len(head) > 1 else "repro"
            else:
                pkg = None
            self._cache[filename] = pkg
        return pkg

    def _loop(self) -> None:
        last = time.perf_counter()
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            now = time.perf_counter()
            pkg = None
            while frame is not None and pkg is None:
                pkg = self._package(frame.f_code.co_filename)
                frame = frame.f_back
            key = pkg or "other"
            self.self_s[key] = self.self_s.get(key, 0.0) + (now - last)
            self.samples += 1
            last = now

    def __enter__(self) -> "Sampler":
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


@contextlib.contextmanager
def traced(recorder: Recorder, sampler: Sampler,
           on_generate: Optional[Callable[[], None]] = None):
    """Hooks and the sampler, on for the duration of the block."""
    hooks = Hooks(recorder, on_generate).install()
    try:
        with sampler:
            yield hooks
    finally:
        hooks.uninstall()
