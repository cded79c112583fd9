"""The metrics every workload reports, and how the per-layer ones are
assembled from spans, samples and simulated stats.  Names and units come
from ``BENCHMARK.json``.

Every workload prints every metric.  A per-layer metric whose layer does
no work on a workload reads 0 (``README.md`` maps each metric to the
workloads where its layer runs).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def units(traced: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them: the
    per-layer metrics for a traced run, else the end-to-end ones."""
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


_SELF_TIMED = ("coherence", "noc", "memory", "cpu", "core", "sim",
               "models", "lint")


def sim_counts(stats: Iterable) -> Dict[str, float]:
    """Simulated counts summed over a workload's distinct cells."""
    out = dict.fromkeys(
        ("sim.cycles", "sim.instr", "coherence.invalidations",
         "coherence.evictions", "noc.messages", "cpu.squashes",
         "cpu.slf_loads", "core.gate_closes", "core.gate_lock_cycles",
         "core.gate_stall_cycles"), 0)
    reexecuted = 0
    for st in stats:
        total = st.total
        out["sim.cycles"] += st.execution_cycles
        out["sim.instr"] += total.retired_instructions
        out["coherence.invalidations"] += st.invalidations_sent
        out["coherence.evictions"] += st.evictions
        out["noc.messages"] += st.network_total
        out["cpu.squashes"] += total.squashes
        out["cpu.slf_loads"] += total.slf_loads
        out["core.gate_closes"] += total.gate_closes
        out["core.gate_lock_cycles"] += total.gate_lock_cycles
        out["core.gate_stall_cycles"] += total.gate_stall_cycles
        reexecuted += total.reexecuted_instructions
    out["cpu.reexec_frac"] = (reexecuted / out["sim.instr"]
                              if out["sim.instr"] else 0.0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, sampler, counts: Dict[str, float],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric: from the recorder's spans, the sampler's
    self times, the simulated ``counts`` and workload-specific ``extra``
    values (serve, sweep utilisation, accuracy, tracing overhead)."""
    names = units(traced=True)
    m: Dict[str, float] = dict.fromkeys(names, 0)
    gen = recorder.total("workloads.generate_workload",
                         outside="workloads.generate_warmup")
    warmgen = recorder.total("workloads.generate_warmup")
    generated = recorder.arg_sum("workloads.generate_workload",
                                 "instructions")
    m["workloads.gen_s"] = gen
    m["workloads.warmgen_s"] = warmgen
    m["workloads.calls"] = recorder.count("workloads.generate_workload")
    m["workloads.instr_per_s"] = _ratio(generated, gen + warmgen)
    m["coherence.warm_s"] = recorder.total("coherence.warm_from_traces")
    for pkg in _SELF_TIMED:
        m[f"{pkg}.self_s"] = sampler.self_s.get(pkg, 0.0)
    m["sim.build_s"] = recorder.total("sim.build")
    m["sim.run_s"] = recorder.total("sim.run")
    m["sim.events"] = recorder.arg_sum("sim.run", "events")
    m["sim.events_per_s"] = _ratio(m["sim.events"], m["sim.run_s"])
    m["snapshot.calls"] = (recorder.count("snapshot.capture")
                           + recorder.count("snapshot.fork"))
    m["snapshot.capture_s"] = recorder.total("snapshot.capture")
    m["snapshot.fork_s"] = recorder.total("snapshot.fork")
    m["sweep.key_s"] = recorder.total("sweep.job_key")
    m["sweep.cache_get_s"] = recorder.total("sweep.cache_get")
    m["sweep.cache_put_s"] = recorder.total("sweep.cache_put")
    m["litmus.calls"] = recorder.count("litmus.execute_litmus")
    m["litmus.enumerate_s"] = recorder.total("litmus.execute_litmus")
    m["synth.search_s"] = recorder.total("synth.search")
    enumerated = recorder.arg_sum("synth.search", "enumerated")
    m["synth.programs_per_s"] = _ratio(enumerated, m["synth.search_s"])
    m["synth.judged_frac"] = _ratio(
        recorder.arg_sum("synth.search", "judged"), enumerated)
    m.update(counts)
    m.update(extra)
    unknown = set(m) - set(names)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return m


def render(values: Dict[str, float], table: Dict[str, str]) -> Dict:
    """The ``metrics`` object of the result line: every metric of
    ``table`` (name -> unit) with its value."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table.items()}
