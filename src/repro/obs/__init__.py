"""``repro.obs`` — the observability layer.

A central probe bus threaded through the engine, pipeline, retire gate,
store buffer, load queue, and MESI coherence, plus the standard
subscribers that turn probe firings into artefacts:

* :class:`~repro.obs.bus.ProbeBus` — named event probes that resolve to
  literal ``None`` when nothing subscribes, so disabled-mode overhead is
  a single ``is not None`` test at each site (the simulator's one
  observation channel: the tracer and violation detector use it too);
* :class:`~repro.obs.session.ObsSession` — one-stop wiring of the
  standard watchers (gate intervals, stall/window/drain histograms,
  squash and coherence counters), the occupancy sampler and the tracer;
* :func:`~repro.obs.session.observe_run` — run a workload with full
  observability and get ``(stats, report, system)`` back;
* :mod:`~repro.obs.chrome_trace` — Chrome trace-event / Perfetto JSON
  export of instruction lifetimes, gate-closed intervals, and occupancy
  counters;
* :mod:`~repro.obs.validate` — schema validation for the emitted trace
  (also a CLI: ``python -m repro.obs.validate trace.json``);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters / gauges /
  histograms for long-lived processes (the ``repro.serve``
  ``/v1/metrics`` endpoint), snapshotting to one JSON-safe dict.

See ``docs/OBSERVABILITY.md`` for the probe name registry and the
disabled-probe no-op guarantee.
"""

from repro.obs.bus import NULL_BUS, PROBE_SIGNATURES, ProbeBus
from repro.obs.chrome_trace import build_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.samplers import LogHistogram, OccupancySampler
from repro.obs.session import ObsReport, ObsSession, observe_run
from repro.obs.validate import TraceValidationError, validate_chrome_trace

__all__ = [
    "NULL_BUS",
    "PROBE_SIGNATURES",
    "ProbeBus",
    "LogHistogram",
    "MetricsRegistry",
    "OccupancySampler",
    "ObsReport",
    "ObsSession",
    "observe_run",
    "build_chrome_trace",
    "write_chrome_trace",
    "TraceValidationError",
    "validate_chrome_trace",
]
