"""A small metrics registry for long-lived processes.

The simulator's own counters live in :class:`~repro.sim.stats.SystemStats`
and are strictly deterministic.  A *service* wrapped around the simulator
(``repro.serve``) additionally needs operational metrics — queue depths,
cache hit rates, request latencies — that are wall-clock flavoured and
must be exportable at any moment while work is in flight.  This registry
is that layer: named counters, gauges (sampled via callables so the
registry never holds stale copies), and :class:`LogHistogram`
distributions, all snapshotting to one JSON-safe dict.

It deliberately stays dependency-free and synchronous: callers on an
asyncio loop mutate plain ints from one thread, which is safe under the
GIL for the single-writer pattern the service uses.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.obs.samplers import LogHistogram

Number = Union[int, float]
#: What a gauge callable may return: any JSON-safe value.  Scalars for
#: classic gauges (queue depth, uptime); small dicts/lists for
#: structured ones.
JsonValue = Union[int, float, str, bool, None, Dict, list]


class MetricsRegistry:
    """Named counters, gauges, and log-bucketed histograms.

    * ``counter(name)`` / ``inc(name, by)`` — monotone ints.
    * ``gauge(name, fn)`` — a callable sampled at snapshot time, so the
      exported value is always current (queue depth, uptime, ...).
    * ``histogram(name)`` — a shared :class:`LogHistogram`; record with
      ``observe(name, value)`` (non-negative ints, e.g. milliseconds).

    ``snapshot()`` returns ``{"counters": ..., "gauges": ...,
    "histograms": {name: summary+buckets}}`` — stable keys, JSON-safe,
    and cheap enough to serve from a hot ``/metrics`` endpoint.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Callable[[], JsonValue]] = {}
        self._histograms: Dict[str, LogHistogram] = {}

    # -- counters ------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value (registering the counter at 0 if new)."""
        return self._counters.setdefault(name, 0)

    def inc(self, name: str, by: int = 1) -> int:
        value = self._counters.get(name, 0) + by
        self._counters[name] = value
        return value

    # -- gauges --------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[], JsonValue]) -> None:
        """Register (or replace) a gauge sampled at snapshot time."""
        self._gauges[name] = fn

    # -- histograms ----------------------------------------------------

    def histogram(self, name: str) -> LogHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LogHistogram()
        return hist

    def observe(self, name: str, value: int) -> None:
        self.histogram(name).add(value)

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict:
        """One JSON-safe dict of everything the registry knows.

        A gauge whose callable raises exports the error string instead
        of taking the whole endpoint down — /metrics must stay servable
        while the thing it measures is on fire.
        """
        gauges: Dict[str, object] = {}
        for name, fn in self._gauges.items():
            try:
                gauges[name] = fn()
            except Exception as exc:
                gauges[name] = f"error: {type(exc).__name__}: {exc}"
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                name: {**hist.summary(), "buckets": [
                    {"lo": lo, "hi": hi, "count": n}
                    for lo, hi, n in hist.buckets()]}
                for name, hist in sorted(self._histograms.items())},
        }
