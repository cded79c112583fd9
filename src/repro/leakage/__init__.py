"""Speculative-leakage observability (docs/LEAKAGE.md).

The pipeline knows exactly which loads are speculative and when they
squash; this package observes what those loads *leave behind* in the
cache hierarchy and the NoC — the transient-execution side channel.  It
is a pure observability layer on the ProbeBus: nothing here perturbs
simulation timing, and with no watcher attached every new probe site
costs one pointer compare (the bus's zero-overhead contract), so stats
stay byte-identical when leakage tracking is off.

Three pieces:

* :class:`~repro.leakage.taint.TaintMap` — static taint propagation
  over a trace's dependence graph from a set of SECRET addresses;
* :class:`~repro.leakage.watcher.LeakWatcher` — correlates
  ``load.perform`` / ``squash.*`` / ``slf.forward`` / ``sb.write_l1`` /
  ``cache.fill`` / ``prefetch.issue`` / ``noc.msg`` probes into leak
  candidates, confirmed transient leaks, and window histograms;
* :mod:`~repro.leakage.gadgets` — Spectre-style gadget workloads
  (bounds-check bypass and SLF-forwarding variants) that exercise the
  five policies' different speculation windows.

Entry points: :func:`~repro.leakage.watcher.leak_run` and
:func:`~repro.leakage.watcher.leak_observe_run`.
"""

from repro.leakage.gadgets import GADGET_CONFIG, GADGETS, Gadget
from repro.leakage.taint import TaintMap
from repro.leakage.watcher import (LeakCandidate, LeakReport, LeakWatcher,
                                   leak_observe_run, leak_run)

__all__ = [
    "GADGET_CONFIG", "GADGETS", "Gadget", "TaintMap", "LeakCandidate",
    "LeakReport", "LeakWatcher", "leak_observe_run", "leak_run",
]
