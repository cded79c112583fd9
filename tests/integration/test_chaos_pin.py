"""Pinned chaos report: kernel timing under fault injection.

The stats pins (``test_stats_pin.py``) run fault-free.  This pin runs
the whole expressible battery on all five pipelines with NoC jitter,
forced evictions, spurious squashes and delayed SB writes, five seeded
trials per cell, and pins the first 16 hex characters of
:func:`repro.sweep.cache.content_key` over the report's ``to_dict()``.
The report carries every cell's outcome count, the injected-fault
counts and the number of invariant sweeps, so a change that moves the
timing of any faulted run (which outcome a run reaches, how many faults
land before it ends, how often the watchdog sweeps) fails here.

A perf-only change keeps the pin; a modelling change or a change to the
fault mechanisms updates it and says so in CHANGES.md.
"""

from repro.models.conformance import battery_corpus, check_pipelines
from repro.sweep.cache import content_key

TRIALS = 5
SEED = 0
PIN = "cae9da05d9e17723"
INJECTED = {"noc": 5145, "evict": 536, "squash": 777, "sb": 1020}
INVARIANT_CHECKS = 2385


def test_chaos_report_is_pinned():
    report = check_pipelines([case.program for case in battery_corpus()],
                             trials=TRIALS, seed=SEED).to_dict()
    assert report["ok"] is True
    assert len(report["cells"]) == 125
    assert report["injected"] == INJECTED
    assert report["invariant_checks"] == INVARIANT_CHECKS
    assert content_key(report)[:16] == PIN
