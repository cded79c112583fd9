"""The sweep runner: fan (profile × policy) simulations across processes.

The pool's task is a *trace unit*: the cells that share a trace
specification (profile, cores, resolved length, seed, hint stripping),
like the five policies of a Fig. 10 row.  A unit generates its traces
once, inside the worker, so the pool pickles only small
:class:`SweepJob` lists, and walks its cache warm-up once per cache
geometry, installing the captured memory image into each cell
(:func:`repro.snapshot.capture_memory`).  Generation, the warm-up and
the engine are deterministic, so results are placed back at their
job's input index and every cell equals :func:`execute_job` (the
one-cell unit) run alone.

Completed results are stored in a :class:`~repro.sweep.cache.ResultCache`
keyed by :func:`job_key`, so re-running a figure after editing only the
plotting code performs zero simulations.

Crash tolerance
---------------

A sweep survives its own cells: a per-cell ``timeout`` (a SIGALRM timer
inside the worker; a unit's first cell also pays for its set-up),
bounded ``retries`` with exponential ``backoff``, and per-cell
structured error payloads.  A cell that keeps failing becomes ``None``
in ``SweepOutcome.results`` with its error in ``SweepOutcome.errors`` at
the same index — the sweep completes with partial results instead of
dying.  A failing cell never fails its siblings; a set-up error
(generation or the shared warm-up) fails its unit, and a dead worker
process every in-flight unit, all retryably on a fresh pool.  Ctrl-C
cancels outstanding futures, salvages cells that already finished, and
returns (and caches) the partial outcome.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.sim.config import SKYLAKE_LIKE, SystemConfig
from repro.sim.stats import SystemStats
from repro.sim.system import simulate
from repro.sweep.cache import ResultCache, code_version, content_key
from repro.workloads.profiles import get_profile
from repro.workloads.runner import (DEFAULT_CORES, BenchmarkResult,
                                    cell_traces, resolved_length)

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class SweepJob:
    """One cell of a sweep grid: a complete simulation specification."""

    name: str                          # benchmark profile name
    policy: str                        # consistency configuration
    cores: int = DEFAULT_CORES
    length: Optional[int] = None       # None = suite default × REPRO_SCALE
    seed: int = 0
    config: Optional[SystemConfig] = None
    detect_violations: bool = False
    # The ablation in benchmarks/bench_ablations.py runs with the
    # profile's memory-dependence hints stripped (cold StoreSet).
    memdep_hints: bool = True
    # Attach the observability layer and carry its per-cell summary
    # (histograms, gate intervals, squash counters) in the result
    # payload.  Part of the cache key: an obs run records strictly more
    # than a plain run, so the two cannot share cache entries.
    obs: bool = False
    obs_sample_interval: int = 64
    # Drain to quiescence and checkpoint every ~N cycles; on a retry the
    # job resumes from the last checkpoint blob instead of cycle 0 (see
    # ``_execute_checkpointed``).  Checkpointed runs are their own
    # deterministic mode — the drains alter event timing — so the value
    # is part of the cache key when set.
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if self.obs or self.detect_violations:
                # A snapshot cannot carry observer state (probes,
                # detectors) — see repro.snapshot.capture.
                raise ValueError(
                    "checkpoint_every cannot be combined with obs or "
                    "detect_violations (snapshots exclude observers)")

    def to_dict(self) -> Dict:
        """JSON-safe description; exact under :meth:`from_dict`.

        ``config`` must be None (the default simulated system): a job
        that travels between processes as JSON — the ``repro.serve``
        wire format — keys its result on this payload, and a partial
        config encoding would silently fork the cache namespace.
        """
        if self.config is not None:
            raise ValueError("SweepJob.to_dict: custom SystemConfig is "
                             "not JSON-serializable; use config=None")
        out = {
            "name": self.name,
            "policy": self.policy,
            "cores": self.cores,
            "length": self.length,
            "seed": self.seed,
            "detect_violations": self.detect_violations,
            "memdep_hints": self.memdep_hints,
            "obs": self.obs,
            "obs_sample_interval": self.obs_sample_interval,
        }
        # Only when set, so pre-checkpoint wire payloads round-trip
        # byte-identically.
        if self.checkpoint_every is not None:
            out["checkpoint_every"] = self.checkpoint_every
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepJob":
        """Inverse of :meth:`to_dict`; unknown keys are rejected so a
        typo in a job request fails loudly instead of keying a cache
        entry under a spec the simulation ignored."""
        allowed = {"name", "policy", "cores", "length", "seed",
                   "detect_violations", "memdep_hints", "obs",
                   "obs_sample_interval", "checkpoint_every"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"SweepJob.from_dict: unknown field(s) "
                             f"{sorted(unknown)}")
        if "name" not in data or "policy" not in data:
            raise ValueError("SweepJob.from_dict: 'name' and 'policy' "
                             "are required")
        return cls(**data)


@dataclass
class SweepOutcome:
    """What a :func:`run_sweep` call did."""

    # One entry per job, in input order; None = the cell failed (see the
    # matching ``errors`` entry).
    results: List[Optional[BenchmarkResult]]
    simulated: int = 0                 # jobs executed successfully
    cached: int = 0                    # jobs answered from the cache
    elapsed: float = 0.0               # wall-clock seconds
    workers: int = 1                   # pool size used (1 = in-process)
    # How the simulated cells were executed: "serial" (in-process) or
    # "parallel" (a process pool of ``workers``).
    mode: str = "serial"
    units: int = 0                     # trace units in the first round
    keys: List[str] = field(default_factory=list)  # cache key per job
    # Per-job observability summary dicts (None for non-obs jobs), in
    # input order — the ``repro.obs.session.ObsReport.to_dict()`` form.
    obs: List[Optional[Dict]] = field(default_factory=list)
    # Per-job structured error payloads (None for successful cells), in
    # input order: name/policy/seed, exception type and message, whether
    # it was a timeout, and the number of attempts made.
    errors: List[Optional[Dict]] = field(default_factory=list)
    failed: int = 0                    # cells without a result
    interrupted: bool = False          # Ctrl-C cut the sweep short


class JobTimeout(RuntimeError):
    """A sweep job exceeded its per-job wall-clock budget."""


def job_key(job: SweepJob) -> str:
    """Content hash identifying a job's *result*.

    Covers the trace specification (profile, cores, resolved length,
    seed, hint stripping), the system configuration, the policy, the
    violation-detector flag, and the simulator source version — the
    complete input closure of a simulation.
    """
    payload = {
        "schema": 1,
        "name": job.name,
        "policy": job.policy,
        "cores": job.cores,
        "length": resolved_length(job.name, job.length),
        "seed": job.seed,
        "config": (None if job.config is None
                   else dataclasses.asdict(job.config)),
        "detect_violations": job.detect_violations,
        "memdep_hints": job.memdep_hints,
        "obs": job.obs,
        "obs_sample_interval": job.obs_sample_interval if job.obs else None,
        "code": code_version(),
    }
    # Checkpointed runs drain to quiescence periodically, which changes
    # event timing — a distinct deterministic mode, so a distinct key.
    # Added conditionally so every pre-existing key is preserved.
    if job.checkpoint_every is not None:
        payload["checkpoint_every"] = job.checkpoint_every
    return content_key(payload)


def _run_cell(job: SweepJob, traces, warm,
              cache_dir: Union[str, os.PathLike, None]) -> Dict:
    """One cell on its unit's traces (which no cell changes)."""
    if job.checkpoint_every is not None:
        return _execute_checkpointed(job, traces, warm, cache_dir)
    if job.obs:
        from repro.obs.session import observe_run
        stats, report, _system = observe_run(
            traces, job.policy, config=job.config, warm_caches=warm,
            detect_violations=job.detect_violations,
            sample_interval=job.obs_sample_interval)
        payload = stats.to_dict()
        # Rides inside the cached payload; SystemStats.from_dict ignores
        # keys it does not know, so old readers are unaffected.
        payload["obs"] = report.to_dict()
        return payload
    stats = simulate(traces, job.policy, config=job.config,
                     warm_caches=warm,
                     detect_violations=job.detect_violations)
    return stats.to_dict()


def execute_job(job: SweepJob,
                cache_dir: Union[str, os.PathLike, None] = None) -> Dict:
    """Run one job to completion — the one-cell trace unit, serve's
    ``bench`` path; returns the stats as a JSON-safe dict.

    ``cache_dir`` only matters for checkpointed jobs
    (``job.checkpoint_every``): it is where the resume blob and the
    progress document live between checkpoints.
    """
    traces, warm = cell_traces(job.name, job.cores, job.length, job.seed,
                               job.memdep_hints)
    return _run_cell(job, traces, warm, cache_dir)


def _execute_checkpointed(job: SweepJob, traces, warm,
                          cache_dir: Union[str, os.PathLike, None]) -> Dict:
    """Run a job in checkpointed mode, resuming from a stored snapshot.

    Every ~``checkpoint_every`` cycles the system drains to quiescence
    and the snapshot blob + a small progress document are written to the
    sweep cache under the job's key.  A crashed or timed-out attempt
    therefore resumes from the last checkpoint on its retry round
    instead of repeating the whole run; the side files are cleared on
    success.  Both paths are deterministic: resuming from any checkpoint
    yields the same stats as the uninterrupted checkpointed run.
    """
    from repro.snapshot import Snapshot, SnapshotError, restore
    from repro.sim.system import System

    store = ResultCache(cache_dir) if cache_dir is not None else None
    key = job_key(job) if store is not None else None

    system = None
    if store is not None:
        blob = store.get_blob(key)
        if blob is not None:
            try:
                system = restore(Snapshot.from_bytes(blob), traces,
                                 config=job.config)
            except SnapshotError:
                # Stale or corrupt blob (e.g. written by other code):
                # restart from cycle 0 rather than failing the cell.
                store.clear_blob(key)
                system = None
    if system is None:
        system = System(traces, job.policy, config=job.config,
                        warm_caches=warm)

    def on_checkpoint(snapshot) -> None:
        if store is None:
            return
        data = snapshot.data
        store.put_blob(key, snapshot.to_bytes())
        store.put_progress(key, {
            "name": job.name,
            "policy": job.policy,
            "cycle": data["engine"]["now"],
            "fetched": [core["fetch_idx"] for core in data["cores"]],
            "trace_lens": data["trace_lens"],
        })

    stats = system.run(checkpoint_every=job.checkpoint_every,
                       on_checkpoint=on_checkpoint)
    if store is not None:
        store.clear_blob(key)
        store.clear_progress(key)
    return stats.to_dict()


def with_deadline(fn: Callable[[], Dict], timeout: Optional[float],
                  label: str) -> Dict:
    """Run ``fn()`` under a wall-clock deadline, raising
    :class:`JobTimeout` (labelled with ``label``) when it blows.

    The deadline uses a SIGALRM interval timer.  On platforms without
    SIGALRM (Windows) the timeout degrades to "no timeout" rather than
    failing.  A previously armed timer (e.g. the test suite's per-test
    deadline when the sweep runs serially in-process) is restored with
    its remaining time on exit, so nesting is safe.
    """
    if not timeout or not hasattr(signal, "SIGALRM"):
        return fn()

    def _on_alarm(signum, frame):
        raise JobTimeout(
            f"job {label} exceeded its {timeout:g}s timeout")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL, timeout)
    started = time.monotonic()
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        if outer_remaining > 0:
            left = outer_remaining - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6))


def _warm_key(job: SweepJob) -> Tuple:
    """What a job's cache warm-up depends on: the cache geometry (the
    walk reads no latency, prefetcher or network setting)."""
    memory = (job.config or SKYLAKE_LIKE).memory
    return memory.l1, memory.l2, memory.l3_bank, memory.l3_banks


def _unit_setup(unit: Sequence[SweepJob]) -> Tuple[List, Dict]:
    """A unit's traces, and one memory image per cache geometry its
    cells use: the warm-up walked once into a bare memory system and
    captured, for each cell to install instead of walking."""
    from repro.coherence.mesi import CoherentMemorySystem
    from repro.coherence.warmup import warm_from_traces
    from repro.sim.engine import Engine
    from repro.snapshot import capture_memory

    first = unit[0]
    traces, warm = cell_traces(first.name, first.cores, first.length,
                               first.seed, first.memdep_hints)
    images: Dict[Tuple, Dict] = {}
    for job in unit:
        key = _warm_key(job)
        if key not in images:
            warmed = CoherentMemorySystem(Engine(), dataclasses.replace(
                SKYLAKE_LIKE, cores=len(traces),
                memory=(job.config or SKYLAKE_LIKE).memory))
            warm_from_traces(warmed, warm)
            images[key] = capture_memory(warmed)
    return traces, images


def _unit_outcomes(unit: Sequence[SweepJob], timeout: Optional[float],
                   cache_dir: Union[str, os.PathLike, None] = None
                   ) -> Iterator[Tuple[str, Dict]]:
    """Run a unit's cells on one set-up (:func:`_unit_setup`), yielding
    ``("ok", payload)`` or ``("err", info)`` per cell, each under its
    own deadline (the first's also covers the set-up, whose failure
    fails them all).

    Once set up, the unit collects and freezes what it holds out of the
    collector's reach until it ends (``gc.freeze``), so the collection
    before each cell scans only the previous cell's garbage, not the
    unit's traces."""
    shared: List = []
    try:
        for job in unit:
            # A finished System is cyclic garbage: free it before the
            # next is built, or a unit's peak memory grows per cell.
            # The first cell collects too — a System allocates too
            # little to trigger the collector itself, so the previous
            # unit's last one would otherwise outlive this unit's
            # set-up.
            gc.collect()

            def cell() -> Dict:
                if not shared:
                    shared.extend(_unit_setup(unit))
                    gc.collect()
                    gc.freeze()
                traces, images = shared
                return _run_cell(job, traces, images[_warm_key(job)],
                                 cache_dir)

            try:
                outcome = "ok", with_deadline(cell, timeout,
                                              f"{job.name}/{job.policy}")
            except Exception as exc:
                outcome = "err", _exc_info(exc)
            if not shared:
                yield from [outcome] * len(unit)
                return
            yield outcome
    finally:
        gc.unfreeze()


def _execute_unit(unit: Sequence[SweepJob], timeout: Optional[float],
                  cache_dir: Union[str, os.PathLike, None] = None
                  ) -> List[Tuple[str, Dict]]:
    """The pool's entry point (module-level, so it pickles)."""
    return list(_unit_outcomes(unit, timeout, cache_dir))


def _trace_units(jobs: Sequence[SweepJob], indices: Sequence[int],
                 workers: int) -> List[List[int]]:
    """Group ``indices`` by the inputs of :func:`cell_traces`, in
    first-appearance order; while there are fewer units than
    min(``workers``, cells), split the largest in half."""
    groups: Dict[Tuple, List[int]] = {}
    for idx in indices:
        job = jobs[idx]
        key = (job.name, job.cores, resolved_length(job.name, job.length),
               job.seed, job.memdep_hints)
        groups.setdefault(key, []).append(idx)
    units = list(groups.values())
    while len(units) < min(workers, len(indices)):
        big = max(range(len(units)), key=lambda i: len(units[i]))
        half = (len(units[big]) + 1) // 2
        units[big:big + 1] = [units[big][:half], units[big][half:]]
    return units


def _exc_info(exc: BaseException) -> Dict:
    """JSON-safe description of an exception (pickles across the pool
    where the exception object itself might not)."""
    cause = getattr(exc, "__cause__", None)
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "timeout": isinstance(exc, JobTimeout),
        "cause": None if cause is None else str(cause),
    }


def _error_payload(job: SweepJob, info: Dict, attempts: int) -> Dict:
    """The structured record of a failed cell (JSON-safe)."""
    return {
        "name": job.name,
        "policy": job.policy,
        "cores": job.cores,
        "seed": job.seed,
        "type": info["type"],
        "message": info["message"],
        "timeout": info["timeout"],
        "attempts": attempts,
        "cause": info.get("cause"),
    }


def _cancel_payload(job: SweepJob) -> Dict:
    return {"name": job.name, "policy": job.policy, "cores": job.cores,
            "seed": job.seed, "type": "Cancelled",
            "message": "sweep interrupted before this job finished",
            "timeout": False, "attempts": 0, "cause": None}


def _result(job: SweepJob, stats: SystemStats) -> BenchmarkResult:
    return BenchmarkResult(job.name, get_profile(job.name).suite,
                           job.policy, stats)


def default_workers() -> int:
    """Pool size when the caller does not choose: ``REPRO_WORKERS`` if
    set, else the machine's CPU count."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_sweep(jobs: Sequence[SweepJob],
              workers: Optional[int] = None,
              cache: bool = True,
              cache_dir: Union[str, os.PathLike, None] = None,
              progress: Optional[ProgressFn] = None,
              timeout: Optional[float] = None,
              retries: int = 0,
              backoff: float = 0.5) -> SweepOutcome:
    """Execute a batch of sweep jobs, one pool task per trace unit.

    The pool holds ``workers`` processes (default
    :func:`default_workers`), capped at the number of uncached jobs;
    when that leaves one worker the cells run in-process with no pool.
    ``SweepOutcome.mode`` records which (``"serial"``/``"parallel"``).
    With ``cache`` enabled (the default), finished results are read
    from and written to ``cache_dir`` (default: ``$REPRO_SWEEP_CACHE``
    or ``.sweep-cache``).  ``progress`` receives human-readable status
    lines, including an ETA once a completion time is known.

    ``timeout`` bounds each cell's wall-clock seconds; a cell that blows
    it (or raises, or loses its worker process) is retried up to
    ``retries`` more times with exponential ``backoff`` between rounds,
    then recorded as a structured error payload — the sweep always
    completes and returns the cells it has (see :class:`SweepOutcome`).
    KeyboardInterrupt cancels outstanding work but completed cells are
    kept (and were already cached).

    Results come back in input-job order; identical jobs are simulated
    once and share the result (including a shared error if they fail).
    """
    t0 = time.perf_counter()
    jobs = list(jobs)
    store = ResultCache(cache_dir, on_warning=progress) if cache else None
    keys = [job_key(job) for job in jobs]
    stats_by_key: Dict[str, SystemStats] = {}
    obs_by_key: Dict[str, Optional[Dict]] = {}
    errors_by_key: Dict[str, Dict] = {}

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    cached = 0
    if store is not None:
        for key in set(keys):
            payload = store.get(key)
            if payload is None:
                continue
            try:
                stats_by_key[key] = SystemStats.from_dict(payload)
            except Exception as exc:
                # Valid JSON but not a stats payload (foreign file,
                # schema drift): a miss with a note, never an abort.
                note(f"sweep: cache entry {key[:12]}… unreadable "
                     f"({type(exc).__name__}: {exc}); re-simulating")
                continue
            obs_by_key[key] = payload.get("obs")
        cached = sum(1 for key in keys if key in stats_by_key)
        # Cache hits are reported distinctly and *never* enter the ETA
        # clock below: an instant cell says nothing about how long a
        # simulation takes, so mixing them in skews the estimate.
        for idx, key in enumerate(keys):
            if key in stats_by_key:
                note(f"sweep: [cache] {jobs[idx].name}/{jobs[idx].policy}")

    # Deduplicated misses, in first-appearance order.
    todo: List[int] = []
    seen = set(stats_by_key)
    for idx, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            todo.append(idx)

    # Where workers persist checkpoint blobs/progress for checkpointed
    # jobs (same directory as the result cache, same key namespace).
    chk_dir = str(store.directory) if store is not None else None

    if workers is None:
        workers = default_workers()
    nworkers = max(1, min(workers, len(todo) or 1))
    mode = "serial" if nworkers <= 1 else "parallel"

    units = _trace_units(jobs, todo, nworkers)
    if todo:
        note(f"sweep: {len(todo)} of {len(jobs)} jobs to simulate "
             f"({cached} cached) in {len(units)} trace units, "
             f"{nworkers} worker(s)")
    elif jobs:
        note(f"sweep: all {len(jobs)} jobs cached, nothing to simulate")
    done = 0
    t_run = time.perf_counter()

    def finished(idx: int, payload: Dict, quiet: bool = False) -> None:
        nonlocal done
        key = keys[idx]
        stats_by_key[key] = SystemStats.from_dict(payload)
        obs_by_key[key] = payload.get("obs")
        errors_by_key.pop(key, None)  # a retry succeeded
        if store is not None:
            store.put(key, payload)
        done += 1
        if quiet:
            return
        # ETA over simulated cells only (cache hits were answered
        # before t_run and are excluded by construction).
        rate = (time.perf_counter() - t_run) / done
        eta = rate * (len(todo) - done)
        job = jobs[idx]
        note(f"sweep: [{done}/{len(todo)}] {job.name}/{job.policy} "
             f"done, ETA {eta:.0f}s")

    def settle(unit: List[int], outcomes, attempts: int,
               quiet: bool = False) -> List[int]:
        """Record each cell's outcome as it arrives, skipping cells
        already settled; returns the cells that failed (retryable)."""
        retry: List[int] = []
        for idx, (status, payload) in zip(unit, outcomes):
            if keys[idx] in stats_by_key:
                continue
            if status == "ok":
                finished(idx, payload, quiet)
                continue
            job = jobs[idx]
            errors_by_key[keys[idx]] = _error_payload(job, payload, attempts)
            if not quiet:
                note(f"sweep: [fail] {job.name}/{job.policy}: "
                     f"{payload['type']}: {payload['message']}")
            retry.append(idx)
        return retry

    def run_serial(units: List[List[int]], attempts: int
                   ) -> Tuple[List[int], bool]:
        """In-process execution, each cell settled as it finishes;
        returns (retryable indices, interrupted)."""
        retryable: List[int] = []
        try:
            for unit in units:
                retryable += settle(unit, _unit_outcomes(
                    [jobs[idx] for idx in unit], timeout, chk_dir), attempts)
        except KeyboardInterrupt:
            note("sweep: interrupted — keeping completed cells")
            return [], True
        return retryable, False

    def run_pool(units: List[List[int]], attempts: int
                 ) -> Tuple[List[int], bool]:
        """Process-pool execution, one task per unit; returns
        (retryable, interrupted).

        A fresh pool per round: a worker that died (OOM, signal) breaks
        the pool, failing every in-flight future with BrokenProcessPool;
        those cells are simply retryable like any other failure, and the
        next round starts with working processes.
        """
        def outcomes(future, unit: List[int]) -> List[Tuple[str, Dict]]:
            exc = future.exception()  # cells never raise: a dead worker
            return (future.result() if exc is None
                    else [("err", _exc_info(exc))] * len(unit))

        retryable: List[int] = []
        interrupted = False
        pool = ProcessPoolExecutor(max_workers=min(nworkers, len(units)))
        futures = {pool.submit(_execute_unit, [jobs[idx] for idx in unit],
                               timeout, chk_dir): unit for unit in units}
        try:
            for future in as_completed(futures):
                unit = futures[future]
                retryable += settle(unit, outcomes(future, unit), attempts)
        except KeyboardInterrupt:
            interrupted = True
            note("sweep: interrupted — cancelling outstanding jobs, "
                 "keeping completed cells")
            for future in futures:
                future.cancel()
            # Salvage cells that finished but were not yet settled.
            for future, unit in futures.items():
                if future.done() and not future.cancelled():
                    settle(unit, outcomes(future, unit), attempts, quiet=True)
            retryable = []
        finally:
            pool.shutdown(wait=not interrupted,
                          cancel_futures=interrupted)
        return retryable, interrupted

    first_units = len(units)
    pending = list(todo)
    interrupted = False
    attempt = 0
    while pending and not interrupted:
        attempt += 1
        if attempt > 1:
            delay = backoff * (2 ** (attempt - 2))
            note(f"sweep: retrying {len(pending)} failed job(s) "
                 f"(attempt {attempt}, backoff {delay:.1f}s)")
            if delay > 0:
                time.sleep(delay)
            units = _trace_units(jobs, pending, nworkers)
        run = run_pool if min(nworkers, len(units)) > 1 else run_serial
        pending, interrupted = run(units, attempt)
        if attempt > retries:
            break

    results: List[Optional[BenchmarkResult]] = []
    errors: List[Optional[Dict]] = []
    for job, key in zip(jobs, keys):
        stats = stats_by_key.get(key)
        if stats is not None:
            results.append(_result(job, stats))
            errors.append(None)
        else:
            results.append(None)
            # A cell an interrupt cut off before it ran has no
            # recorded error yet; mark it cancelled.
            errors.append(errors_by_key.get(key) or _cancel_payload(job))
    failed_cells = sum(1 for r in results if r is None)
    if failed_cells:
        note(f"sweep: {failed_cells} of {len(jobs)} cell(s) failed "
             f"({'interrupted' if interrupted else 'after retries'})")
    return SweepOutcome(results=results, simulated=done,
                        cached=cached,
                        elapsed=time.perf_counter() - t0,
                        workers=nworkers, mode=mode, units=first_units,
                        keys=keys,
                        obs=[obs_by_key.get(key) for key in keys],
                        errors=errors, failed=failed_cells,
                        interrupted=interrupted)


def stderr_progress(msg: str) -> None:
    """A ready-made ``progress`` callback for CLI use."""
    print(msg, file=sys.stderr, flush=True)
