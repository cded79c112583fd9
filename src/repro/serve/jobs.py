"""The service's job model: requests, idempotency keys, execution.

A *job request* is the JSON clients POST to ``/v1/jobs``.  Two kinds
exist:

* ``bench`` (alias ``sweep``) — one simulation cell, exactly a
  :class:`~repro.sweep.runner.SweepJob`: benchmark profile × policy ×
  (cores, length, seed, flags).  Executing it calls ``execute_job``,
  the sweep runner's one-cell trace unit, so a result served by the
  service is byte-identical to a direct :func:`run_sweep` of the same
  cell — and the two share one cache namespace.
* ``litmus`` — enumerate a named litmus test under one or more memory
  models; the result is the sorted outcome strings per model.
* ``leak`` — run one Spectre gadget from :mod:`repro.leakage` under one
  or more policies with taint-based leakage tracking; the result is the
  per-policy leakage report (``SystemStats.leakage``).
* ``synth`` — search one chunk of a bounded litmus-program space for
  model-pair distinguishers (:mod:`repro.synth`); pure CPU, no
  simulation, and chunks of the same space are independent, so
  ``repro synth --url`` scatters them across the service's shards.

Every request derives an **idempotency key**: the same content hash the
sweep cache uses (:func:`~repro.sweep.runner.job_key` /
:func:`~repro.sweep.cache.content_key`, both covering
:func:`~repro.sweep.cache.code_version`).  Identical requests — across
clients, across time, across service restarts — name identical results,
which is what lets the store answer repeats without touching a worker
and the pool collapse concurrent duplicates into one simulation.

``execute_request`` is the worker-side entry point: module-level and
operating on picklable specs, so it crosses the ``ProcessPoolExecutor``
boundary, with the sweep runner's SIGALRM deadline guard
(:func:`~repro.sweep.runner.with_deadline`) around both kinds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Tuple,
                    Union)

from repro.core.policies import POLICY_ORDER
from repro.litmus.operational import enumerate_outcomes
from repro.litmus.registry import litmus_registry
from repro.models import model_names
from repro.sweep.cache import code_version, content_key
from repro.sweep.runner import (SweepJob, execute_job, job_key,
                                with_deadline)

if TYPE_CHECKING:  # pragma: no cover — keeps the synth machinery off
    from repro.synth.space import SynthBounds  # the worker boot path

#: Request kinds accepted by ``POST /v1/jobs``.
JOB_KINDS = ("bench", "sweep", "litmus", "leak", "synth")

#: Default priority; lower runs earlier.
DEFAULT_PRIORITY = 100


class JobValidationError(ValueError):
    """A malformed job request.  ``payload`` is the structured 400-style
    body the API returns verbatim."""

    def __init__(self, message: str, detail: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.payload = {"error": "invalid-job", "status": 400,
                        "message": message}
        if detail:
            self.payload.update(detail)


@dataclass(frozen=True)
class LitmusSpec:
    """One litmus enumeration request: a named battery program under a
    tuple of memory models."""

    name: str
    models: Tuple[str, ...] = model_names()


@dataclass(frozen=True)
class LeakSpec:
    """One leakage-gadget request: a named Spectre gadget under a tuple
    of policies, run with taint tracking attached."""

    gadget: str
    policies: Tuple[str, ...] = tuple(POLICY_ORDER)


@dataclass(frozen=True)
class SynthSpec:
    """One synthesis chunk: search ``chunk`` of ``chunks`` congruence
    classes of a bounded program space for model-pair distinguishers."""

    bounds: "SynthBounds"
    pairs: Tuple[Tuple[str, str], ...]
    chunk: int = 0
    chunks: int = 1
    limit: int = 0


#: What a job executes: sweep cell, litmus enumeration, leak run, or
#: synthesis chunk.
JobSpec = Union[SweepJob, LitmusSpec, LeakSpec, "SynthSpec"]


# ----------------------------------------------------------------------
# Request parsing / serialization
# ----------------------------------------------------------------------

def _require_type(data: Dict, name: str, types, default):
    value = data.get(name, default)
    if value is default:
        return value
    if isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)):
        raise JobValidationError(
            f"field {name!r} must be {types}, got a bool")
    if not isinstance(value, types):
        raise JobValidationError(
            f"field {name!r} must be {getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}")
    return value


def parse_request(data: object) -> "Tuple[str, JobSpec, int]":
    """Validate one job-request dict → ``(kind, spec, priority)``.

    Raises :class:`JobValidationError` with a structured payload on any
    malformed field — unknown kind, unknown benchmark/policy/test name,
    wrong types, stray keys — so a typo is a 400, not a queued job that
    explodes in a worker.
    """
    if not isinstance(data, dict):
        raise JobValidationError(
            f"job request must be an object, got {type(data).__name__}")
    kind = data.get("kind", "bench")
    if kind not in JOB_KINDS:
        raise JobValidationError(
            f"unknown job kind {kind!r}", {"kinds": list(JOB_KINDS)})
    priority = _require_type(data, "priority", int, DEFAULT_PRIORITY)

    if kind == "litmus":
        allowed = {"kind", "priority", "name", "models"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise JobValidationError(
                f"unknown field(s) for a litmus job: {unknown}")
        name = data.get("name")
        if not isinstance(name, str):
            raise JobValidationError("litmus jobs need a 'name' string")
        if name not in litmus_registry():
            raise JobValidationError(
                f"unknown litmus test {name!r}",
                {"known": sorted(litmus_registry())})
        registered = model_names()
        models = data.get("models")
        if models is None:
            models = list(registered)
        if (not isinstance(models, list) or not models
                or not all(isinstance(m, str) for m in models)):
            raise JobValidationError(
                "'models' must be a non-empty list of model names")
        bad = sorted(set(models) - set(registered))
        if bad:
            raise JobValidationError(
                f"unknown model(s) {bad}", {"models": list(registered)})
        return kind, LitmusSpec(name, tuple(models)), priority

    if kind == "leak":
        allowed = {"kind", "priority", "gadget", "policies"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise JobValidationError(
                f"unknown field(s) for a leak job: {unknown}")
        gadget = data.get("gadget")
        if not isinstance(gadget, str):
            raise JobValidationError("leak jobs need a 'gadget' string")
        from repro.leakage import GADGETS
        if gadget not in GADGETS:
            raise JobValidationError(
                f"unknown gadget {gadget!r}", {"known": sorted(GADGETS)})
        policies = data.get("policies")
        if policies is None:
            policies = list(POLICY_ORDER)
        if (not isinstance(policies, list) or not policies
                or not all(isinstance(p, str) for p in policies)):
            raise JobValidationError(
                "'policies' must be a non-empty list of policy names")
        bad = sorted(set(policies) - set(POLICY_ORDER))
        if bad:
            raise JobValidationError(
                f"unknown policy(ies) {bad}",
                {"policies": list(POLICY_ORDER)})
        return kind, LeakSpec(gadget, tuple(policies)), priority

    if kind == "synth":
        allowed = {"kind", "priority", "bounds", "pairs", "chunk",
                   "chunks", "limit"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise JobValidationError(
                f"unknown field(s) for a synth job: {unknown}")
        from repro.synth.search import MODEL_PAIRS
        from repro.synth.space import LATTICE, SynthBounds
        bounds_data = data.get("bounds")
        if not isinstance(bounds_data, dict):
            raise JobValidationError("synth jobs need a 'bounds' object")
        try:
            bounds = SynthBounds.from_dict(bounds_data)
        except (TypeError, ValueError) as exc:
            raise JobValidationError(f"bad synth bounds: {exc}")
        pairs_data = data.get("pairs")
        if pairs_data is None:
            pairs_data = [list(pair) for pair in MODEL_PAIRS]
        if (not isinstance(pairs_data, list) or not pairs_data
                or not all(isinstance(p, list) and len(p) == 2
                           and all(isinstance(m, str) for m in p)
                           for p in pairs_data)):
            raise JobValidationError(
                "'pairs' must be a non-empty list of [strong, weak] "
                "model-name pairs")
        for strong, weak in pairs_data:
            bad = sorted({strong, weak} - set(LATTICE))
            if bad:
                raise JobValidationError(
                    f"unknown model(s) {bad}", {"models": list(LATTICE)})
            if LATTICE.index(strong) >= LATTICE.index(weak):
                raise JobValidationError(
                    f"pair [{strong}, {weak}] is not (stronger, weaker) "
                    f"in the {' / '.join(LATTICE)} lattice")
        chunk = _require_type(data, "chunk", int, 0)
        chunks = _require_type(data, "chunks", int, 1)
        if chunks < 1 or not (0 <= chunk < chunks):
            raise JobValidationError(
                f"bad chunk {chunk}/{chunks}: need 0 <= chunk < chunks")
        limit = _require_type(data, "limit", int, 0)
        if limit < 0:
            raise JobValidationError("'limit' must be >= 0")
        return kind, SynthSpec(
            bounds=bounds,
            pairs=tuple((strong, weak) for strong, weak in pairs_data),
            chunk=chunk, chunks=chunks, limit=limit), priority

    # bench / sweep: a SweepJob in wire form.
    spec_fields = {k: v for k, v in data.items()
                   if k not in ("kind", "priority")}
    try:
        job = SweepJob.from_dict(spec_fields)
    except (TypeError, ValueError) as exc:
        raise JobValidationError(str(exc))
    _require_type(spec_fields, "name", str, None)
    _require_type(spec_fields, "policy", str, None)
    _require_type(spec_fields, "cores", int, None)
    _require_type(spec_fields, "length", int, None)
    _require_type(spec_fields, "seed", int, None)
    _require_type(spec_fields, "obs", bool, False)
    _require_type(spec_fields, "detect_violations", bool, False)
    _require_type(spec_fields, "memdep_hints", bool, True)
    _require_type(spec_fields, "obs_sample_interval", int, 64)
    if job.policy not in POLICY_ORDER:
        raise JobValidationError(
            f"unknown policy {job.policy!r}",
            {"policies": list(POLICY_ORDER)})
    from repro.workloads.profiles import PROFILES
    if job.name not in PROFILES:
        raise JobValidationError(
            f"unknown benchmark {job.name!r}",
            {"known": sorted(PROFILES)})
    # A bench or sweep job runs on the paper's system: a core count it
    # lacks is a 400 here, not a failure in a worker.
    from repro.sim.config import SKYLAKE_LIKE
    if job.cores < 1 or job.cores > SKYLAKE_LIKE.cores:
        raise JobValidationError(
            f"'cores' must be in [1, {SKYLAKE_LIKE.cores}]")
    if job.length is not None and job.length < 1:
        raise JobValidationError("'length' must be >= 1")
    if job.obs_sample_interval < 1:
        raise JobValidationError("'obs_sample_interval' must be >= 1")
    return kind, job, priority


def spec_to_dict(kind: str, spec: JobSpec) -> Dict:
    """Wire form of a parsed spec (inverse of :func:`parse_request`,
    minus the priority)."""
    if isinstance(spec, LitmusSpec):
        return {"kind": "litmus", "name": spec.name,
                "models": list(spec.models)}
    if isinstance(spec, LeakSpec):
        return {"kind": "leak", "gadget": spec.gadget,
                "policies": list(spec.policies)}
    if isinstance(spec, SynthSpec):
        return {"kind": "synth", "bounds": spec.bounds.to_dict(),
                "pairs": [list(pair) for pair in spec.pairs],
                "chunk": spec.chunk, "chunks": spec.chunks,
                "limit": spec.limit}
    out = {"kind": kind}
    out.update(spec.to_dict())
    return out


def request_key(spec: JobSpec) -> str:
    """The idempotency / cache key of a request's *result*.

    Sweep cells reuse :func:`repro.sweep.runner.job_key` verbatim, so
    the service's store and the sweep runner's disk cache are one
    namespace: a result computed by either is a hit for both.  Litmus
    keys hash the (name, models) closure plus the simulator source
    version, like every other key.
    """
    if isinstance(spec, SweepJob):
        return job_key(spec)
    if isinstance(spec, LeakSpec):
        return content_key({
            "schema": 1,
            "kind": "leak",
            "gadget": spec.gadget,
            "policies": list(spec.policies),
            "code": code_version(),
        })
    if isinstance(spec, SynthSpec):
        return content_key({
            "schema": 1,
            "kind": "synth",
            "bounds": spec.bounds.to_dict(),
            "pairs": [list(pair) for pair in spec.pairs],
            "chunk": spec.chunk,
            "chunks": spec.chunks,
            "limit": spec.limit,
            "code": code_version(),
        })
    return content_key({
        "schema": 1,
        "kind": "litmus",
        "name": spec.name,
        "models": list(spec.models),
        "code": code_version(),
    })


# ----------------------------------------------------------------------
# Execution (worker side)
# ----------------------------------------------------------------------

def execute_litmus(spec: LitmusSpec) -> Dict:
    """Enumerate a litmus test; deterministic, JSON-safe payload."""
    program = litmus_registry()[spec.name]
    models: Dict[str, List[str]] = {}
    for model in spec.models:
        outcomes = enumerate_outcomes(program, model)
        models[model] = sorted(str(o) for o in outcomes)
    return {
        "kind": "litmus",
        "name": spec.name,
        "models": models,
        "counts": {model: len(out) for model, out in models.items()},
    }


def execute_leak(spec: LeakSpec) -> Dict:
    """Run one gadget under each requested policy with tracking on."""
    from repro.leakage import GADGETS, leak_run

    gadget = GADGETS[spec.gadget]
    policies: Dict[str, Dict] = {}
    for policy in spec.policies:
        stats, _report, _system = leak_run(gadget, policy)
        policies[policy] = stats.leakage
    return {
        "kind": "leak",
        "gadget": spec.gadget,
        "policies": policies,
        "leaked_lines": {policy: len(report["leaked_lines"])
                         for policy, report in policies.items()},
    }


def execute_synth(spec: SynthSpec) -> Dict:
    """Search one synthesis chunk; deterministic, JSON-safe payload
    (the :class:`repro.synth.search.SynthResult` wire form)."""
    from repro.synth.search import search

    result = search(spec.bounds, pairs=spec.pairs, chunk=spec.chunk,
                    chunks=spec.chunks, limit=spec.limit)
    payload = result.to_dict()
    payload["kind"] = "synth"
    return payload


def execute_request(spec: JobSpec, timeout: Optional[float] = None
                    ) -> Dict:
    """Run one job spec to completion under the deadline guard.

    Module-level (pickles for the process pool).  Returns the result
    payload the store persists: for sweep cells this is exactly
    ``SystemStats.to_dict()`` — the same bytes ``run_sweep`` caches.
    """
    if isinstance(spec, SweepJob):
        return with_deadline(lambda: execute_job(spec), timeout,
                             f"{spec.name}/{spec.policy}")
    if isinstance(spec, LeakSpec):
        return with_deadline(lambda: execute_leak(spec), timeout,
                             f"leak:{spec.gadget}")
    if isinstance(spec, SynthSpec):
        return with_deadline(
            lambda: execute_synth(spec), timeout,
            f"synth:{spec.chunk}/{spec.chunks}")
    return with_deadline(lambda: execute_litmus(spec), timeout,
                         f"litmus:{spec.name}")


# ----------------------------------------------------------------------
# The job record
# ----------------------------------------------------------------------

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"

_ids = itertools.count(1)


def next_job_id() -> str:
    """Process-unique job id (monotone; readable in logs)."""
    return f"job-{next(_ids):06d}"


@dataclass
class Job:
    """One submitted job: spec + lifecycle + result.

    ``key`` is the idempotency key; several Job records may share it
    (duplicate submissions), in which case exactly one is the *primary*
    the pool executes and the rest are marked ``deduped`` and complete
    together with it.
    """

    id: str
    kind: str
    spec: JobSpec
    key: str
    priority: int = DEFAULT_PRIORITY
    state: str = QUEUED
    shard: Optional[int] = None
    deduped: bool = False
    cache_hit: bool = False
    attempts: int = 0
    submitted_at: float = 0.0          # time.monotonic()
    finished_at: Optional[float] = None
    result: Optional[Dict] = None
    error: Optional[Dict] = None
    rejection: Optional[Dict] = None
    # Set by the service; completion is signalled through it so HTTP
    # long-polls (?wait=) and the drain path can await jobs cheaply.
    _done_event: Optional[object] = field(default=None, repr=False)

    def to_dict(self, include_result: bool = True) -> Dict:
        """The API's job-status document."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "spec": spec_to_dict(self.kind, self.spec),
            "key": self.key,
            "priority": self.priority,
            "state": self.state,
            "shard": self.shard,
            "deduped": self.deduped,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
        }
        if self.state == DONE and include_result:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.rejection is not None:
            out["rejection"] = self.rejection
        return out
