"""The service's job model: requests, idempotency keys, execution.

A *job request* is the JSON clients POST to ``/v1/jobs``.  Each kind is
one spec type that reads and validates its wire fields (``from_dict``),
writes them back (``to_dict``) and names itself in deadline errors
(``label``):

* ``bench`` (alias ``sweep``) — one simulation cell, exactly a
  :class:`~repro.sweep.runner.SweepJob`: benchmark profile × policy ×
  (cores, length, seed, flags), refused when built if it cannot run.
  Executing it calls ``execute_job``, which generates the cell's
  traces, walks its warm-up and simulates, so a result served by the
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
(:func:`~repro.sweep.runner.with_deadline`) around every kind.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import (TYPE_CHECKING, Dict, List, Optional, Tuple,
                    Union)

from repro.core.policies import POLICY_ORDER
from repro.litmus.operational import enumerate_outcomes
from repro.litmus.registry import litmus_registry
from repro.models import model_names
from repro.sweep.cache import code_version, content_key
from repro.sweep.runner import (SweepJob, check_type, execute_job,
                                job_key, with_deadline)

if TYPE_CHECKING:  # pragma: no cover — keeps the synth machinery off
    from repro.synth.space import SynthBounds  # the worker boot path

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


# ----------------------------------------------------------------------
# The spec types and their wire fields
# ----------------------------------------------------------------------

def _require_type(data: Dict, name: str, kind: type, default):
    value = data.get(name, default)
    try:
        check_type(name, value, kind)
    except ValueError as exc:
        raise JobValidationError(str(exc)) from None
    return value


def _refuse_unknown(spec_type, data: Dict) -> None:
    unknown = sorted(set(data) - {f.name for f in fields(spec_type)})
    if unknown:
        raise JobValidationError(
            f"unknown field(s) for a {spec_type.kind} job: {unknown}")


def _member(spec_type, data: Dict, name: str, registry, noun: str) -> str:
    """``data[name]``: a string naming an entry of ``registry``."""
    value = data.get(name)
    if not isinstance(value, str):
        raise JobValidationError(
            f"{spec_type.kind} jobs need a {name!r} string")
    if value not in registry:
        raise JobValidationError(f"unknown {noun} {value!r}",
                                 {"known": sorted(registry)})
    return value


def _members(data: Dict, name: str, registry, noun: str,
             nouns: str) -> Tuple[str, ...]:
    """``data[name]``: a non-empty list of entries of ``registry`` (all
    of them when absent)."""
    values = data.get(name)
    if values is None:
        values = list(registry)
    if (not isinstance(values, list) or not values
            or not all(isinstance(v, str) for v in values)):
        raise JobValidationError(
            f"{name!r} must be a non-empty list of {noun} names")
    bad = sorted(set(values) - set(registry))
    if bad:
        raise JobValidationError(f"unknown {nouns} {bad}",
                                 {name: list(registry)})
    return tuple(values)


def _wire(value):
    """A spec field in JSON form."""
    if isinstance(value, tuple):
        return [_wire(item) for item in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


class _Spec:
    """A litmus, leak or synth spec: its dataclass fields are its wire
    fields, and its class attribute ``kind`` names it in its key and in
    its 400s."""

    def to_dict(self) -> Dict:
        return {f.name: _wire(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class LitmusSpec(_Spec):
    """One litmus enumeration request: a named battery program under a
    tuple of memory models."""

    kind = "litmus"

    name: str
    models: Tuple[str, ...] = model_names()

    @classmethod
    def from_dict(cls, data: Dict) -> "LitmusSpec":
        _refuse_unknown(cls, data)
        name = _member(cls, data, "name", litmus_registry(), "litmus test")
        return cls(name, _members(data, "models", model_names(), "model",
                                  "model(s)"))

    @property
    def label(self) -> str:
        return f"litmus:{self.name}"


@dataclass(frozen=True)
class LeakSpec(_Spec):
    """One leakage-gadget request: a named Spectre gadget under a tuple
    of policies, run with taint tracking attached."""

    kind = "leak"

    gadget: str
    policies: Tuple[str, ...] = tuple(POLICY_ORDER)

    @classmethod
    def from_dict(cls, data: Dict) -> "LeakSpec":
        from repro.leakage import GADGETS
        _refuse_unknown(cls, data)
        gadget = _member(cls, data, "gadget", GADGETS, "gadget")
        return cls(gadget, _members(data, "policies", POLICY_ORDER,
                                    "policy", "policy(ies)"))

    @property
    def label(self) -> str:
        return f"leak:{self.gadget}"


@dataclass(frozen=True)
class SynthSpec(_Spec):
    """One synthesis chunk: search ``chunk`` of ``chunks`` congruence
    classes of a bounded program space for model-pair distinguishers."""

    kind = "synth"

    bounds: "SynthBounds"
    pairs: Tuple[Tuple[str, str], ...]
    chunk: int = 0
    chunks: int = 1
    limit: int = 0

    @classmethod
    def from_dict(cls, data: Dict) -> "SynthSpec":
        from repro.synth.search import MODEL_PAIRS
        from repro.synth.space import LATTICE, SynthBounds
        _refuse_unknown(cls, data)
        bounds_data = data.get("bounds")
        if not isinstance(bounds_data, dict):
            raise JobValidationError("synth jobs need a 'bounds' object")
        try:
            bounds = SynthBounds.from_dict(bounds_data)
        except (TypeError, ValueError) as exc:
            raise JobValidationError(f"bad synth bounds: {exc}")
        pairs = data.get("pairs")
        if pairs is None:
            pairs = [list(pair) for pair in MODEL_PAIRS]
        if (not isinstance(pairs, list) or not pairs
                or not all(isinstance(p, list) and len(p) == 2
                           and all(isinstance(m, str) for m in p)
                           for p in pairs)):
            raise JobValidationError(
                "'pairs' must be a non-empty list of [strong, weak] "
                "model-name pairs")
        for strong, weak in pairs:
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
        return cls(bounds=bounds, pairs=tuple(map(tuple, pairs)),
                   chunk=chunk, chunks=chunks, limit=limit)

    @property
    def label(self) -> str:
        return f"synth:{self.chunk}/{self.chunks}"


#: What a job executes: a sweep cell, or a litmus, leak or synth spec.
JobSpec = Union[SweepJob, LitmusSpec, LeakSpec, SynthSpec]

#: Each request kind's spec type; ``sweep`` is an alias of ``bench``.
_SPEC_TYPES = {"bench": SweepJob, "sweep": SweepJob, "litmus": LitmusSpec,
               "leak": LeakSpec, "synth": SynthSpec}

#: Request kinds accepted by ``POST /v1/jobs``.
JOB_KINDS = tuple(_SPEC_TYPES)


# ----------------------------------------------------------------------
# Request parsing / serialization
# ----------------------------------------------------------------------

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
    spec_fields = {k: v for k, v in data.items()
                   if k not in ("kind", "priority")}
    try:
        return kind, _SPEC_TYPES[kind].from_dict(spec_fields), priority
    except JobValidationError:
        raise
    except ValueError as exc:  # a cell that SweepJob refuses
        raise JobValidationError(str(exc))


def spec_to_dict(kind: str, spec: JobSpec) -> Dict:
    """Wire form of a parsed spec (inverse of :func:`parse_request`,
    minus the priority)."""
    return {"kind": kind, **spec.to_dict()}


def request_key(spec: JobSpec) -> str:
    """The idempotency / cache key of a request's *result*.

    Sweep cells reuse :func:`repro.sweep.runner.job_key` verbatim, so
    the service's store and the sweep runner's disk cache are one
    namespace: a result computed by either is a hit for both.  Every
    other kind hashes its kind and wire fields plus the simulator
    source version.
    """
    if isinstance(spec, SweepJob):
        return job_key(spec)
    return content_key({"schema": 1, "kind": spec.kind, **spec.to_dict(),
                        "code": code_version()})


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
    The executor is looked up at call time, so a wrapper bound over one
    of the module's ``execute_*`` names applies.
    """
    run = {SweepJob: execute_job, LitmusSpec: execute_litmus,
           LeakSpec: execute_leak, SynthSpec: execute_synth}[type(spec)]
    return with_deadline(lambda: run(spec), timeout, spec.label)


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
