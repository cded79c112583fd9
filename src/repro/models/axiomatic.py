"""The axiomatic engine: herd-style relation analysis over litmus programs.

Candidate executions of a :class:`~repro.litmus.program.Program` are
enumerated by choosing, for each read, the write it reads from (``rf``)
and, per location, a total coherence order over the writes (``co``);
``fr = rf⁻¹ ; co`` follows.  A candidate is allowed under a model when

* **sc-per-location** (uniproc): ``po-loc ∪ rf ∪ co ∪ fr`` is acyclic;
* **atomicity**: every locked write is the immediate ``co``-successor
  of its paired read's ``rf`` source;
* **global happens-before**: ``ghb = ppo ∪ grf ∪ co ∪ fr`` is acyclic,

with each model's ``ppo``/``grf`` predicates resolved from the registry
(:mod:`repro.models`): SC keeps everything; 370 and x86 relax st→ld and
differ only in whether ``rfi`` (store-to-load forwarding) is global —
the paper's Figure 2 distinction; WMM keeps ld→st plus whatever fences,
acquire loads, release stores and locked instructions restore.  PC has
no axiomatic definition (its operational machine is its ground truth).

Locked read-modify-writes contribute a read event ``(tid, idx)`` plus a
write event ``(tid, idx, 1)``; a failed cas performs no write (its
write event is inactive).  Only **immediate-successor** ``co`` edges
(and first-successor ``fr`` edges) are built — reachability, hence
acyclicity, is that of the transitive relations — and acyclicity is
tested with a **Kahn indegree peel** that extracts a concrete witness
cycle from the unpeeled residue.

Every forbidden outcome carries that cycle (:class:`CycleWitness`),
which ``repro explain`` renders and the lint race report classifies.
:func:`outcome_profile` is the one-pass, all-models judge the synthesis
search runs; :mod:`repro.models.conformance` checks this engine against
the operational machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.litmus.program import (Cas, Ld, Outcome, Program, Rmw, St)
from repro.models import get_model, model_names, po_access_pairs
from repro.models.base import Event, PoPair

#: The models with an axiomatic definition, strongest first.
MODELS = model_names(axiomatic_only=True)

#: model name -> complete allowed outcome set
Profile = Dict[str, FrozenSet[Outcome]]


def require_axiomatic(model: str) -> None:
    """Raise ValueError unless ``model`` is registered and carries an
    axiomatic definition."""
    if model not in MODELS:
        get_model(model)          # "unknown model" for unregistered names
        raise ValueError(f"no axiomatic definition for model {model!r}; "
                         f"axiomatic models: {', '.join(MODELS)}")


@dataclass(frozen=True)
class Edge:
    """One labelled happens-before edge of a candidate execution."""

    src: Event
    dst: Event
    kind: str  # po|ppo|po-loc|fence | rfi|rfe|rf-init | co|fr | atom

    def sort_key(self) -> Tuple[Event, Event, str]:
        return (self.src, self.dst, self.kind)


@dataclass(frozen=True)
class CycleWitness:
    """A happens-before cycle proving an outcome forbidden."""

    axiom: str               # "sc-per-location" | "atomicity" | "ghb"
    edges: Tuple[Edge, ...]

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(edge.kind for edge in self.edges)

    def has_kind(self, kind: str) -> bool:
        return any(edge.kind == kind for edge in self.edges)

    def communication_edges(self) -> Tuple[Edge, ...]:
        """The rf/fr/co (and RMW-atomicity) edges of the cycle — the
        inter-thread communication chain, stripped of intra-thread
        program order."""
        return tuple(e for e in self.edges
                     if e.kind in ("rfi", "rfe", "rf-init", "co", "fr",
                                   "atom"))


def event_name(program: Program, event: Event) -> str:
    tid = event[0]
    if tid < 0:
        return f"init[{program.addresses[event[1]]}]"
    op = program.threads[tid][event[1]]
    if isinstance(op, (Rmw, Cas)):
        return f"T{tid}:{op} [{'W' if len(event) == 3 else 'R'}]"
    return f"T{tid}:{op}"


def render_cycle(program: Program, witness: CycleWitness) -> List[str]:
    return [f"{event_name(program, e.src)}  --{e.kind}-->  "
            f"{event_name(program, e.dst)}" for e in witness.edges]


class RelationAnalysis:
    """Relation scaffolding for one program: events, accesses, po.

    Everything here is independent of the rf/co choice; a
    :class:`Candidate` adds one concrete (rf, co) pick on top.
    """

    __slots__ = ("program", "loads", "stores", "locked", "init_events",
                 "addr_of", "value_of", "po_pairs")

    def __init__(self, program: Program) -> None:
        self.program = program
        #: (event, op) — loads plus the read half of every locked op.
        self.loads: List[Tuple[Event, object]] = []
        #: (event, op) — stores plus the write half of every locked op.
        self.stores: List[Tuple[Event, object]] = []
        #: (read event, write event, op) per locked instruction.
        self.locked: List[Tuple[Event, Event, object]] = []
        self.init_events: Dict[str, Event] = {}
        self.addr_of: Dict[Event, str] = {}
        self.value_of: Dict[Event, int] = {}
        for ordinal, addr in enumerate(program.addresses):
            init = (-1, ordinal)
            self.init_events[addr] = init
            self.addr_of[init] = addr
            self.value_of[init] = program.initial_value(addr)
        for tid, thread in enumerate(program.threads):
            for idx, op in enumerate(thread):
                event = (tid, idx)
                if isinstance(op, Ld):
                    self.loads.append((event, op))
                    self.addr_of[event] = op.addr
                elif isinstance(op, St):
                    self.stores.append((event, op))
                    self.addr_of[event] = op.addr
                    self.value_of[event] = op.value
                elif isinstance(op, (Rmw, Cas)):
                    write = (tid, idx, 1)
                    self.loads.append((event, op))
                    self.stores.append((write, op))
                    self.locked.append((event, write, op))
                    self.addr_of[event] = op.addr
                    self.addr_of[write] = op.addr
                    self.value_of[write] = op.value
        self.po_pairs: List[PoPair] = list(po_access_pairs(program))

    def candidates(self) -> Iterator["Candidate"]:
        """Every candidate execution: an rf source per read crossed
        with a coherence order per address (over the writes that are
        *active* under the rf choice — a failed cas writes nothing)."""
        rf_domains: List[List[Event]] = []
        for _, op in self.loads:
            domain = [self.init_events[op.addr]]
            domain.extend(event for event, store in self.stores
                          if store.addr == op.addr)
            rf_domains.append(domain)

        def co_orders(addr_index: int, active: frozenset,
                      chosen: Dict[str, Tuple[Event, ...]]
                      ) -> Iterator[Dict[str, Tuple[Event, ...]]]:
            if addr_index == len(self.program.addresses):
                yield dict(chosen)
                return
            addr = self.program.addresses[addr_index]
            events = [event for event, store in self.stores
                      if store.addr == addr and event in active]
            for order in _permutations(events):
                chosen[addr] = order
                yield from co_orders(addr_index + 1, active, chosen)
            chosen.pop(addr, None)

        def rf_assignments(load_index: int, chosen: Dict[Event, Event]
                           ) -> Iterator[Dict[Event, Event]]:
            if load_index == len(self.loads):
                yield dict(chosen)
                return
            load_event, _ = self.loads[load_index]
            for source in rf_domains[load_index]:
                chosen[load_event] = source
                yield from rf_assignments(load_index + 1, chosen)
            chosen.pop(load_event, None)

        for rf in rf_assignments(0, {}):
            active = self._active_writes(rf)
            if any(source[0] >= 0 and source not in active
                   for source in rf.values()):
                continue   # a read sources a write that never happens
            for co in co_orders(0, active, {}):
                yield Candidate(self, rf, co, active)

    def _active_writes(self, rf: Dict[Event, Event]) -> frozenset:
        """The writes that happen under ``rf``: everything except the
        write half of a cas whose read saw a value != expect."""
        active = {event for event, _ in self.stores}
        for read, write, op in self.locked:
            if isinstance(op, Cas) and \
                    self.value_of[rf[read]] != op.expect:
                active.discard(write)
        return frozenset(active)


def _permutations(items: List[Event]) -> Iterator[Tuple[Event, ...]]:
    if not items:
        yield ()
        return
    for i in range(len(items)):
        rest = items[:i] + items[i + 1:]
        for tail in _permutations(rest):
            yield (items[i],) + tail


class Candidate:
    """One candidate execution: an (rf, co) choice over the analysis."""

    __slots__ = ("analysis", "rf", "co", "active")

    def __init__(self, analysis: RelationAnalysis,
                 rf: Dict[Event, Event],
                 co: Dict[str, Tuple[Event, ...]],
                 active: Optional[frozenset] = None) -> None:
        self.analysis = analysis
        self.rf = rf
        self.co = co
        self.active = analysis._active_writes(rf) \
            if active is None else active

    # -- relations -----------------------------------------------------
    def rf_edges(self) -> List[Edge]:
        edges = []
        for load, source in self.rf.items():
            if source[0] < 0:
                kind = "rf-init"
            elif source[0] == load[0]:
                kind = "rfi"
            else:
                kind = "rfe"
            edges.append(Edge(source, load, kind))
        return edges

    def co_edges(self) -> List[Edge]:
        """Immediate-successor coherence edges (init first)."""
        edges = []
        for addr in self.analysis.program.addresses:
            chain = (self.analysis.init_events[addr],) + self.co[addr]
            for a, b in zip(chain, chain[1:]):
                edges.append(Edge(a, b, "co"))
        return edges

    def fr_edges(self) -> List[Edge]:
        """First-successor from-read edges: each load precedes the
        store immediately co-after its source (transitively, via co,
        every later store — same closure as full fr)."""
        successor: Dict[Event, Event] = {}
        for addr in self.analysis.program.addresses:
            chain = (self.analysis.init_events[addr],) + self.co[addr]
            for a, b in zip(chain, chain[1:]):
                successor[a] = b
        edges = []
        for load, source in self.rf.items():
            nxt = successor.get(source)
            if nxt is not None:
                edges.append(Edge(load, nxt, "fr"))
        return edges

    def _pair_exists(self, pair: PoPair) -> bool:
        """A pair is an edge source only when both events happen (the
        write half of a failed cas does not)."""
        return (not pair.a_store or pair.a in self.active) and \
               (not pair.b_store or pair.b in self.active)

    def uniproc_edges(self) -> List[Edge]:
        edges = self.rf_edges() + self.co_edges() + self.fr_edges()
        for pair in self.analysis.po_pairs:
            if pair.same_addr and self._pair_exists(pair):
                edges.append(Edge(pair.a, pair.b, "po-loc"))
        return edges

    def atomicity_edges(self) -> List[Edge]:
        """Violated-atomicity witness triangles: for a locked op whose
        write is not the immediate co-successor of its read's source,
        the cycle  R --fr--> X --co--> W --atom--> R  (empty list when
        every locked op is atomic)."""
        successor: Dict[Event, Event] = {}
        for addr in self.analysis.program.addresses:
            chain = (self.analysis.init_events[addr],) + self.co[addr]
            for a, b in zip(chain, chain[1:]):
                successor[a] = b
        edges: List[Edge] = []
        for read, write, _op in self.analysis.locked:
            if write not in self.active:
                continue
            intervening = successor.get(self.rf[read])
            if intervening != write:
                edges.extend([Edge(read, intervening, "fr"),
                              Edge(intervening, write, "co"),
                              Edge(write, read, "atom")])
                break
        return edges

    def ghb_edges(self, model: str) -> List[Edge]:
        axiomatic = get_model(model).axiomatic
        edges = self.co_edges() + self.fr_edges()
        for edge in self.rf_edges():
            if axiomatic.grf(edge.kind):
                edges.append(edge)
        for pair in self.analysis.po_pairs:
            if not self._pair_exists(pair):
                continue
            if not axiomatic.ppo(pair):
                continue
            if pair.fence and not axiomatic.ppo(pair.without_fence()):
                kind = "fence"    # kept only because of the barrier
            else:
                kind = "po" if model == "SC" else "ppo"
            edges.append(Edge(pair.a, pair.b, kind))
        return edges

    def outcome(self) -> Outcome:
        analysis = self.analysis
        regs = []
        for load_event, op in analysis.loads:
            source = self.rf[load_event]
            regs.append(((load_event[0], op.reg),
                         analysis.value_of[source]))
        mem = []
        for addr in analysis.program.addresses:
            order = self.co[addr]
            last = order[-1] if order else analysis.init_events[addr]
            mem.append((addr, analysis.value_of[last]))
        return Outcome(registers=tuple(sorted(regs)),
                       memory=tuple(sorted(mem)))

    def universal_witness(self) -> Optional[CycleWitness]:
        """A model-independent violation: an sc-per-location cycle or
        a broken RMW atomicity triangle (None when neither)."""
        cycle = find_cycle(self.uniproc_edges())
        if cycle is not None:
            return CycleWitness("sc-per-location", tuple(cycle))
        triangle = self.atomicity_edges()
        if triangle:
            return CycleWitness("atomicity", tuple(triangle))
        return None

    def judge(self, model: str) -> Optional[CycleWitness]:
        """None when the candidate satisfies the model's axioms, else
        the witness cycle of the first violated axiom."""
        witness = self.universal_witness()
        if witness is not None:
            return witness
        cycle = find_cycle(self.ghb_edges(model))
        if cycle is not None:
            return CycleWitness("ghb", tuple(cycle))
        return None


def find_cycle(edges: Sequence[Edge]) -> Optional[List[Edge]]:
    """Kahn indegree peel; returns a concrete cycle from the residual
    graph, or None when the edge set is acyclic.

    Deterministic: successors are visited in sorted order, so the same
    edge set always yields the same witness cycle.
    """
    succ: Dict[Event, List[Edge]] = {}
    indegree: Dict[Event, int] = {}
    for edge in sorted(edges, key=Edge.sort_key):
        succ.setdefault(edge.src, []).append(edge)
        indegree.setdefault(edge.src, 0)
        indegree[edge.dst] = indegree.get(edge.dst, 0) + 1

    frontier = sorted(n for n, d in indegree.items() if d == 0)
    remaining = dict(indegree)
    while frontier:
        node = frontier.pop()
        remaining.pop(node)
        for edge in succ.get(node, ()):
            remaining[edge.dst] -= 1
            if remaining[edge.dst] == 0:
                frontier.append(edge.dst)
    if not remaining:
        return None

    # The residue holds every cycle plus nodes upstream/downstream of
    # one; peel sinks (no successor inside the residue) the same way to
    # leave only nodes that lie on cycles, then walk until a repeat.
    residue = set(remaining)
    while True:
        sinks = [n for n in residue
                 if not any(e.dst in residue for e in succ.get(n, ()))]
        if not sinks:
            break
        residue.difference_update(sinks)
    start = min(residue)
    path: List[Edge] = []
    seen_at: Dict[Event, int] = {start: 0}
    node = start
    while True:
        edge = next(e for e in succ[node] if e.dst in residue)
        path.append(edge)
        node = edge.dst
        if node in seen_at:
            return path[seen_at[node]:]
        seen_at[node] = len(path)


@dataclass
class Classification:
    """The static verdict for one program under one model."""

    program: Program
    model: str
    allowed: FrozenSet[Outcome] = frozenset()
    forbidden: FrozenSet[Outcome] = frozenset()
    witnesses: Dict[Outcome, CycleWitness] = field(default_factory=dict)

    def witness(self, outcome: Outcome) -> Optional[CycleWitness]:
        return self.witnesses.get(outcome)


def classify(program: Program, model: str) -> Classification:
    """Partition the program's reachable outcomes into allowed and
    forbidden under ``model``, with a witness cycle per forbidden
    outcome (the shortest found across its candidates)."""
    require_axiomatic(model)
    analysis = RelationAnalysis(program)
    allowed: set = set()
    cycles: Dict[Outcome, CycleWitness] = {}
    for candidate in analysis.candidates():
        outcome = candidate.outcome()
        witness = candidate.judge(model)
        if witness is None:
            allowed.add(outcome)
            cycles.pop(outcome, None)
        elif outcome not in allowed:
            best = cycles.get(outcome)
            if best is None or len(witness.edges) < len(best.edges):
                cycles[outcome] = witness
    forbidden = frozenset(o for o in cycles if o not in allowed)
    return Classification(program=program, model=model,
                          allowed=frozenset(allowed), forbidden=forbidden,
                          witnesses={o: cycles[o] for o in forbidden})


def outcome_profile(program: Program,
                    models: Sequence[str] = MODELS) -> Profile:
    """The complete allowed-outcome set of ``program`` per model.

    Agrees with ``classify(program, m).allowed`` for every model ``m``
    while enumerating the candidate space exactly once: the uniproc
    and atomicity axioms are model-independent, so they run once per
    candidate, and only the per-model ghb edge sets differ.
    """
    analysis = RelationAnalysis(program)
    allowed: Dict[str, set] = {model: set() for model in models}
    for candidate in analysis.candidates():
        # uniproc and RMW atomicity are model-independent: once each.
        if candidate.universal_witness() is not None:
            continue
        outcome = candidate.outcome()
        remaining = [model for model in models
                     if outcome not in allowed[model]]
        if not remaining:
            continue
        for model in remaining:
            if find_cycle(candidate.ghb_edges(model)) is None:
                allowed[model].add(outcome)
    return {model: frozenset(found) for model, found in allowed.items()}
