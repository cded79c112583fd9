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
acyclicity, is that of the transitive relations.

There are two judges over one candidate enumeration:

* :func:`outcome_profile`, the one-pass, all-models judge that
  ``synth``, ``repro zoo``, ``lint --litmus`` and the conformance check
  run, gives every event a bit and decides each candidate on integer
  successor masks (:func:`acyclic`): no edge objects, no witness;
* :func:`classify` and :meth:`Candidate.judge` build labelled
  :class:`Edge` sets and test them with a **Kahn indegree peel**
  (:func:`find_cycle`) that extracts a concrete witness cycle from the
  unpeeled residue.  Every forbidden outcome carries that cycle
  (:class:`CycleWitness`), which ``repro explain`` renders and the lint
  race report classifies.  This path is also the independent reference
  the mask judge is tested against.

:mod:`repro.models.conformance` checks this engine against the
operational machines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.litmus.program import (Cas, Ld, Outcome, Program, Rmw, St)
from repro.models import get_model, model_names, po_access_pairs
from repro.models.base import Event, PoPair

#: The models with an axiomatic definition, strongest first.
MODELS = model_names(axiomatic_only=True)

#: model name -> complete allowed outcome set
Profile = Dict[str, FrozenSet[Outcome]]

#: The read-from edge kinds a model's ``grf`` predicate decides on.
RF_KINDS = ("rfi", "rfe", "rf-init")

#: One coherence choice: per address (in ``program.addresses`` order),
#: the bits of its active writes in coherence order.
CoChoice = Tuple[Tuple[int, ...], ...]


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


def rf_kind(source: Event, read: Event) -> str:
    """The kind of the rf edge ``source -> read``: ``rf-init`` from an
    initial write, ``rfi`` within a thread (store-to-load forwarding),
    ``rfe`` across threads."""
    if source[0] < 0:
        return "rf-init"
    return "rfi" if source[0] == read[0] else "rfe"


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
    :class:`Candidate` adds one concrete (rf, co) pick on top.  Every
    event also has a bit (:attr:`events`, :attr:`bit`): the initial
    writes first, one per address, then the reads, then the writes, so
    a relation over the program packs into one integer (see
    :func:`acyclic`).
    """

    __slots__ = ("program", "addresses", "loads", "stores", "locked",
                 "init_events", "value_of", "po_pairs", "events", "bit",
                 "rf_domains", "co_writes", "cas")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.addresses: Tuple[str, ...] = program.addresses
        #: (event, op) — loads plus the read half of every locked op.
        self.loads: List[Tuple[Event, object]] = []
        #: (event, op) — stores plus the write half of every locked op.
        self.stores: List[Tuple[Event, object]] = []
        #: (read event, write event, op) per locked instruction.
        self.locked: List[Tuple[Event, Event, object]] = []
        self.init_events: Dict[str, Event] = {}
        self.value_of: Dict[Event, int] = {}
        for ordinal, addr in enumerate(self.addresses):
            init = (-1, ordinal)
            self.init_events[addr] = init
            self.value_of[init] = program.initial_value(addr)
        for tid, thread in enumerate(program.threads):
            for idx, op in enumerate(thread):
                event = (tid, idx)
                if isinstance(op, Ld):
                    self.loads.append((event, op))
                elif isinstance(op, St):
                    self.stores.append((event, op))
                    self.value_of[event] = op.value
                elif isinstance(op, (Rmw, Cas)):
                    write = (tid, idx, 1)
                    self.loads.append((event, op))
                    self.stores.append((write, op))
                    self.locked.append((event, write, op))
                    self.value_of[write] = op.value
        self.po_pairs: List[PoPair] = list(po_access_pairs(program))
        #: Every event in bit order: initial writes, reads, writes.
        self.events: List[Event] = (
            [self.init_events[addr] for addr in self.addresses]
            + [event for event, _ in self.loads]
            + [event for event, _ in self.stores])
        self.bit: Dict[Event, int] = {
            event: index for index, event in enumerate(self.events)}
        #: Per read, the bits it may read from: the initial write, then
        #: the same-address writes in program order.
        self.rf_domains: List[List[int]] = [
            [self.bit[self.init_events[op.addr]]]
            + [self.bit[event] for event, store in self.stores
               if store.addr == op.addr]
            for _, op in self.loads]
        #: Per address, the bits of its writes.
        self.co_writes: List[List[int]] = [
            [self.bit[event] for event, store in self.stores
             if store.addr == addr]
            for addr in self.addresses]
        #: (read index, write bit, expect) per cas: the write happens
        #: only when the read's source holds ``expect``.
        self.cas: List[Tuple[int, int, int]] = [
            (self.bit[read] - len(self.addresses), self.bit[write],
             op.expect)
            for read, write, op in self.locked if isinstance(op, Cas)]

    def rf_picks(self) -> Iterator[Tuple[Tuple[int, ...], int,
                                         List[CoChoice]]]:
        """Every rf choice whose sources all happen, in candidate order.

        Yields ``(rf, inactive, co_choices)``: the source bit of each
        read, the mask of the writes that do not happen (the write half
        of a cas whose read saw a value other than ``expect``), and every
        coherence choice over the writes that do.  The last read's
        source varies fastest, as does the last address's order within
        a coherence choice; each address's orders come in
        :func:`itertools.permutations` order.
        """
        value = [self.value_of.get(event) for event in self.events]
        co_choices: Dict[int, List[CoChoice]] = {}
        for rf in itertools.product(*self.rf_domains):
            inactive = 0
            for read, write, expect in self.cas:
                if value[rf[read]] != expect:
                    inactive |= 1 << write
            if inactive and any(inactive >> source & 1 for source in rf):
                continue   # a read sources a write that never happens
            choices = co_choices.get(inactive)
            if choices is None:
                choices = co_choices[inactive] = list(itertools.product(*(
                    itertools.permutations(
                        [write for write in writes
                         if not inactive >> write & 1])
                    for writes in self.co_writes)))
            yield rf, inactive, choices

    def candidates(self) -> Iterator["Candidate"]:
        """Every candidate execution: an rf source per read crossed
        with a coherence order per address (over the writes that are
        *active* under the rf choice — a failed cas writes nothing)."""
        events = self.events
        reads = [event for event, _ in self.loads]
        for rf, inactive, co_choices in self.rf_picks():
            sources = dict(zip(reads, [events[source] for source in rf]))
            active = frozenset(
                event for event, _ in self.stores
                if not inactive >> self.bit[event] & 1)
            for co in co_choices:
                yield Candidate(self, sources, {
                    addr: tuple(events[write] for write in order)
                    for addr, order in zip(self.addresses, co)}, active)


class Candidate:
    """One candidate execution: an (rf, co) choice over the analysis."""

    __slots__ = ("analysis", "rf", "co", "active")

    def __init__(self, analysis: RelationAnalysis,
                 rf: Dict[Event, Event],
                 co: Dict[str, Tuple[Event, ...]],
                 active: frozenset) -> None:
        self.analysis = analysis
        self.rf = rf
        self.co = co
        self.active = active

    # -- relations -----------------------------------------------------
    def rf_edges(self) -> List[Edge]:
        return [Edge(source, load, rf_kind(source, load))
                for load, source in self.rf.items()]

    def co_edges(self) -> List[Edge]:
        """Immediate-successor coherence edges (init first)."""
        edges = []
        for addr in self.analysis.addresses:
            chain = (self.analysis.init_events[addr],) + self.co[addr]
            for a, b in zip(chain, chain[1:]):
                edges.append(Edge(a, b, "co"))
        return edges

    def fr_edges(self) -> List[Edge]:
        """First-successor from-read edges: each load precedes the
        store immediately co-after its source (transitively, via co,
        every later store — same closure as full fr)."""
        successor: Dict[Event, Event] = {}
        for addr in self.analysis.addresses:
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
        for addr in self.analysis.addresses:
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
        for addr in analysis.addresses:
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


def acyclic(relation: int, nodes: int, stride: int) -> bool:
    """Whether ``relation`` is acyclic on the events in the ``nodes``
    mask.

    ``relation`` packs one successor mask per event, ``stride`` bits
    apart: bit ``i * stride + j`` is the edge ``i -> j``.  A Kahn peel
    from the sink end: every event with no successor left is removed,
    until nothing is left (acyclic) or a pass removes nothing (every
    event left has a successor left, so a cycle remains).
    """
    while nodes:
        left = rest = nodes
        while rest:
            low = rest & -rest
            if not (relation >> (low.bit_length() - 1) * stride) & left:
                left ^= low
            rest ^= low
        if left == nodes:
            return False
        nodes = left
    return True


def _union(table: List[List[int]], picks: Sequence[int]) -> int:
    """The edges ``table[i][picks[i]]`` together: per read, the edge of
    the source it picks."""
    edges = 0
    for row, pick in zip(table, picks):
        edges |= row[pick]
    return edges


def _rf_table(analysis: RelationAnalysis, kinds: FrozenSet[str]
              ) -> List[List[int]]:
    """Per read, by source bit: the packed rf edge ``source -> read``
    when its kind is one of ``kinds``, else 0."""
    events, stride = analysis.events, len(analysis.events)
    table = []
    for (read, _), domain in zip(analysis.loads, analysis.rf_domains):
        row = [0] * stride
        for source in domain:
            if rf_kind(events[source], read) in kinds:
                row[source] = 1 << (source * stride + analysis.bit[read])
        table.append(row)
    return table


def _coherence(analysis: RelationAnalysis, values: List[Optional[int]],
               co: CoChoice) -> Tuple:
    """What one coherence choice fixes: the final memory value per
    address, the co edges, per read its fr edge by source, and each
    event's co-successor (-1 for none)."""
    stride = len(analysis.events)
    after = [-1] * stride
    co_edges = 0
    for prev, order in enumerate(co):     # address i's initial write: bit i
        for write in order:
            co_edges |= 1 << (prev * stride + write)
            after[prev] = write
            prev = write
    fr_table = []
    for (read, _), domain in zip(analysis.loads, analysis.rf_domains):
        row = [0] * stride
        for source in domain:
            if after[source] >= 0:
                row[source] = 1 << (analysis.bit[read] * stride
                                    + after[source])
        fr_table.append(row)
    memory = tuple(values[order[-1] if order else addr]
                   for addr, order in enumerate(co))
    return memory, co_edges, fr_table, after


def outcome_profile(program: Program,
                    models: Sequence[str] = MODELS) -> Profile:
    """The complete allowed-outcome set of ``program`` per model.

    Agrees with ``classify(program, m).allowed`` for every model ``m``
    while enumerating the candidate space exactly once, on bitmask
    relations (see :func:`acyclic` for the packing).  What does not
    depend on the candidate is built once per set of active writes:
    the po-loc and each model's ppo relation, and per coherence choice
    its co edges, fr edges and final memory.  A candidate whose outcome
    every model already allows is skipped.  Otherwise it checks the
    model-independent RMW atomicity and uniproc axioms once, then runs
    :func:`acyclic` on ``ppo ∪ grf ∪ co ∪ fr`` for each model that
    does not allow the outcome yet.  The initial writes are never
    peeled: no edge enters one, so none lies on a cycle.
    """
    models = tuple(dict.fromkeys(models))
    for model in models:
        require_axiomatic(model)
    analysis = RelationAnalysis(program)
    bit, stride = analysis.bit, len(analysis.events)
    axioms = [get_model(model).axiomatic for model in models]
    rf_all = _rf_table(analysis, frozenset(RF_KINDS))
    rf_global = [
        _rf_table(analysis,
                  frozenset(kind for kind in RF_KINDS if axiom.grf(kind)))
        for axiom in axioms]
    #: per po pair: its packed edge, the mask of its write events, and
    #: whether it is po-loc and kept by each model's ppo
    pairs = [(1 << (bit[pair.a] * stride + bit[pair.b]),
              (pair.a_store << bit[pair.a]) | (pair.b_store << bit[pair.b]),
              pair.same_addr, [axiom.ppo(pair) for axiom in axioms])
             for pair in analysis.po_pairs]
    values = [analysis.value_of.get(event) for event in analysis.events]
    n_init = len(analysis.addresses)
    thread_events = (1 << stride) - (1 << n_init)
    locked = [(bit[read] - n_init, bit[write])
              for read, write, _ in analysis.locked]
    everyone = (1 << len(models)) - 1

    variants: Dict[int, Tuple] = {}
    admitted: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    for rf, inactive, co_choices in analysis.rf_picks():
        variant = variants.get(inactive)
        if variant is None:
            po_loc = 0
            ppo = [0] * len(models)
            for edge, writes, same_addr, kept in pairs:
                if writes & inactive:
                    continue          # the write half of a failed cas
                if same_addr:
                    po_loc |= edge
                for m, keep in enumerate(kept):
                    if keep:
                        ppo[m] |= edge
            variant = variants[inactive] = (
                po_loc, ppo,
                [_coherence(analysis, values, co) for co in co_choices],
                [(read, write) for read, write in locked
                 if not inactive >> write & 1])
        po_loc, ppo, coherence, atomic = variant
        live = thread_events & ~inactive
        registers = tuple(values[source] for source in rf)
        uniproc = po_loc | _union(rf_all, rf)
        ghb = [static | _union(table, rf)
               for static, table in zip(ppo, rf_global)]
        for memory, co_edges, fr_table, after in coherence:
            key = (registers, memory)
            allowed = admitted.get(key, 0)
            if allowed == everyone:
                continue
            if atomic and any(after[rf[read]] != write
                              for read, write in atomic):
                continue              # RMW atomicity
            candidate = co_edges | _union(fr_table, rf)
            if not acyclic(uniproc | candidate, live, stride):
                continue              # sc-per-location
            for m, static in enumerate(ghb):
                if not allowed >> m & 1 and \
                        acyclic(static | candidate, live, stride):
                    allowed |= 1 << m
            admitted[key] = allowed

    names = [(event[0], op.reg) for event, op in analysis.loads]
    profile: Dict[str, set] = {model: set() for model in models}
    for (registers, memory), allowed in admitted.items():
        outcome = Outcome(
            registers=tuple(sorted(zip(names, registers))),
            memory=tuple(sorted(zip(analysis.addresses, memory))))
        for m, model in enumerate(models):
            if allowed >> m & 1:
                profile[model].add(outcome)
    return {model: frozenset(found) for model, found in profile.items()}
