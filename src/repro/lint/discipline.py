"""The built-in discipline rules.

Two families, mirroring the repo's two standing guarantees:

* **Determinism** (``det-*``, ``iter-set-order``): the simulator's hot
  loop must be a pure function of its inputs and seeds.  Wall clocks,
  OS entropy, and unseeded RNGs are banned outright; ``set`` iteration
  order (hash-dependent in principle) must never reach an
  order-sensitive consumer unsorted.
* **Zero overhead when disabled** (``obs-*``, ``hot-slots``): probe
  fire sites follow the resolve-once/guarded-fire pattern from
  ``docs/OBSERVABILITY.md`` so a disabled probe costs one attribute
  load and an ``is not None`` test, and hot-loop classes declare
  ``__slots__`` so attribute access skips the instance ``__dict__``.
  The ``obs-*`` rules are ``obs``-scoped: they also cover the
  observer-side packages (``obs``, ``leakage``) where watchers resolve
  and subscribe, and ``obs-probe-registered`` checks every literal
  probe name against the :data:`~repro.obs.bus.PROBE_SIGNATURES`
  registry so a typo'd subscription fails lint, not silently observes
  nothing.

``mut-default`` is repo-wide hygiene: a mutable default argument is
shared across calls and is a classic source of cross-run state leaks.

Every rule here is an AST pattern, not a type analysis — deliberately
simple, deterministic, and explainable.  Each carries a ``rationale``
paragraph rendered by ``repro lint --rules`` and docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.engine import (LintVisitor, Rule, SourceFile, Violation,
                               register)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)


class _CallScanner(LintVisitor):
    """Collects every Call node with its dotted func name."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: List[ast.Call] = []

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)


@register
class WallClockRule(Rule):
    id = "det-wallclock"
    summary = "no wall-clock reads in hot simulation modules"
    rationale = (
        "Simulated time is the Engine's event clock; reading the host's "
        "wall clock (time.time, perf_counter, datetime.now, ...) in "
        "sim/cpu/core/coherence/noc/memory makes behaviour depend on "
        "machine load and breaks byte-for-byte reproducibility. "
        "Timing measurement belongs in the bench harness, outside the "
        "hot loop.")
    scope = "hot"

    _FORBIDDEN = {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.clock_gettime", "time.clock",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
    }

    def check(self, source: SourceFile) -> Iterator[Violation]:
        scanner = _CallScanner()
        scanner.walk(source.tree)
        for call in scanner.calls:
            name = _call_name(call)
            if name in self._FORBIDDEN:
                yield self.violation(
                    source, call,
                    f"wall-clock call {name}() in hot module; simulated "
                    f"time must come from the Engine clock")


@register
class RngRule(Rule):
    id = "det-rng"
    summary = "no unseeded RNG or OS entropy in hot simulation modules"
    rationale = (
        "Randomness in the hot loop must flow from an explicitly seeded "
        "generator threaded through the config (as repro.resilience "
        "does), never from the module-level random.* functions (process-"
        "global state), os.urandom/secrets (OS entropy), uuid.uuid4, or "
        "an unseeded random.Random().  Otherwise two runs with the same "
        "seed diverge and the determinism contract is void.")
    scope = "hot"

    _MODULE_FNS = {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "triangular", "getrandbits", "randbytes", "seed",
        "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate",
    }

    def check(self, source: SourceFile) -> Iterator[Violation]:
        scanner = _CallScanner()
        scanner.walk(source.tree)
        for call in scanner.calls:
            name = _call_name(call)
            if name is None:
                continue
            parts = name.split(".")
            if name == "os.urandom":
                yield self.violation(
                    source, call, "os.urandom() draws OS entropy; "
                    "derive randomness from the seeded config RNG")
            elif parts[0] == "secrets":
                yield self.violation(
                    source, call, f"{name}() draws OS entropy; "
                    "derive randomness from the seeded config RNG")
            elif name in ("uuid.uuid1", "uuid.uuid4"):
                yield self.violation(
                    source, call, f"{name}() is non-deterministic; "
                    "use a counter or the seeded config RNG")
            elif parts[0] == "random" and len(parts) == 2 \
                    and parts[1] in self._MODULE_FNS:
                yield self.violation(
                    source, call,
                    f"{name}() uses the process-global RNG; construct a "
                    f"seeded random.Random(seed) and thread it through")
            elif name in ("random.Random", "random.SystemRandom") \
                    and not call.args and not call.keywords:
                yield self.violation(
                    source, call,
                    f"{name}() without a seed is initialised from OS "
                    f"entropy; pass an explicit seed")
            elif len(parts) >= 2 and "random" in parts[:-1] \
                    and parts[0] in ("np", "numpy"):
                yield self.violation(
                    source, call,
                    f"{name}() uses numpy's global RNG; use a seeded "
                    f"Generator or the config RNG")


class _ResolveScanner(LintVisitor):
    def __init__(self) -> None:
        super().__init__()
        self.hits: List[ast.Call] = []

    _SETUP_FUNCS = ("__init__", "__post_init__", "attach")

    def visit_Call(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "resolve"):
            return
        for fn in self.function_stack:
            name = getattr(fn, "name", None)
            if name in self._SETUP_FUNCS:
                return
            # A helper whose own name starts with ``resolve`` (e.g.
            # ``resolve_squash_probes``) is attach-time machinery its
            # callers invoke from their constructors.
            if name is not None and name.startswith("resolve"):
                return
        self.hits.append(node)


@register
class ResolveOnceRule(Rule):
    id = "obs-resolve-once"
    summary = "probe-bus resolve() only in __init__/__post_init__/attach"
    rationale = (
        "docs/OBSERVABILITY.md's zero-overhead contract: a component "
        "resolves each probe name once at construction (or in attach()) "
        "and caches the callback (or None) on self.  A resolve() inside "
        "a per-event method pays a dict lookup on every event even when "
        "observability is off, defeating the no-op guarantee.  Helpers "
        "named resolve_* (attach-time machinery like "
        "resolve_squash_probes) are exempt.")
    scope = "obs"

    def check(self, source: SourceFile) -> Iterator[Violation]:
        scanner = _ResolveScanner()
        scanner.walk(source.tree)
        for call in scanner.hits:
            name = dotted_name(call.func) or "<expr>.resolve"
            yield self.violation(
                source, call,
                f"{name}() outside __init__/__post_init__/attach; "
                f"resolve probes once at construction and cache on self")


def _guard_covers(test: ast.AST, probe: str) -> bool:
    """Does an ``if`` test establish that ``probe`` (a dotted
    ``self._p_x`` string, or a local bound from one) is not None?
    Accepts ``self._p_x is not None``, plain truthiness ``self._p_x``,
    and either of those inside an ``and`` chain."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_guard_covers(v, probe) for v in test.values)
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.ops[0], ast.IsNot) \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        return dotted_name(test.left) == probe
    return dotted_name(test) == probe


def _is_probe_attr(node: ast.AST) -> bool:
    """Is ``node`` a ``self._p_x`` attribute?"""
    return (isinstance(node, ast.Attribute) and node.attr.startswith("_p_")
            and isinstance(node.value, ast.Name) and node.value.id == "self")


class _FireScanner(LintVisitor):
    def __init__(self) -> None:
        super().__init__()
        self.unguarded: List[ast.Call] = []
        # (enclosing function, local name) of each ``x = self._p_y``.
        self._bound: Set[tuple] = set()

    def _local(self, name: str) -> tuple:
        scope = self.function_stack[-1] if self.function_stack else None
        return id(scope), name

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_probe_attr(node.value):
            self._bound.update(self._local(target.id)
                               for target in node.targets
                               if isinstance(target, ast.Name))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if _is_probe_attr(func):
            probe = f"self.{func.attr}"
        elif isinstance(func, ast.Name) \
                and self._local(func.id) in self._bound:
            probe = func.id
        else:
            return
        for ancestor in reversed(self.ancestors):
            if isinstance(ancestor, ast.If) \
                    and _guard_covers(ancestor.test, probe):
                return
            if isinstance(ancestor, ast.IfExp) \
                    and _guard_covers(ancestor.test, probe):
                return
            if isinstance(ancestor, ast.BoolOp) \
                    and isinstance(ancestor.op, ast.And) \
                    and any(_guard_covers(v, probe)
                            for v in ancestor.values):
                return
        self.unguarded.append(node)


@register
class GuardedFireRule(Rule):
    id = "obs-guarded-fire"
    summary = "probe fires must be guarded by `if self._p_x is not None`"
    rationale = (
        "The second half of the zero-overhead contract: every fire site "
        "`self._p_x(...)` sits under `if self._p_x is not None:` so that "
        "with the NULL_BUS (probes resolve to None) the cost is one "
        "attribute load and a pointer compare — no call, no argument "
        "tuple.  A hot loop that binds the probe to a local "
        "(`p_x = self._p_x`) guards the local the same way.  An "
        "unguarded fire crashes on NULL_BUS or, worse, pays call "
        "overhead on every event.")
    scope = "obs"

    def check(self, source: SourceFile) -> Iterator[Violation]:
        scanner = _FireScanner()
        scanner.walk(source.tree)
        for call in scanner.unguarded:
            name = dotted_name(call.func)
            yield self.violation(
                source, call,
                f"unguarded probe fire {name}(...); wrap in "
                f"`if {name} is not None:`")


class _ProbeNameScanner(LintVisitor):
    """Collects literal probe-name arguments to resolve()/subscribe()."""

    def __init__(self) -> None:
        super().__init__()
        self.hits: List[ast.Constant] = []

    def visit_Call(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("resolve", "subscribe")
                and node.args):
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            self.hits.append(first)


@register
class ProbeRegisteredRule(Rule):
    id = "obs-probe-registered"
    summary = "literal probe names must exist in PROBE_SIGNATURES"
    rationale = (
        "The bus raises on an unknown probe name at wiring time, but "
        "only on the code path actually taken — a watcher wired behind "
        "a flag (like the leakage instrument) can carry a typo'd "
        "subscription for months and silently observe nothing when "
        "finally enabled.  This rule checks every string-literal first "
        "argument to a resolve()/subscribe() call against the "
        "repro.obs.bus.PROBE_SIGNATURES registry, including 'prefix.*' "
        "wildcards (which must match at least one probe).  Dynamic "
        "names (f-strings, variables) are left to the runtime check.")
    scope = "obs"

    def check(self, source: SourceFile) -> Iterator[Violation]:
        from repro.obs.bus import PROBE_SIGNATURES
        scanner = _ProbeNameScanner()
        scanner.walk(source.tree)
        for const in scanner.hits:
            name = const.value
            if name == "*" or name in PROBE_SIGNATURES:
                continue
            if name.endswith(".*"):
                prefix = name[:-1]  # keep the dot, as ProbeBus._match does
                if any(p.startswith(prefix) for p in PROBE_SIGNATURES):
                    continue
                yield self.violation(
                    source, const,
                    f"probe wildcard {name!r} matches nothing in "
                    f"PROBE_SIGNATURES")
                continue
            yield self.violation(
                source, const,
                f"unknown probe name {name!r}; register it in "
                f"repro.obs.bus.PROBE_SIGNATURES or fix the typo")


def _is_dataclass_slots(decorator: ast.AST) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    name = dotted_name(decorator.func)
    if name not in ("dataclass", "dataclasses.dataclass"):
        return False
    for kw in decorator.keywords:
        if kw.arg == "slots" and isinstance(kw.value, ast.Constant) \
                and kw.value.value is True:
            return True
    return False


_SLOTS_EXEMPT_BASES = {"Exception", "BaseException", "Enum", "IntEnum",
                       "Flag", "IntFlag", "NamedTuple", "Protocol",
                       "TypedDict", "ABC"}


@register
class HotSlotsRule(Rule):
    id = "hot-slots"
    summary = "hot-loop classes must declare __slots__"
    rationale = (
        "Classes instantiated or touched every simulated cycle (ROB "
        "entries, store-buffer slots, policies, controllers) live in "
        "the interpreter's hottest attribute-lookup paths.  __slots__ "
        "(or @dataclass(slots=True)) removes the per-instance __dict__: "
        "less memory, faster attribute access, and AttributeError "
        "instead of silent typo'd attributes — which is also how the "
        "resilience layer guarantees FaultPlan only sets declared "
        "hooks.  Exception/Enum/Protocol subclasses are exempt.")
    scope = "hot"

    def _exempt(self, node: ast.ClassDef) -> bool:
        if node.name.endswith(("Error", "Exception", "Warning")):
            return True
        for base in node.bases:
            name = dotted_name(base)
            if name is None:
                continue
            leaf = name.split(".")[-1]
            if leaf in _SLOTS_EXEMPT_BASES \
                    or leaf.endswith(("Error", "Exception", "Warning")):
                return True
        return False

    def _declares_slots(self, node: ast.ClassDef) -> bool:
        for dec in node.decorator_list:
            if _is_dataclass_slots(dec):
                return True
        for stmt in node.body:
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id == "__slots__":
                    return True
        return False

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._exempt(node) or self._declares_slots(node):
                continue
            yield self.violation(
                source, node,
                f"hot-module class {node.name} has no __slots__; declare "
                f"__slots__ or use @dataclass(slots=True)")


@register
class MutableDefaultRule(Rule):
    id = "mut-default"
    summary = "no mutable default arguments"
    rationale = (
        "A mutable default ([], {}, set()) is evaluated once at def "
        "time and shared by every call — state leaks across calls and, "
        "in sweep workers, across jobs.  Use None and construct inside "
        "the function, or a dataclasses.field(default_factory=...).")
    scope = "all"

    _MUT_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                  "collections.defaultdict", "Counter",
                  "collections.Counter", "deque", "collections.deque",
                  "OrderedDict", "collections.OrderedDict"}

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in self._MUT_CALLS
        return False

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + list(args.kw_defaults):
                if default is not None and self._is_mutable(default):
                    fn = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        source, default,
                        f"mutable default argument in {fn}(); use None "
                        f"and construct inside the body")


def _is_set_expr(node: ast.AST) -> bool:
    """Expressions whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class _SetOrderScanner(LintVisitor):
    """Flags order-sensitive consumption of set-typed expressions.

    Tracks, per enclosing function, local names bound to set
    expressions (``xs = {…}`` / ``xs: Set[int] = …``), then flags any
    order-sensitive consumer — a ``for`` loop, comprehension,
    ``list()``/``tuple()``/``enumerate()``/``.join()`` — whose iterable
    is a set expression or such a name.  ``sorted(xs)`` wraps the set
    in a Call node, so sorted consumption naturally passes."""

    _ORDER_SENSITIVE_CALLS = ("list", "tuple", "enumerate")

    def __init__(self) -> None:
        super().__init__()
        self.hits: List[ast.AST] = []
        self._set_locals_stack: List[Set[str]] = [set()]

    # -- local tracking ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(self, node: ast.AST) -> None:
        names: Set[str] = set()
        for stmt in ast.walk(node):
            value = None
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if isinstance(target, ast.Name) and value is not None \
                    and _is_set_expr(value):
                names.add(target.id)
        self._set_locals_stack.append(names)

    def visit(self, node: ast.AST) -> None:  # augment walk with scope pop
        is_function = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef))
        super().visit(node)
        if is_function:
            self._set_locals_stack.pop()

    def _is_set_valued(self, node: ast.AST) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._set_locals_stack[-1]
        return False

    # -- consumers -----------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._is_set_valued(node.iter):
            self.hits.append(node.iter)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        # comprehensions reach us via generic child traversal
        pass

    def _check_comp(self, generators: List[ast.comprehension]) -> None:
        for gen in generators:
            if self._is_set_valued(gen.iter):
                self.hits.append(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comp(node.generators)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in self._ORDER_SENSITIVE_CALLS and node.args \
                and self._is_set_valued(node.args[0]):
            self.hits.append(node.args[0])
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr == "join" and node.args \
                and self._is_set_valued(node.args[0]):
            self.hits.append(node.args[0])


@register
class IterSetOrderRule(Rule):
    id = "iter-set-order"
    summary = "no unsorted set iteration into order-sensitive consumers"
    rationale = (
        "CPython set iteration order is a function of element hashes "
        "and insertion history — an implementation detail, not a "
        "contract.  A `for` loop, list(), or join() over an unsorted "
        "set lets that order leak into event schedules, stats, and "
        "cache keys, which is exactly how 'deterministic' simulators "
        "rot.  Iterate sorted(s) (or keep a list alongside the set).  "
        "Order-insensitive folds (sum, len, min, max, membership) are "
        "fine and not flagged.")
    scope = "hot"

    def check(self, source: SourceFile) -> Iterator[Violation]:
        scanner = _SetOrderScanner()
        scanner.walk(source.tree)
        for node in scanner.hits:
            yield self.violation(
                source, node,
                "set iteration order reaches an order-sensitive "
                "consumer; iterate sorted(...) instead")
