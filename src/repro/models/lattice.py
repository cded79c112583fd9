"""The conformance lattice.

Each registered model declares its immediate stronger parents
(``MemoryModel.stronger_than``); this module closes those edges
transitively and defines **allowed-outcome monotonicity** — for every
edge ``strong → weak`` and every program, the strong model's outcome
set must be a subset of the weak model's.
:mod:`repro.models.conformance` checks it on the operational sets of
every program it is given; the synthesis search checks it on every
axiomatic profile it judges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import FrozenSet, List, Mapping, Tuple

from repro.models.defs import REGISTRY


def declared_edges() -> Tuple[Tuple[str, str], ...]:
    """The immediate (strong, weak) lattice edges, as declared."""
    edges = []
    for model in REGISTRY.values():
        for parent in model.stronger_than:
            if parent not in REGISTRY:
                raise ValueError(
                    f"{model.name} declares unknown parent {parent!r}")
            edges.append((parent, model.name))
    return tuple(edges)


@functools.lru_cache(maxsize=None)
def lattice_edges() -> Tuple[Tuple[str, str], ...]:
    """Transitive closure of :func:`declared_edges` — every (strong,
    weak) pair monotonicity must hold for, e.g. ``("SC", "WMM")``.
    Computed once: the registry is fixed at import."""
    direct = declared_edges()
    reach = {name: {weak for strong, weak in direct if strong == name}
             for name in REGISTRY}
    changed = True
    while changed:
        changed = False
        for name, weaker in reach.items():
            expansion = set()
            for w in weaker:
                expansion |= reach[w]
            if not expansion <= weaker:
                weaker |= expansion
                changed = True
    return tuple(sorted((strong, weak)
                        for strong, weaker in reach.items()
                        for weak in weaker))


@dataclass(frozen=True)
class LatticeViolation:
    """An outcome a strong model allows but a declared-weaker one
    forbids — a broken containment edge."""

    program: str
    strong: str
    weak: str
    outcomes: Tuple[str, ...]    # rendered outcomes in strong \ weak

    def describe(self) -> str:
        return (f"{self.strong} allows {'; '.join(self.outcomes)} "
                f"which {self.weak} forbids")

    def to_dict(self) -> dict:
        return {"program": self.program, "strong": self.strong,
                "weak": self.weak, "outcomes": list(self.outcomes)}


def containment_violations(outcome_sets: Mapping[str, FrozenSet],
                           program: str = "") -> List[LatticeViolation]:
    """Monotonicity of one program's outcome sets (model -> allowed
    outcomes) along every transitive lattice edge whose two ends both
    have a set."""
    violations: List[LatticeViolation] = []
    for strong, weak in lattice_edges():
        if strong not in outcome_sets or weak not in outcome_sets:
            continue
        leaked = outcome_sets[strong] - outcome_sets[weak]
        if leaked:
            violations.append(LatticeViolation(
                program=program, strong=strong, weak=weak,
                outcomes=tuple(sorted(map(str, leaked)))))
    return violations
