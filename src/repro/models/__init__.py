"""repro.models — the pluggable memory-model zoo.

One registry maps model names to :class:`~repro.models.base.MemoryModel`
objects bundling an axiomatic definition (relation predicates evaluated
by the axiomatic engine, :mod:`repro.models.axiomatic`), an operational
machine factory, and a declared conformance-lattice position
(:mod:`repro.models.lattice`).  :mod:`repro.models.conformance` checks
the two formalizations against each other and the lattice over any
corpus of litmus programs.

``lint``, ``synth``, ``repro explain`` and the serve job kinds
all resolve models by name from here.
"""

from repro.models.base import (AxiomaticDef, Event, MemoryModel, PoPair,
                               po_access_pairs, thread_accesses)
from repro.models.defs import (M370, MODEL_ORDER, PC, REGISTRY, SC, WMM,
                               X86)
from repro.models.lattice import (LatticeViolation, containment_violations,
                                  declared_edges, lattice_edges)


def get_model(name: str) -> MemoryModel:
    """Look up a registered model; raises ValueError on unknown names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; registered models: "
            f"{', '.join(REGISTRY)}") from None


def model_names(axiomatic_only: bool = False) -> tuple:
    """All registered model names, strongest first; with
    ``axiomatic_only`` just those carrying an axiomatic definition."""
    if axiomatic_only:
        return tuple(name for name in MODEL_ORDER
                     if REGISTRY[name].axiomatic is not None)
    return tuple(MODEL_ORDER)


def model_table() -> list:
    """Rows for the docs table, derived from the registry: (name,
    title, relaxations, formalizations, stronger-than)."""
    rows = []
    for name in MODEL_ORDER:
        model = REGISTRY[name]
        forms = "operational" if model.axiomatic is None \
            else "axiomatic + operational"
        rows.append((model.name, model.title, model.relaxations, forms,
                     ", ".join(model.stronger_than) or "—"))
    return rows


__all__ = [
    "AxiomaticDef", "Event", "MemoryModel", "PoPair",
    "po_access_pairs", "thread_accesses",
    "SC", "M370", "X86", "PC", "WMM", "REGISTRY", "MODEL_ORDER",
    "LatticeViolation", "containment_violations", "declared_edges",
    "lattice_edges",
    "get_model", "model_names", "model_table",
]
