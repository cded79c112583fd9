"""Happens-before explanations for forbidden litmus outcomes.

The paper's figures argue forbidden executions by exhibiting a cycle of
happens-before edges (po, rf, fr, ws/co).  This module automates that:
given a program, a model, and a witness condition, it judges every
candidate execution matching the witness with the axiomatic engine
(:mod:`repro.models.axiomatic`) and prints the cycle that rules each of
them out — or reports that the outcome is allowed.

Edge labels:

* ``po``/``ppo`` — (preserved) program order; ``po-loc`` — same-address
  program order (the sc-per-location axiom).
* ``fence`` — a program-order pair kept *only* because of the barrier
  crossed (mfence/lwfence or a locked instruction's fence semantics).
* ``rfi``/``rfe``/``rf-init`` — read-from, internal/external/initial.
* ``co``/``fr`` — (immediate) coherence and from-read.
* ``atom`` — RMW atomicity: the locked write must immediately follow
  the read's source in coherence order; a violating candidate shows
  the three-edge cycle  R --fr--> X --co--> W --atom--> R.

Example (the paper's Figure 2 argument, generated)::

    >>> from repro.litmus import N6
    >>> from repro.litmus.explain import explain
    >>> print(explain(N6, "370", r0_rx=1, r0_ry=0, mem_x=1, mem_y=2))
    n6 under 370: rx=1 ... FORBIDDEN ... cycle: ... rfi ... fr ... co ...
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.litmus.operational import _matches
from repro.litmus.parser import check_witness
from repro.litmus.program import Outcome, Program


def outcome_conditions(outcome: Outcome) -> Dict[str, int]:
    """An :class:`Outcome` as the ``r{tid}_{reg}`` / ``mem_{addr}``
    condition dict the ``allows``/``exists:`` machinery speaks."""
    conditions: Dict[str, int] = {}
    for (tid, reg), value in outcome.registers:
        conditions[f"r{tid}_{reg}"] = value
    for addr, value in outcome.memory:
        conditions[f"mem_{addr}"] = value
    return conditions


def explain_chain(program: Program, model: str,
                  **conditions: int) -> Optional[str]:
    """Communication-chain view of a forbidden witness.

    Returns None when no outcome matching the witness conditions is
    forbidden under ``model``.  The chain strips the witness cycle down
    to its rf/fr/co (plus fence and RMW-atomicity) edges — the
    inter-thread communication the cycle actually rides on — and, when
    the cycle hinges on a forwarding (rfi) edge, notes whether x86-TSO
    (which does not order rfi globally) admits the same outcome: this
    is the paper's Figure 2 store-atomicity distinction, derived rather
    than hand-written.
    """
    check_witness(program, conditions)
    # Imported here: repro.models imports repro.litmus, whose package
    # init imports this module.
    from repro.models.axiomatic import classify, event_name
    verdict = classify(program, model)
    matching = [o for o in sorted(verdict.forbidden,
                                  key=lambda o: (o.registers, o.memory))
                if _matches(o, conditions)]
    if not matching:
        return None
    lines: List[str] = []
    for outcome in matching:
        witness = verdict.witnesses[outcome]
        comm = witness.communication_edges()
        lines.append(f"  communication chain ({witness.axiom} cycle, "
                     f"{len(witness.edges)} edges total):")
        for edge in comm:
            lines.append(f"    {event_name(program, edge.src)}"
                         f"  --{edge.kind}-->  "
                         f"{event_name(program, edge.dst)}")
        if model != "x86" and witness.has_kind("rfi"):
            x86_verdict = classify(program, "x86")
            if outcome in x86_verdict.allowed:
                rfi = next(e for e in comm if e.kind == "rfi")
                lines.append(
                    f"    note: x86-TSO drops the forwarding edge "
                    f"{event_name(program, rfi.src)} --rfi--> "
                    f"{event_name(program, rfi.dst)} from global "
                    f"happens-before; the same outcome is ALLOWED there.")
    return "\n".join(lines)


def explain(program: Program, model: str, **conditions: int) -> str:
    """Explain why a witness outcome is forbidden (or that it is not).

    Judges every candidate execution consistent with the witness and
    renders the cycle (sc-per-location, atomicity or global
    happens-before) that invalidates each; if some candidate passes the
    model's axioms, reports the outcome as allowed.
    """
    from repro.models.axiomatic import (RelationAnalysis, render_cycle,
                                        require_axiomatic)
    check_witness(program, conditions)
    require_axiomatic(model)
    witness = ", ".join(f"{k}={v}" for k, v in conditions.items())
    header = f"{program.name} under {model}: witness [{witness}]"
    explanations: List[str] = []
    for candidate in RelationAnalysis(program).candidates():
        if not _matches(candidate.outcome(), conditions):
            continue
        cycle = candidate.judge(model)
        if cycle is None:
            return (f"{header}\n  ALLOWED: a candidate execution "
                    f"satisfies all {model} axioms.")
        axiom = "global happens-before" if cycle.axiom == "ghb" \
            else cycle.axiom
        rendered = "\n".join(f"    {line}"
                             for line in render_cycle(program, cycle))
        explanations.append(f"  candidate {len(explanations) + 1}: "
                            f"{axiom} cycle\n{rendered}")
    if not explanations:
        return (f"{header}\n  UNREACHABLE: no read-from assignment "
                f"produces these values.")
    body = "\n".join(explanations)
    chain = explain_chain(program, model, **conditions)
    if chain is not None:
        body += "\n" + chain
    return (f"{header}\n  FORBIDDEN: every matching candidate execution "
            f"is cyclic.\n" + body)
