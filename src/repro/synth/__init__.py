"""``repro.synth``: static litmus-test synthesis.

The generative layer over the axiomatic engine: enumerate every small
program inside a bounded shape, compute each program's *complete*
per-model outcome sets by exhaustive candidate-execution judging
(:func:`repro.models.axiomatic.outcome_profile`), keep the programs
whose sets differ between a model pair (:mod:`repro.synth.search`),
minimize and canonically de-duplicate the witnesses, check every
survivor against the operational machines
(:mod:`repro.models.conformance`), and promote the keepers into the
battery as a generated registry module (:mod:`repro.synth.promote`).
``repro synth`` drives it from the CLI; the ``synth`` job kind runs
enumeration chunks through ``repro serve``.  See docs/SYNTHESIS.md.
"""

from repro.synth.promote import (battery_duplicates, case_name,
                                 render_generated_module,
                                 write_generated_module)
from repro.synth.search import (MODEL_PAIRS, Distinguisher, SynthResult,
                                distinguishing_outcomes, lattice_violations,
                                merge_results, minimize_program,
                                pool_distinguishers, profile_diff, search)
from repro.synth.space import (SynthBounds, count_programs,
                               enumerate_programs, may_distinguish)

__all__ = [
    "SynthBounds", "enumerate_programs", "count_programs",
    "may_distinguish",
    "lattice_violations", "profile_diff",
    "MODEL_PAIRS", "Distinguisher", "SynthResult", "search",
    "merge_results", "pool_distinguishers",
    "distinguishing_outcomes", "minimize_program",
    "render_generated_module", "write_generated_module",
    "battery_duplicates", "case_name",
]
