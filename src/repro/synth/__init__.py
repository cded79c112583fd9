"""``repro.synth``: static litmus-test synthesis.

The generative layer over the PR 4 relation machinery: enumerate every
small program inside a bounded shape, compute each program's *complete*
per-model outcome sets by exhaustive candidate-execution judging
(:mod:`repro.synth.profile`), keep the programs whose sets differ
between a model pair (:mod:`repro.synth.search`), minimize and
canonically de-duplicate the witnesses, cross-check every survivor
against three independent oracles (:mod:`repro.synth.oracle`), and
promote the keepers into the battery as a generated registry module
(:mod:`repro.synth.promote`).  ``repro synth`` drives it from the CLI;
the ``synth`` job kind runs enumeration chunks through ``repro serve``.
See docs/SYNTHESIS.md.
"""

from repro.synth.oracle import (OracleReport, outcome_conditions,
                                pipeline_check, triple_check,
                                triple_check_many)
from repro.synth.profile import lattice_violations, outcome_profile
from repro.synth.promote import (battery_duplicates, case_name,
                                 render_generated_module,
                                 write_generated_module)
from repro.synth.search import (MODEL_PAIRS, Distinguisher, SynthResult,
                                distinguishing_outcomes, merge_results,
                                minimize_program, pool_distinguishers,
                                search)
from repro.synth.space import (SynthBounds, count_programs,
                               enumerate_programs, may_distinguish)

__all__ = [
    "SynthBounds", "enumerate_programs", "count_programs",
    "may_distinguish",
    "outcome_profile", "lattice_violations",
    "MODEL_PAIRS", "Distinguisher", "SynthResult", "search",
    "merge_results", "pool_distinguishers",
    "distinguishing_outcomes", "minimize_program",
    "OracleReport", "triple_check", "triple_check_many", "pipeline_check",
    "outcome_conditions",
    "render_generated_module", "write_generated_module",
    "battery_duplicates", "case_name",
]
