"""The litmus battery and its program registry, each defined once.

:data:`BATTERY_CASES` is the battery in its one order; the conformance
corpus (:func:`repro.models.conformance.battery_corpus`) is that tuple
and the registry indexes it by name.  The CLI and the ``repro.serve``
job model both resolve tests by name; a long-lived service would
otherwise rebuild the mapping on every request, so it is memoized per
process — treat the returned mapping as read-only.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.litmus.battery import EXTRA_CASES
from repro.litmus.generated import GENERATED_CASES
from repro.litmus.program import Program
from repro.litmus.tests import ALL_CASES

#: Every battery case: the paper's tests, the extra hand-written cases
#: and the synthesized ones (``litmus/generated.py``, written by
#: ``repro synth --promote``).
BATTERY_CASES = ALL_CASES + EXTRA_CASES + GENERATED_CASES

_REGISTRY: Optional[Dict[str, Program]] = None


def litmus_registry() -> Dict[str, Program]:
    """Name → :class:`Program` for :data:`BATTERY_CASES` (memoized)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {case.program.name: case.program
                     for case in BATTERY_CASES}
    return _REGISTRY
