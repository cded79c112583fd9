"""``repro.lint``: static analysis for the repo's two core guarantees.

The simulator's value rests on disciplines that were previously enforced
only dynamically:

* **Determinism** — runs are byte-for-byte reproducible, so the hot
  modules (``sim``, ``cpu``, ``core``, ``coherence``, ``noc``,
  ``memory``) must never read wall clocks, unseeded RNGs, or OS entropy,
  and must never let ``set`` iteration order leak into stats or keys.
* **Zero overhead when disabled** — observability and fault hooks follow
  the resolve-once/guarded-fire pattern (``docs/OBSERVABILITY.md``), and
  hot-loop classes declare ``__slots__``.

This package proves those disciplines at review time with an AST-based
rule engine (:mod:`repro.lint.engine`, rules in
:mod:`repro.lint.discipline`).

Entry points: ``repro lint`` (CLI) and :func:`run_lint`.
"""

from repro.lint.engine import (LintReport, Rule, SourceFile, Violation,
                               registered_rules, run_lint)
from repro.lint import discipline as _discipline  # noqa: F401  (registers rules)
from repro.lint.report import render_human, render_json

__all__ = [
    "LintReport",
    "Rule",
    "SourceFile",
    "Violation",
    "registered_rules",
    "render_human",
    "render_json",
    "run_lint",
]
