"""repro — reproduction of "Speculative Enforcement of Store Atomicity"
(Ros & Kaxiras, MICRO 2020).

Public API highlights:

* :func:`repro.sim.simulate` — run micro-op traces on the cycle-level
  multicore model under any of the five consistency configurations;
  :func:`repro.sweep.run_sweep` runs named benchmark cells.
* :mod:`repro.core` — the retire gate, SA-speculation policies.
* :mod:`repro.litmus` — operational and axiomatic memory-model engines
  (mp, n6, iriw, and the paper's Figure 5 test).
* :mod:`repro.workloads` — Table IV-calibrated synthetic benchmarks.
"""

__version__ = "1.0.0"

from repro.core.policies import POLICY_ORDER
from repro.sim.config import SKYLAKE_LIKE, SystemConfig
from repro.sim.system import simulate

__all__ = ["simulate", "SystemConfig", "SKYLAKE_LIKE", "POLICY_ORDER",
           "__version__"]
