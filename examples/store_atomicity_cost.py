#!/usr/bin/env python3
"""Full evaluation sweep over a chosen benchmark (paper Figures 9/10).

Runs one Table IV benchmark under all five configurations and prints
the per-configuration execution time, dispatch-stall breakdown and the
370-SLFSoS-key characterization row — the paper's evaluation for one
workload, end to end.

Run:  python examples/store_atomicity_cost.py [benchmark] [cores]
      python examples/store_atomicity_cost.py barnes 8
      python examples/store_atomicity_cost.py 505.mcf
"""

import sys

from repro.core.policies import POLICY_ORDER
from repro.sweep import SweepJob, run_sweep
from repro.workloads import get_profile
from repro.workloads.runner import normalized_times


def main(name="water_spatial", cores=4):
    profile = get_profile(name)
    print(f"benchmark: {name} ({profile.suite}); paper Table IV row: "
          f"loads {profile.paper.loads_pct}%, "
          f"forwarded {profile.paper.forwarded_pct}%, "
          f"gate stalls {profile.paper.gate_stalls_pct}%\n")

    jobs = [SweepJob(name, policy, cores=cores) for policy in POLICY_ORDER]
    outcome = run_sweep(jobs, workers=1, cache=False)
    results = dict(zip(POLICY_ORDER, outcome.results))
    norm = normalized_times(results)

    header = (f"{'config':17s}{'cycles':>9s}{'norm':>7s}"
              f"{'ROB%':>7s}{'LQ%':>7s}{'SQ%':>7s}"
              f"{'fwd%':>7s}{'gate%':>7s}{'reexec%':>9s}")
    print(header)
    print("-" * len(header))
    for policy in POLICY_ORDER:
        total = results[policy].stats.total
        stalls = total.stall_pct
        print(f"{policy:17s}{results[policy].cycles:9d}"
              f"{norm[policy]:7.3f}"
              f"{stalls['ROB']:7.1f}{stalls['LQ']:7.1f}"
              f"{stalls['SQ/SB']:7.1f}"
              f"{total.forwarded_pct:7.2f}{total.gate_stalls_pct:7.2f}"
              f"{total.reexecuted_pct:9.3f}")

    key = results["370-SLFSoS-key"].stats.total
    print(f"""
370-SLFSoS-key detail (Table IV row, measured vs paper):
  forwarded loads:       {key.forwarded_pct:6.2f}%  (paper {profile.paper.forwarded_pct}%)
  gate stalls:           {key.gate_stalls_pct:6.2f}%  (paper {profile.paper.gate_stalls_pct}%)
  cycles per gate stall: {key.avg_gate_stall_cycles:6.1f}   (paper {profile.paper.avg_stall_cycles})
  re-executed:           {key.reexecuted_pct:6.3f}% (paper {profile.paper.reexecuted_pct}%)""")


if __name__ == "__main__":
    bench = sys.argv[1] if len(sys.argv) > 1 else "water_spatial"
    n_cores = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    main(bench, n_cores)
