"""Synthetic workloads calibrated to the paper's Table IV."""

from repro.workloads.profiles import (PARALLEL_PROFILES, PROFILES,
                                      SEQUENTIAL_PROFILES, BenchmarkProfile,
                                      get_profile)
from repro.workloads.runner import (BenchmarkResult, geomean,
                                    normalized_times, suite_names)
from repro.workloads.synthetic import (generate_trace, generate_warmup,
                                       generate_workload)
from repro.workloads.tracefile import (TraceFileError, load_workload,
                                       save_workload)
from repro.workloads.tableiv import (FIGURE10_GEOMEAN, PARALLEL_AVERAGE,
                                     PARALLEL_ROWS, SEQUENTIAL_AVERAGE,
                                     SEQUENTIAL_ROWS, PaperRow, all_rows)

__all__ = ["BenchmarkProfile", "get_profile", "PROFILES",
           "PARALLEL_PROFILES", "SEQUENTIAL_PROFILES", "generate_trace",
           "generate_workload", "generate_warmup", "normalized_times",
           "geomean", "suite_names", "BenchmarkResult",
           "save_workload", "load_workload", "TraceFileError",
           "PaperRow", "all_rows", "PARALLEL_ROWS",
           "SEQUENTIAL_ROWS", "PARALLEL_AVERAGE", "SEQUENTIAL_AVERAGE",
           "FIGURE10_GEOMEAN"]
