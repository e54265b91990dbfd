"""End-to-end serving benchmark: seeded workloads, output checks, layer attribution.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``perfbench/README.md`` describes the workloads
and metrics.  This module imports nothing, so the launcher can read the
thread settings below before NumPy is loaded.
"""

#: Thread-pool variables the launcher pins to 1 before NumPy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
