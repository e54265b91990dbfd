"""Benchmark launcher: pin the BLAS pool to one thread, then run one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload organic --seed 1 --seconds 10 --trace 0

The thread pins must be set before NumPy is first imported, which is why
they live here and not in the harness.  On a small box a second BLAS
thread spins on the tiny per-batch matrices, burning CPU for no speed-up
and adding noise.
"""

import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench import BLAS_THREAD_VARS  # noqa: E402  (imports no NumPy)

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from perfbench.harness import main  # noqa: E402  (after the thread pins)

if __name__ == "__main__":
    sys.exit(main())
