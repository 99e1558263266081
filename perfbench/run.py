"""Benchmark entry point.

    python3 perfbench/run.py --workload deep-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

Run it from the root of a checkout; it benchmarks the ``src/`` tree of
that checkout. BLAS and OpenMP are pinned to one thread here, before
numpy is first imported. See ``perfbench/README.md``.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    from perfbench import bench
    sys.exit(bench.main(sys.argv[1:]))
