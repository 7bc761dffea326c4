"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; measures the package under ``src/`` next to this
directory, with BLAS held to one thread.
"""

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _prepare():
    """Pin BLAS to one thread before numpy loads and put the checkout's
    package first on the path; False when the checkout has no package."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    bench = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench), "src")
    if not os.path.isfile(os.path.join(src, "spinlattice", "__init__.py")):
        print(f"error: no spinlattice package under {src}", file=sys.stderr)
        return False
    sys.path[:0] = [src, bench]
    return True


if __name__ == "__main__":
    if not _prepare():
        sys.exit(2)
    import harness

    sys.exit(harness.main())
