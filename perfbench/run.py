"""Run one workload of the conicfem benchmark.

From the root of a checkout:

    python3 perfbench/run.py --workload disk-ml4 --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object
({"correct", "attempted", "failed", "metrics"}); the line before it
describes the machine.  The package is imported from the checkout's
``src/``; the run fails when that source is not there.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # One BLAS thread: on a shared 2-core machine a threaded BLAS made
    # the disk study range over 6.5-8.7 s in five runs, 7.9-8.5 s without.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "conicfem" / "__init__.py").is_file():
        sys.exit(f"error: no conicfem source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from harness import main
    sys.exit(main())
