"""Benchmark of the monogamy library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: haar-monogamy, wclass-polygamy, scalar-surface, single-call, or
``all`` to run each in its own process.  Run from anywhere: the library is
imported from ``src/`` next to this directory, never from site-packages.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
environment included, goes to ``.bench_out/`` at the repository root.
"""

import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread and one client: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "monogamy" / "__init__.py").is_file():
        print(f"error: no monogamy sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main(sys.argv[1:], ROOT, SRC))
