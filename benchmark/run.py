"""Run one workload of the momhal benchmark and print its result.

From the root of a momhal checkout:

    python3 benchmark/run.py --workload pipeline --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the environment.  Work files, traces and full
result records go under ``bench_out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS runs single-threaded in every timed run; set before numpy loads.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("pipeline", "encode")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "momhal" / "cli.py").is_file():
        print("error: src/momhal not found; run from the root of a momhal checkout",
              file=sys.stderr)
        return 2
    inherited = {k: v for k, v in os.environ.items()
                 if k.startswith(("OMP_", "OPENBLAS_", "MKL_", "MOMHAL_THREADS"))}
    os.environ.update(PINNED)
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]

    import workloads

    return workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), root, inherited)


if __name__ == "__main__":
    sys.exit(main())
