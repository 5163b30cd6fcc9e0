"""Benchmark entry point for the typedrnn training, evaluation and sampling paths.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload char-typed --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of that checkout; nothing is installed.
BLAS runs on one thread. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Without
``src/typedrnn`` the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("char-typed", "char-classical", "word-large-vocab")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: record spans and print per-layer metrics")
    p.add_argument("--results", type=Path, default=HERE / "results",
                   help="directory for trace files and temporary checkpoints")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "typedrnn" / "__init__.py").is_file():
        print(f"error: no typedrnn sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness
    import workloads

    result = harness.run(
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        args.results,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
