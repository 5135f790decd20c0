"""Benchmark origeo on one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload random-full --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output is the
result object; the line before it holds the run's context (host, versions,
load average, outcome ledger).  The exit code is 1 when any output failed
its oracle and 2 when the sources or arguments are missing.
"""

import os
import sys

# BLAS threads must be pinned before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The import is timed in this process and again in this many fresh
# interpreters; set-up counts the median, since one import varies by tens of
# percent on a shared host.
IMPORT_REPEATS = 4
_TIMED_IMPORT = ("from time import perf_counter; t = perf_counter(); "
                 "import numpy, origeo; print(perf_counter() - t)")


def import_seconds(first: float) -> float:
    """Median import time of NumPy and origeo over ``first`` and fresh runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = [first]
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _TIMED_IMPORT], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "origeo" / "__init__.py").is_file():
        print(f"error: origeo sources not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import numpy  # noqa: F401  (import time is part of set-up)
    import origeo  # noqa: F401
    first = perf_counter() - start
    import harness
    import_s = import_seconds(first)
    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(harness.workloads.WORKLOADS))

    correct, lines = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), str(ROOT), str(SRC), import_s)
    for line in lines:
        print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
