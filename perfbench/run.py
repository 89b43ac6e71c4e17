"""Benchmark of crackfuse: Stage-2 training, full-frame inference and Stage-1 SR.

Run from the repository root:

    python3 perfbench/run.py --workload train48 --seed 1 --seconds 25 --trace 0

The package is imported from src/ of the same checkout. Setup runs
several times, then one warm-up op, then ops until --seconds have passed,
then the output checks, then setup several times more; setup_s is the
median of all the setups. With --trace 0 the
end-to-end metrics are reported; with --trace 1 the run is split in two
halves, the first untraced and the second with spans recorded around the
package's public functions, and the per-layer metrics are reported together
with the tracing overhead (throughput lost between the two halves).

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. Per-run details (environment,
op latencies, the span list of a traced run) go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train48", "infer120", "sr_stage1")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "crackfuse", "__init__.py")):
        print(f"perfbench: crackfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        print(f"perfbench: {bench_path} not found", file=sys.stderr)
        return 2
    with open(bench_path) as f:
        bench = json.load(f)
    # one BLAS thread: on a 2-core VM two threads gave no faster steps at twice
    # the CPU, and a fixed count keeps runs comparable. Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import crackfuse
    if os.path.dirname(os.path.abspath(crackfuse.__file__)) != os.path.join(SRC, "crackfuse"):
        print(f"perfbench: imported crackfuse from {crackfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    return harness.main(args, ROOT, bench)


if __name__ == "__main__":
    sys.exit(main())
