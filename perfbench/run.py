"""Benchmark entry point.

    python3 perfbench/run.py --workload gen-8x8 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. Prints a report line (environment, output hashes, the
workload's figures under their own names) and, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread on every machine. The caps must be set before numpy is
# imported; the library honours NVG_THREADS only under the same condition.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "NVG_THREADS"):
    os.environ[_var] = THREADS

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("gen-8x8", "train-8x8", "tokenize-32x32")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nvg" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'nvg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    report, result = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
