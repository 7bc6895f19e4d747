"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady-diurnal --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics and writes the layer table and span file to ``--out``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every correctness check passed, 1 when one failed,
2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("steady-diurnal", "scuba-autoscale", "config-churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--minutes", type=int, default=None,
        help="simulated minutes per pass (default: the workload's own; "
             "shorter passes are for smoke tests only)",
    )
    parser.add_argument(
        "--out", default=".perfbench_out",
        help="directory for the traced run's layer table and span file",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run

    result, problems = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.minutes, args.out,
    )
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
