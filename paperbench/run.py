"""Paper-workload benchmark entry point.

    python3 paperbench/run.py --workload fig5-toronto --seed 1 \\
        --seconds 55 --trace 0

Prints the environment, a table of every metric with its unit, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  Run from a checkout of the
repository; the program is imported from its ``src`` directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=2023,
        help="workload seed, passed as ExperimentConfig.seed",
    )
    parser.add_argument(
        "--seconds", type=float, default=55.0,
        help="measuring window; calls repeat while the next one fits",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"paperbench: the program source {ROOT / 'src'} is missing",
            file=sys.stderr,
        )
        return 2
    # the paper's kernels are small matrix products: a second OpenBLAS
    # thread only spin-waits, and under shared CPUs it slowed calls 1.4-6x
    # (one 33 s call took 222 s).  The program itself leaves OpenBLAS at its
    # default, so a thread-count change in the program does not show here.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from paperbench import harness

    return harness.main(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )


if __name__ == "__main__":
    sys.exit(main())
