#!/usr/bin/env python3
"""Timed decomposition sweep over a range of dimensions, CSV on stdout.

Thin driver over the `pluq bench` CLI: rank defaults to half the dimension
(the usual benchmark family), one CSV row per (dimension, algorithm, rep).
"""

import argparse
import io
import sys
from contextlib import redirect_stdout

from pluq.cli import BENCH_HEADER, main as cli_main
from pluq.recursive import DEFAULT_THRESHOLD


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[128, 256, 512, 1024, 2048])
    parser.add_argument("--p", type=int, default=1009)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD)
    parser.add_argument("--algos", nargs="+", default=["recursive", "iterative"])
    args = parser.parse_args()

    print(BENCH_HEADER)
    for n in args.dims:
        for algo in args.algos:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(
                    [
                        "bench", "--m", str(n), "--n", str(n), "--rank", str(n // 2),
                        "--p", str(args.p), "--seed", str(args.seed),
                        "--reps", str(args.reps), "--threshold", str(args.threshold),
                        "--algo", algo, "--csv", "-",
                    ]
                )
            if code != 0:
                print(f"bench failed for n={n} algo={algo}", file=sys.stderr)
                return code
            for line in buf.getvalue().splitlines()[1:]:
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
