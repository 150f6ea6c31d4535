"""Command-line front end: decompose, verify, rank-profile, count, bench.

Exit codes: 0 success (and, for verify, "all invariants hold"), 1 for I/O
failures, 2 for parse/validation errors or failed verification of structure.
All machine-readable output is JSON or CSV with a fixed field order.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .iterative import pluq_iterative
from .matgen import gen_full_rank_generic, gen_rank_deficient_rect
from .matrix import DenseMatrix, OpCounts, PluqFactors
from .oracle import (
    LeadingProfileTable,
    ple_row_major,
    r_ple_recurrence,
    r_pluq_closed_form,
)
from .rank_profile import col_rank_profile, leading_rank_profiles, row_rank_profile
from .recursive import DEFAULT_THRESHOLD, pluq

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


def _read_matrix(path: str) -> DenseMatrix:
    with open(path) as fh:
        return DenseMatrix.from_text(fh.read())


def _decompose(mat: DenseMatrix, algo: str, threshold: int, counts: OpCounts) -> PluqFactors:
    if algo == "iterative":
        return pluq_iterative(mat, counts)
    return pluq(mat, threshold=threshold, counts=counts)


def cmd_decompose(args) -> int:
    mat = _read_matrix(args.matrix)
    factors = _decompose(mat, args.algo, args.threshold, OpCounts())
    text = factors.to_text()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    mat = _read_matrix(args.matrix)
    with open(args.factors) as fh:
        factors = PluqFactors.from_text(fh.read())
    if factors.packed.shape != mat.shape or factors.packed.p != mat.p:
        print("dimension or modulus mismatch between matrix and factors", file=sys.stderr)
        return EXIT_USAGE
    problems = factors.check_structure()
    if not problems and factors.reconstruct() != mat:
        problems.append("P [L;M] [U V] Q does not reconstruct the matrix")
    for msg in problems:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not problems:
        print("OK")
    return EXIT_OK if not problems else EXIT_USAGE


def cmd_rank_profile(args) -> int:
    mat = _read_matrix(args.matrix)
    original = mat.copy() if args.oracle else None
    factors = _decompose(mat, args.algo, args.threshold, OpCounts())
    oracle_table = LeadingProfileTable(original) if args.oracle else None

    def profiles_at(k: int, t: int):
        rows, cols = leading_rank_profiles(factors, k, t)
        if oracle_table is not None:
            if rows != oracle_table.rows(k, t) or cols != oracle_table.cols(k, t):
                raise RuntimeError(f"oracle disagreement at leading block ({k},{t})")
        return {"rows": list(rows), "cols": list(cols)}

    if args.all_leading:
        table = [
            {"k": k, "t": t, **profiles_at(k, t)}
            for k in range(factors.m + 1)
            for t in range(factors.n + 1)
        ]
        payload = {"m": factors.m, "n": factors.n, "rank": factors.rank, "leading": table}
    elif args.leading is not None:
        k, t = args.leading
        if not (0 <= k <= factors.m and 0 <= t <= factors.n):
            raise ValueError(f"leading block ({k},{t}) out of range")
        payload = profiles_at(k, t)
    else:
        payload = {
            "rows": list(row_rank_profile(factors)),
            "cols": list(col_rank_profile(factors)),
        }
        if oracle_table is not None:
            profiles_at(factors.m, factors.n)
    print(json.dumps(payload))
    return EXIT_OK


def _generate(args, allow_wide=False) -> DenseMatrix:
    if args.profile == "generic":
        if args.m == args.n:
            return gen_full_rank_generic(args.m, args.p, args.seed)
        if allow_wide and args.m < args.n:
            # leading block of a generic square matrix: full row rank, every
            # leading minor nonzero
            return gen_full_rank_generic(args.n, args.p, args.seed).leading_submatrix(args.m, args.n)
        raise ValueError("generic profile inputs are square (m <= n allowed for ple)")
    rank = args.rank if args.rank is not None else min(args.m, args.n) // 2
    return gen_rank_deficient_rect(args.m, args.n, rank, args.p, args.seed)


def cmd_count(args) -> int:
    mat = _generate(args, allow_wide=args.algo == "ple")
    counts = OpCounts()
    if args.algo == "pluq":
        # threshold 1 keeps the pure quadrant recursion the closed form describes
        pluq(mat, threshold=args.threshold, counts=counts)
    else:
        ple_row_major(mat, counts)
    predicted = None
    if args.profile == "generic":
        if args.algo == "pluq":
            predicted = r_pluq_closed_form(args.m)
        else:
            predicted = r_ple_recurrence(args.m, args.n)
    payload = {
        "algo": args.algo,
        "m": args.m,
        "n": args.n,
        "p": args.p,
        "seed": args.seed,
        "profile": args.profile,
        "counts": counts.as_dict(),
        "predicted_reductions": predicted,
        "delta": None if predicted is None else counts.modular_reductions - predicted,
    }
    print(json.dumps(payload))
    return EXIT_OK


BENCH_HEADER = "algo,m,n,rank,threshold,rep,seconds,field_mul,reductions"


def cmd_bench(args) -> int:
    rank = args.rank if args.rank is not None else min(args.m, args.n) // 2
    lines = [BENCH_HEADER]
    for rep in range(args.reps):
        mat = gen_rank_deficient_rect(args.m, args.n, rank, args.p, args.seed)
        counts = OpCounts()
        start = time.perf_counter()
        _decompose(mat, args.algo, args.threshold, counts)
        seconds = time.perf_counter() - start
        lines.append(
            f"{args.algo},{args.m},{args.n},{rank},{args.threshold},{rep},"
            f"{seconds:.6f},{counts.field_mul},{counts.modular_reductions}"
        )
    text = "\n".join(lines) + "\n"
    if args.csv == "-":
        sys.stdout.write(text)
    else:
        with open(args.csv, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pluq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algo(p, default_threshold=DEFAULT_THRESHOLD):
        p.add_argument("--algo", choices=["recursive", "iterative"], default="recursive")
        p.add_argument("--threshold", type=int, default=default_threshold,
                       help="crossover to the iterative base case (recursive algo only)")

    p = sub.add_parser("decompose", help="factor a matrix file into a factor file")
    p.add_argument("matrix")
    p.add_argument("--out", default="-", help="output factor file ('-' for stdout)")
    add_algo(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check a factor file against its matrix")
    p.add_argument("matrix")
    p.add_argument("factors")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rank-profile", help="rank profiles of a matrix or leading blocks")
    p.add_argument("matrix")
    p.add_argument("--leading", nargs=2, type=int, metavar=("K", "T"))
    p.add_argument("--all-leading", action="store_true")
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
    add_algo(p)
    p.set_defaults(func=cmd_rank_profile)

    p = sub.add_parser("count", help="operation counts on a generated matrix vs the model")
    p.add_argument("--algo", choices=["pluq", "ple"], default="pluq")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=1009)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=["generic", "deficient"], default="generic")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--threshold", type=int, default=1,
                   help="recursion threshold; 1 matches the closed-form model")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bench", help="timed decomposition sweep, CSV output")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--p", type=int, default=1009)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--csv", default="-", help="output CSV path ('-' for stdout)")
    add_algo(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
