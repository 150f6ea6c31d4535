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

from .matgen import gen_full_rank_generic, gen_rank_deficient_rect
from .matrix import DenseMatrix, OpCounts, PluqFactors
from .oracle import (
    LeadingProfileTable,
    ple_row_major,
    r_ple_recurrence,
    r_pluq_closed_form,
)
from .rank_profile import leading_rank_profiles
from .recursive import DEFAULT_THRESHOLD, pluq, pluq_iterative

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


def _read_matrix(path: str) -> DenseMatrix:
    with open(path) as fh:
        return DenseMatrix.from_text(fh.read())


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _decompose(mat: DenseMatrix, algo: str, threshold: int, counts: OpCounts) -> PluqFactors:
    if algo == "iterative":
        return pluq_iterative(mat, counts)
    return pluq(mat, threshold=threshold, counts=counts)


def cmd_decompose(args) -> int:
    mat = _read_matrix(args.matrix)
    _write(args.out, _decompose(mat, args.algo, args.threshold, OpCounts()).to_text())
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
    oracle_table = LeadingProfileTable(mat) if args.oracle else None  # before mat is overwritten
    factors = _decompose(mat, args.algo, args.threshold, OpCounts())

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
    else:  # the whole matrix is its own largest leading block
        payload = profiles_at(*(args.leading or (factors.m, factors.n)))
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
    return gen_rank_deficient_rect(args.m, args.n, _rank(args), args.p, args.seed)


def _rank(args) -> int:
    return args.rank if args.rank is not None else min(args.m, args.n) // 2


def cmd_count(args) -> int:
    mat = _generate(args, allow_wide=args.algo == "ple")
    predicted = None  # first, so that a size the model rejects costs no decomposition
    if args.profile == "generic":
        if args.algo == "pluq":
            predicted = r_pluq_closed_form(args.m)
        else:
            predicted = r_ple_recurrence(args.m, args.n)
    counts = OpCounts()
    if args.algo == "pluq":
        # threshold 1 keeps the pure quadrant recursion the closed form describes
        pluq(mat, threshold=args.threshold, counts=counts)
    else:
        ple_row_major(mat, counts)
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
    rank = _rank(args)
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
    _write(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pluq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algo(p):
        p.add_argument("--algo", choices=["recursive", "iterative"], default="recursive")
        p.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                       help="crossover to the iterative base case (recursive algo only)")

    def add_generated(p):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--rank", type=int, default=None, help="deficient inputs' rank (default min(m, n) // 2)")
        p.add_argument("--p", type=int, default=1009)
        p.add_argument("--seed", type=int, default=0)

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
    which = p.add_mutually_exclusive_group()
    which.add_argument("--leading", nargs=2, type=int, metavar=("K", "T"))
    which.add_argument("--all-leading", action="store_true")
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
    add_algo(p)
    p.set_defaults(func=cmd_rank_profile)

    p = sub.add_parser("count", help="operation counts on a generated matrix vs the model")
    p.add_argument("--algo", choices=["pluq", "ple"], default="pluq")
    add_generated(p)
    p.add_argument("--profile", choices=["generic", "deficient"], default="generic")
    p.add_argument("--threshold", type=int, default=1,
                   help="recursion threshold; 1 matches the closed-form model")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bench", help="timed decomposition sweep, CSV output")
    add_generated(p)
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
