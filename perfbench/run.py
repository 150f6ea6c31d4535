#!/usr/bin/env python3
"""The pluq benchmark: seeded inputs, three workloads, checked outputs.

    python3 perfbench/run.py --workload half-rank --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  Every
timed operation's output is checked outside the timed interval.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the layer entry points are wrapped (see
spans.py) and the metrics are the per-layer ones, and the spans are written to
perfbench/traces/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# One BLAS thread, set before numpy loads: each workload is one closed-loop
# client, and a single-threaded process is not slowed when a co-tenant takes
# the other core.  BLAS work is under a third of any workload's time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread setting)


@dataclass(frozen=True)
class Workload:
    n: int              # square n x n input
    rank: int
    p: int
    generic: bool       # E = I: every leading minor is nonzero
    via_file: bool      # decompose through the CLI, file to file; also time to_leu


WORKLOADS = {
    # ROADMAP standard input; recursion, permutations and base case are ~60%
    "half-rank": Workload(2048, 1024, 1009, generic=False, via_file=False),
    # largest prime below 2**26: int64 storage, no BLAS, kernels are ~96%
    "wide-prime": Workload(1024, 1024, 67108859, generic=True, via_file=False),
    # text write/parse and Permutation on the write path, queries on the read path
    "factor-file": Workload(1024, 512, 1009, generic=False, via_file=True),
}

SETUP_REPS = 5          # set-up runs per benchmark run; setup_s is their median
LEU_EVERY = 4           # factor-file runs to_leu in one cycle of this many
MIN_CYCLES = 4          # cycles measured even when --seconds runs out first
QUERIES_PER_CYCLE = 1000  # with MIN_CYCLES, >= 4000 queries: >= 40 beyond p99


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_package():
    """Import pluq from this checkout's src/, and refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import pluq

    if Path(pluq.__file__).resolve().parent != ROOT / "src" / "pluq":
        raise ImportError(f"pluq imported from {pluq.__file__}, not from {ROOT / 'src'}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def error(self, what: str, exc: Exception) -> None:
        self.check(what, [f"{type(exc).__name__}: {exc}"])


@dataclass
class Context:
    """Inputs and sinks shared by every cycle of one run."""

    name: str
    wl: Workload
    seed: int
    inst: object
    original: object      # DenseMatrix of A, never decomposed in place
    work: Path
    tally: Tally = field(default_factory=Tally)
    samples: dict = field(default_factory=dict)
    tracer: object = None
    cycles: int = 0
    reference: object = None  # factors that passed the full check, or None

    def __post_init__(self):
        self.query_rng = np.random.default_rng([self.seed, 1])
        self.m_path = self.work / "M.txt"
        self.f_path = self.work / "F.txt"
        self.saved_path = self.work / "F-saved.txt"

    def op(self, kind: str, fn, *args):
        """Run one timed operation; a span root named op.<kind> when traced."""
        start = perf_counter()
        try:
            if self.tracer is not None:
                return self.tracer.call(f"op.{kind}", fn, *args)
            return fn(*args)
        finally:
            # a failed operation keeps its latency: it counts against the tail
            self.samples.setdefault(kind, []).append(perf_counter() - start)

    def factor_problems(self, factors) -> list[str]:
        """Identical to the checked reference, or else checked in full."""
        import checks

        if self.reference is not None and checks.same_factors(factors, self.reference):
            return []
        return checks.factor_problems(factors, self.inst)


def setup(wl: Workload, seed: int, work: Path):
    from inputs import generate, matrix_text

    inst = generate(wl.n, wl.n, wl.rank, wl.p, seed, identity_support=wl.generic)
    if wl.via_file:
        (work / "M.txt").write_text(matrix_text(inst.a, wl.p))
    return inst


def _load(path: Path):
    from pluq.matrix import PluqFactors

    return PluqFactors.from_text(path.read_text())


def _save(factors, path: Path) -> None:
    path.write_text(factors.to_text())


def _cli_decompose(ctx: Context) -> int:
    from pluq import cli

    return cli.main(["decompose", str(ctx.m_path), "--out", str(ctx.f_path)])


def prepare(ctx: Context) -> None:
    """Untimed: decompose once, check in full, and save the factor file that
    every cycle loads.  Later outputs identical to this reference pass."""
    from pluq import recursive

    try:
        if ctx.wl.via_file:
            rc = _cli_decompose(ctx)
            if not ctx.tally.check("cli decompose", [] if rc == 0 else [f"exit code {rc}"]):
                return
            factors = _load(ctx.f_path)
        else:
            factors = recursive.pluq(ctx.original.copy())
        if ctx.tally.check("decompose", ctx.factor_problems(factors)):
            ctx.reference = factors
        if ctx.wl.via_file:
            ctx.saved_path.write_bytes(ctx.f_path.read_bytes())
        else:
            _save(factors, ctx.saved_path)
    except Exception as exc:  # counted; the cycles then check in full
        ctx.tally.error("prepare", exc)


def cycle(ctx: Context, extras: bool = False) -> None:
    """One closed-loop cycle: decompose, load the saved factors, query them.

    On factor-file every LEU_EVERY-th cycle also runs to_leu.  ``extras``
    adds the steps a workload does not time, so that a traced run reaches
    every layer: a save, and to_leu where the workload has none.
    """
    import checks
    from pluq import leu, recursive

    tally = ctx.tally
    ctx.cycles += 1
    try:
        if ctx.wl.via_file:
            rc = ctx.op("decompose", _cli_decompose, ctx)
            problems = [] if rc == 0 else [f"exit code {rc}"]
            if not problems and (ctx.reference is None or ctx.f_path.read_bytes() != ctx.saved_path.read_bytes()):
                problems = ctx.factor_problems(_load(ctx.f_path))
            tally.check("cli decompose", problems)
        else:
            factors = ctx.op("decompose", recursive.pluq, ctx.original.copy())
            tally.check("decompose", ctx.factor_problems(factors))
        loaded = ctx.op("load", _load, ctx.saved_path)
        tally.check("load", ctx.factor_problems(loaded))
        if extras:
            ctx.op("save", _save, loaded, ctx.work / "F-roundtrip.txt")
        if extras or (ctx.wl.via_file and ctx.cycles % LEU_EVERY == 1):
            leu_factors = ctx.op("leu", leu.to_leu, loaded, ctx.original)
            tally.check("to_leu", checks.leu_problems(leu_factors, ctx.inst))
    except Exception as exc:  # a failed operation is counted; the run goes on
        tally.error("cycle", exc)
        return
    m, n = ctx.inst.a.shape
    for _ in range(QUERIES_PER_CYCLE):
        k, t = int(ctx.query_rng.integers(0, m + 1)), int(ctx.query_rng.integers(0, n + 1))
        try:
            answer = ctx.op("query", _query, loaded, k, t)
        except Exception as exc:  # counted as above
            tally.error(f"query ({k}, {t})", exc)
            continue
        expected = ctx.inst.leading_profiles(k, t)
        tally.check(f"query ({k}, {t})", [] if answer == expected else [f"{answer} != {expected}"])


def _query(factors, k, t):
    """Looks the entry point up at call time, so traced cycles reach the wrapper."""
    from pluq import rank_profile

    return rank_profile.leading_rank_profiles(factors, k, t)


def run_cycles(ctx: Context, seconds: float, min_cycles: int) -> int:
    """Cycles until the next one, as long as the last, would end after ``seconds``."""
    deadline = perf_counter() + seconds
    done, last = 0, 0.0
    while done < min_cycles or perf_counter() + last < deadline:
        start = perf_counter()
        cycle(ctx)
        last = perf_counter() - start
        done += 1
    return done


def peak_alloc_mb(ctx: Context) -> float:
    """tracemalloc peak above the input during one pluq(a), untimed.

    tracemalloc makes pluq(a) 3x slower, so only the traced run pays for it.
    """
    from pluq import recursive

    mat = ctx.original.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        recursive.pluq(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def floor_matmul_s(ctx: Context) -> float:
    """One dense n x n x n matmul_mod at the workload's size and dtype."""
    x = ctx.original.data
    start = perf_counter()
    ctx.original.field.matmul_mod(x, x)
    return perf_counter() - start


def model_counts(ctx: Context) -> dict[str, float]:
    """OpCounts and TrackingWorkspace totals of one pluq(a): exact, repeatable."""
    from pluq import OpCounts, TrackingWorkspace, recursive

    counts, ws = OpCounts(), TrackingWorkspace()
    factors = recursive.pluq(ctx.original.copy(), counts=counts, workspace=ws)
    ctx.tally.check("counted decompose", ctx.factor_problems(factors))
    return {
        "ops.field_mul": counts.field_mul,
        "ops.field_add": counts.field_add,
        "ops.field_inv": counts.field_inv,
        "ops.reductions": counts.modular_reductions,
        "workspace.peak_elements": ws.peak_elements,
        "workspace.max_scratch_block": ws.max_scratch_block,
    }


def _median(values):
    return float(np.median(values))


def machine_facts(ctx: Context) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": _blas_threads(),
        "l3_bytes": _l3_bytes(),
        "matrix_bytes": ctx.original.data.nbytes,
    }
    return facts


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _l3_bytes():
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() != "3":
                continue
            size = Path(index, "size").read_text().strip()
        except OSError:
            return None
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:28s} {value:>14.6g} {unit:8s} {note}".rstrip())


def timed_run(ctx: Context, seconds: float) -> dict:
    """End-to-end metrics as name -> (value, unit, note)."""
    cycles = run_cycles(ctx, seconds, MIN_CYCLES)
    queries = ctx.samples.get("query", [np.nan] * QUERIES_PER_CYCLE)
    # one row per cycle: every cycle that reaches its query stream runs all of it
    queries_us = np.array(queries).reshape(-1, QUERIES_PER_CYCLE) * 1e6
    metrics = {
        "decompose_s": _median_of(ctx, "decompose", f" ({cycles} cycles)"),
        "load_s": _median_of(ctx, "load"),
        # per-cycle percentiles, then the median over cycles: a stretch of a
        # noisy host moves the cycles inside it, not the run's figure
        "query_us_p50": (_median(np.percentile(queries_us, 50, axis=1)), "us",
                         f"median over {len(queries_us)} cycles of each cycle's p50"),
        "query_us_p99": (_median(np.percentile(queries_us, 99, axis=1)), "us",
                         f"median over {len(queries_us)} cycles of each cycle's p99"),
    }
    if ctx.wl.via_file:
        metrics["cli_decompose_s"] = metrics["decompose_s"][:2] + ("the in-process CLI, file to file",)
        metrics["leu_s"] = _median_of(ctx, "leu")
    metrics["floor.matmul_s"] = (floor_matmul_s(ctx), "s", "one dense n^3 matmul_mod, same run")
    return metrics


def _median_of(ctx: Context, kind: str, note: str = ""):
    samples = ctx.samples.get(kind, [np.nan])
    return _median(samples), "s", f"median of {len(samples)}{note}"


def traced_run(ctx: Context, seconds: float) -> dict:
    """Per-layer metrics as name -> value.

    Untraced and traced cycles alternate: the untraced ones give the
    decompose_s of floor.ratio.
    """
    from spans import Tracer, span_cost_s

    tracer = Tracer()
    deadline = perf_counter() + seconds
    pairs = 0
    while pairs < 2 or perf_counter() < deadline:
        cycle(ctx)
        ctx.tracer = tracer
        with tracer.patched():
            cycle(ctx, extras=pairs == 0)
        ctx.tracer = None
        pairs += 1
    untraced_s = _median(ctx.samples["decompose"][0::2])  # untraced, traced, ...
    layers = tracer.summary()
    trace_dir = BENCH_DIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    tracer.write(trace_dir / f"{ctx.name}-seed{ctx.seed}.jsonl.gz")
    layers.update(model_counts(ctx))
    layers["peak_alloc_mb"] = peak_alloc_mb(ctx)
    floor = floor_matmul_s(ctx)
    layers["floor.matmul_s"] = floor
    layers["floor.ratio"] = untraced_s / floor
    # what the wrappers add to one decomposition, against its untraced time
    layers["trace.overhead_frac"] = span_cost_s() * layers["trace.spans_per_decompose"] / untraced_s
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import the pluq package from this checkout: {exc}", file=sys.stderr)
        return 1
    import checks
    from pluq import DenseMatrix, PrimeField

    # BENCHMARK.json names the metrics of the result line and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    selftest = checks.self_test(wl.p)
    selftest_ok = selftest["clean"] == 0 and selftest["flipped_entry"] == 1 and selftest["wrong_index"] == 1
    print(f"checker self-test fail_frac: {json.dumps(selftest)} -> {'ok' if selftest_ok else 'VACUOUS'}")

    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as work:
        work = Path(work)
        setup_times = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            inst = setup(wl, args.seed, work)
            setup_times.append(perf_counter() - start)
        prime_field = PrimeField(wl.p)
        ctx = Context(args.workload, wl, args.seed, inst, DenseMatrix(prime_field, inst.a.astype(prime_field.dtype)), work)
        prepare(ctx)
        print("machine:", json.dumps(machine_facts(ctx)))
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {name: (value, units[name], "") for name, value in traced_run(ctx, args.seconds).items()}
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = timed_run(ctx, args.seconds)
    metrics["setup_s"] = (_median(setup_times), "s", f"median of {SETUP_REPS}")
    tally = ctx.tally
    metrics["fail_frac"] = (tally.failed / max(tally.attempted, 1), "fraction",
                            f"{tally.failed} of {tally.attempted} checks")
    for name, (value, unit, note) in metrics.items():
        print_metric(name, value, unit, note)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0 and selftest_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
