"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6 gates the paper's (2/3)n^3 leading constant, which counts
n^3/3 multiplications plus n^3/3 additions: the criterion holds each half to
n^3/3 separately, and its companion holds the total to (2/3)n^3.
"""

import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from pluq import (
    DEFAULT_THRESHOLD,
    DenseMatrix,
    OpCounts,
    PrimeField,
    TrackingWorkspace,
    all_leading_rank_profiles_naive,
    check_triangular_extension,
    gen_full_rank_generic,
    gen_rank_deficient_rect,
    leading_rank_profiles,
    ple_row_major,
    pluq,
    pluq_iterative,
    r_ple_recurrence,
    r_pluq_closed_form,
    to_leu,
)
from pluq.cli import main as cli_main
from pluq.oracle import LeadingProfileTable

P = 1009
SIZES = [1, 2, 3, 5, 8, 16, 33, 64, 128]


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _variants(matrix):
    """The three decomposition routes every fixture goes through."""
    return {
        "rec_t1": pluq(matrix.copy(), threshold=1),
        "rec_t30": pluq(matrix.copy(), threshold=30),
        "iterative": pluq_iterative(matrix.copy()),
    }


@pytest.fixture(scope="module")
def fixture_set():
    """200 seeded random matrices over F_1009 with the sizes and ranks of
    criterion 1, decomposed by all three routes."""
    rng = np.random.default_rng(20260810)
    fixtures = []
    for idx in range(200):
        m = int(rng.choice(SIZES))
        n = int(rng.choice(SIZES))
        rank = [0, 1, min(m, n) // 2, min(m, n)][idx % 4]
        a = gen_rank_deficient_rect(m, n, rank, P, int(rng.integers(0, 2**63)))
        fixtures.append((a, _variants(a)))
    return fixtures


@pytest.fixture(scope="module")
def fixture_32(fixture_set):
    """50 random 32x32 rank-16 matrices for criterion 2, both algorithms."""
    rng = np.random.default_rng(32)
    out = []
    for _ in range(50):
        a = gen_rank_deficient_rect(32, 32, 16, P, int(rng.integers(0, 2**63)))
        out.append((a, _variants(a)))
    return out


def test_criterion_01_reconstruction(fixture_set):
    start = time.perf_counter()
    bad = []
    for a, variants in fixture_set:
        for tag, factors in variants.items():
            if factors.reconstruct() != a or factors.check_structure():
                bad.append((tag, a.shape))
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"exact reconstruction on 200 fixtures x 3 routes in {elapsed:.1f}s (budget 60s)",
        not bad and elapsed < 60,
    )


def test_criterion_02_rank_profiles_exhaustive_and_random(fixture_32):
    start = time.perf_counter()
    mismatches = 0
    field = PrimeField(2)
    for m, n in ((3, 3), (3, 4)):
        for entries in itertools.product(range(2), repeat=m * n):
            arr = np.array(entries, dtype=field.dtype).reshape(m, n)
            orig = DenseMatrix(field, arr.copy())
            oracle = all_leading_rank_profiles_naive(orig)
            for factors in (
                pluq(DenseMatrix(field, arr.copy()), threshold=1),
                pluq_iterative(DenseMatrix(field, arr.copy())),
            ):
                for (k, t), expected in oracle.items():
                    if leading_rank_profiles(factors, k, t) != expected:
                        mismatches += 1
    for a, variants in fixture_32:
        table = LeadingProfileTable(a)
        for factors in (variants["rec_t1"], variants["iterative"]):
            for k in range(33):
                for t in range(33):
                    if leading_rank_profiles(factors, k, t) != (table.rows(k, t), table.cols(k, t)):
                        mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"all leading profiles match the greedy oracle (exhaustive F2 3x3/3x4 + 50 random 32x32) "
        f"in {elapsed:.0f}s (budget 300s)",
        mismatches == 0 and elapsed < 300,
    )


def test_criterion_03_leu_conversion():
    rng = np.random.default_rng(3)
    failures = 0
    for trial in range(100):
        m, n = (int(x) for x in rng.integers(1, 13, 2))
        r = int(rng.integers(0, min(m, n) + 1))
        a = gen_rank_deficient_rect(m, n, r, P, int(rng.integers(0, 2**63)))
        factors = (
            pluq(a.copy(), threshold=int(rng.choice([1, 30])))
            if trial % 2
            else pluq_iterative(a.copy())
        )
        try:
            to_leu(factors, a)
        except RuntimeError:
            failures += 1
            continue
        dtype = a.field.dtype
        mr, nr = m - factors.rank, n - factors.rank
        for _ in range(10):
            y = np.tril(rng.integers(0, P, (mr, mr)), -1).astype(dtype)
            y[np.arange(mr), np.arange(mr)] = 1
            z = np.triu(rng.integers(0, P, (nr, nr))).astype(dtype)
            if check_triangular_extension(factors, y, z) != (True, True):
                failures += 1
    _report(3, "LEU conversion + triangular extensions on 100 random factorizations", failures == 0)


def test_criterion_04_pluq_reduction_count():
    deltas = {}
    for m in (2, 4, 8, 16, 32, 64, 128):
        counts = OpCounts()
        pluq(gen_full_rank_generic(m, P, seed=m), threshold=1, counts=counts)
        deltas[m] = counts.modular_reductions - r_pluq_closed_form(m)
    _report(4, f"quadrant reductions equal 2m^2-2m exactly, deltas {deltas}", all(d == 0 for d in deltas.values()))


def test_criterion_05_ple_reduction_count():
    deltas = {}
    for m in (2, 4, 8, 16, 32, 64, 128):
        counts = OpCounts()
        ple_row_major(gen_full_rank_generic(m, P, seed=m), counts)
        deltas[m] = counts.modular_reductions - r_ple_recurrence(m, m)
    counts = OpCounts()
    ple_row_major(gen_full_rank_generic(128, P, seed=128), counts)
    ratio = counts.modular_reductions / (0.25 * math.log2(128) * 128**2 + 128**2)
    _report(
        5,
        f"row-major reductions equal the recurrence exactly (deltas {deltas}); "
        f"ratio to (1+log2(m)/4)m^2 at m=128 is {ratio:.4f}",
        all(d == 0 for d in deltas.values()) and abs(ratio - 1) < 0.15,
    )


def test_criterion_06_leading_constant_as_specified():
    # The paper's (2/3)n^3 counts field operations: classical elimination of a
    # full-rank n x n matrix does sum_{k<n} k(k+1) = (n^3-n)/3 multiplications
    # and sum_{k<n} k^2 = (n-1)n(2n-1)/6 additions, n^3/3 + O(n^2) of each.
    # The kernels charge a multiply-accumulate as one field_mul plus one
    # field_add, and the O(n) pivot inversions join the multiplicative half.
    # So field_mul + field_inv and field_add are each held to (1/3)n^3; the
    # companion test below holds their sum to (2/3)n^3.
    n = 256
    counts = OpCounts()
    pluq(gen_full_rank_generic(n, P, seed=6), threshold=30, counts=counts)
    mul_ratio = (counts.field_mul + counts.field_inv) / (n**3 / 3)
    add_ratio = counts.field_add / (n**3 / 3)
    _report(
        6,
        f"field_mul + field_inv vs (1/3)n^3 at n=256: ratio {mul_ratio:.4f}; "
        f"field_add vs (1/3)n^3: ratio {add_ratio:.4f} (window 0.95..1.05)",
        0.95 <= mul_ratio <= 1.05 and 0.95 <= add_ratio <= 1.05,
    )


def test_criterion_06_companion_total_ops_hit_the_constant():
    # mul + add + inv is the operation count the 2/3 constant describes
    n = 256
    counts = OpCounts()
    pluq(gen_full_rank_generic(n, P, seed=6), threshold=30, counts=counts)
    ratio = counts.total_field_ops() / ((2 / 3) * n**3)
    _report(6, f"(companion) mul+add+inv vs (2/3)n^3 at n=256: ratio {ratio:.4f}", 0.95 <= ratio <= 1.05)


def test_criterion_07_rank_sensitivity():
    totals = {}
    for r in (64, 128, 256):
        counts = OpCounts()
        pluq(gen_rank_deficient_rect(512, 512, r, P, seed=7), threshold=30, counts=counts)
        totals[r] = counts.total_field_ops()
    up = totals[256] / totals[128]
    down = totals[64] / totals[128]
    _report(
        7,
        f"total ops scale linearly in rank at n=512: 256/128 ratio {up:.2f} in [1.5, 2.6], "
        f"64/128 ratio {down:.2f} in [1/2.6, 1/1.5]",
        1.5 <= up <= 2.6 and 1 / 2.6 <= down <= 1 / 1.5,
    )


def test_criterion_08_in_place_contract():
    m = n = 256
    a = gen_rank_deficient_rect(m, n, 128, P, seed=8)
    ws = TrackingWorkspace()
    tracemalloc.start()
    baseline = tracemalloc.get_traced_memory()[0]
    pluq(a, threshold=30, workspace=ws)
    peak_bytes = tracemalloc.get_traced_memory()[1] - baseline
    tracemalloc.stop()
    # the recursion's own buffers: one scratch block (<= max r3*r2 over the
    # recursion); the allowance keeps the room of two O(m + n) line buffers,
    # which the permutation gathers do not use
    ws_ok = ws.peak_elements <= ws.max_scratch_block + 2 * (m + n) and ws.live_elements == 0
    # kernel-internal multiply panels and the permutation gathers' panels are
    # exempt but stay far below the input size; a hidden full-matrix copy
    # would blow this cap
    input_bytes = m * n * a.data.itemsize
    _report(
        8,
        f"auxiliary space: {ws.peak_elements} tracked elements vs allowance "
        f"{ws.max_scratch_block + 2 * (m + n)}; process peak {peak_bytes/1024:.0f} KiB "
        f"vs cap {0.5 * input_bytes / 1024:.0f} KiB",
        ws_ok and peak_bytes <= 0.5 * input_bytes,
    )


def test_criterion_09_algorithm_agreement(fixture_set, fixture_32):
    disagreements = 0
    bit_identical = 0
    total = 0
    for _, variants in list(fixture_set) + list(fixture_32):
        base = variants["rec_t1"]
        for tag in ("rec_t30", "iterative"):
            other = variants[tag]
            total += 1
            if base.rank != other.rank or sorted(zip(*base.supports)) != sorted(zip(*other.supports)):
                disagreements += 1
            if (
                base.p_perm == other.p_perm
                and base.q_perm == other.q_perm
                and np.array_equal(base.packed.data, other.packed.data)
            ):
                bit_identical += 1
    # bit-equality of (P, Q, packed) is reported, not gated
    print(f"[criterion 09] note: bit-identical outputs across routes: {bit_identical}/{total}")
    _report(
        9,
        "recursive (thresholds 1 and 30) and iterative agree on rank and all leading profiles",
        disagreements == 0,
    )


def test_criterion_10_bench_pipeline_and_reduction_advantage(tmp_path, capsys):
    start = time.perf_counter()
    csv_path = tmp_path / "bench.csv"
    code = cli_main(
        ["bench", "--m", "2048", "--n", "2048", "--rank", "1024", "--reps", "1", "--csv", str(csv_path)]
    )
    elapsed = time.perf_counter() - start
    rows = csv_path.read_text().splitlines()
    bench_ok = code == 0 and len(rows) == 2 and rows[0].startswith("algo,m,n")

    advantage = {}
    for m in (64, 128):
        pluq_counts, ple_counts = OpCounts(), OpCounts()
        pluq(gen_full_rank_generic(m, P, seed=m), threshold=1, counts=pluq_counts)
        ple_row_major(gen_full_rank_generic(m, P, seed=m), ple_counts)
        advantage[m] = (pluq_counts.modular_reductions, ple_counts.modular_reductions)
    fewer = all(quad < row for quad, row in advantage.values())
    _report(
        10,
        f"bench pipeline at n=2048 ran in {elapsed:.1f}s (budget 60s); "
        f"reduction counts quadrant vs row-major: {advantage}",
        bench_ok and elapsed < 60 and fewer,
    )


@pytest.mark.parametrize("n", [256, 1024])
def test_criterion_10_companion_reduction_advantage_at_default_threshold(n):
    # Criterion 10 holds the quadrant recursion at threshold 1; the default
    # route hands blocks to the base case, whose rank-1 updates reduce the
    # whole trailing block each, so a higher crossover can lose the advantage
    # (at threshold 30: 144 640 against 196 352 at n=256, 2 151 424 against
    # 3 668 992 at n=1024).
    counts = OpCounts()
    pluq(gen_full_rank_generic(n, P, seed=6), threshold=DEFAULT_THRESHOLD, counts=counts)
    row_major = r_ple_recurrence(n, n)
    _report(
        10,
        f"(companion) reductions at the default threshold {DEFAULT_THRESHOLD}, n={n}: "
        f"{counts.modular_reductions} vs row-major {row_major}",
        counts.modular_reductions < row_major,
    )
