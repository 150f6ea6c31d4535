import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from pluq import (
    DenseMatrix,
    OpCounts,
    Permutation,
    PrimeField,
    all_leading_rank_profiles_naive,
    leading_rank_profiles,
    pluq,
    pluq_iterative,
    rank_naive,
)
from pluq.field import inverse_mod
from pluq.kernels import ClassicalKernels
from pluq.recursive import TrackingWorkspace, _Ctx, _decompose_inplace
from conftest import is_identity, mat, random_matrix


def _ctx(kernels, counts):
    """The context the recursion hands its base case (the threshold is unused there)."""
    return _Ctx(threshold=1, counts=counts, kernels=kernels, ws=TrackingWorkspace())


def test_zero_matrix():
    f = pluq_iterative(mat([[0, 0, 0], [0, 0, 0]], 5))
    assert f.rank == 0
    assert is_identity(f.p_perm) and is_identity(f.q_perm)
    assert not f.packed.data.any()


def test_antidiagonal_2x2():
    a = mat([[0, 1], [1, 0]], 2)
    f = pluq_iterative(a)
    assert f.rank == 2
    assert leading_rank_profiles(f, 2, 2) == ((0, 1), (0, 1))
    assert f.reconstruct() == mat([[0, 1], [1, 0]], 2)


def test_3x3_example_matches_recursive():
    rows = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    fi = pluq_iterative(mat(rows, 2))
    fr = pluq(mat(rows, 2), threshold=1)
    assert fi.rank == fr.rank == 2
    from pluq import col_rank_profile, row_rank_profile

    assert row_rank_profile(fi) == row_rank_profile(fr) == (1, 2)
    assert col_rank_profile(fi) == col_rank_profile(fr) == (1, 2)
    assert fi.reconstruct() == mat(rows, 2)


def test_single_row_and_column():
    f = pluq_iterative(mat([[0, 0, 5]], 7))
    assert f.rank == 1
    assert np.array_equal(f.packed.data, np.array([[5, 0, 0]]))
    assert f.reconstruct() == mat([[0, 0, 5]], 7)

    f = pluq_iterative(mat([[0], [2], [4]], 5))
    assert f.rank == 1
    assert np.array_equal(f.packed.data.ravel(), [2, 0, 2])
    assert f.p_perm == Permutation([1, 0, 2])
    assert f.reconstruct() == mat([[0], [2], [4]], 5)


def test_frontier_monotonicity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m, n = (int(x) for x in rng.integers(0, 9, 2))
        a = random_matrix(rng, m, n, 3)
        trace = []
        _decompose_inplace(a.data, _ctx(ClassicalKernels(a.field), OpCounts()), trace=trace)
        last_i = last_j = 0
        for i, j, r in trace:
            assert last_i <= i <= m and last_j <= j <= n
            assert r <= min(i, j) or (i == 0 and j == 0)
            last_i, last_j = i, j


def test_exhaustive_3x3_f2_profiles():
    # all 512 matrices, all 16 leading blocks each
    for entries in itertools.product(range(2), repeat=9):
        a = mat([list(entries[0:3]), list(entries[3:6]), list(entries[6:9])], 2)
        orig = a.copy()
        f = pluq_iterative(a)
        oracle = all_leading_rank_profiles_naive(orig)
        assert f.reconstruct() == orig
        for (k, t), expected in oracle.items():
            assert leading_rank_profiles(f, k, t) == expected, (entries, k, t)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 101]),
    m=st.integers(0, 8),
    n=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_reconstruction_and_rank(p, m, n, seed):
    a = random_matrix(np.random.default_rng(seed), m, n, p)
    orig = a.copy()
    f = pluq_iterative(a)
    assert f.reconstruct() == orig
    assert not f.check_structure()
    assert f.rank == rank_naive(orig)


def test_determinism():
    a = random_matrix(np.random.default_rng(21), 9, 7, 101)
    f1 = pluq_iterative(a.copy())
    f2 = pluq_iterative(a.copy())
    assert f1.p_perm == f2.p_perm and f1.q_perm == f2.q_perm
    assert np.array_equal(f1.packed.data, f2.packed.data)


def _decompose_stepwise(data, kernels, counts, trace):
    """The base case before the frontier jumps and in-place rotations: one
    Z-curve step per loop iteration.  Kept as the reference for the fast one."""
    field = kernels.field
    m, n = data.shape
    rows = np.arange(m, dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    r = i = j = 0
    while i < m or j < n:
        trace.append((i, j, r))
        pivot = None
        if j < n:
            nz = np.nonzero(data[r:i, j])[0]
            if nz.size:
                pivot = (r + int(nz[0]), j)
                j += 1
        if pivot is None and i < m:
            nz = np.nonzero(data[i, r:j])[0]
            if nz.size:
                pivot = (i, r + int(nz[0]))
                i += 1
            elif j < n and data[i, j] != 0:
                pivot = (i, j)
                i += 1
                j += 1
        if pivot is None:
            i = min(i + 1, m)
            j = min(j + 1, n)
            continue

        prow, qcol = pivot
        below = m - prow - 1
        if below:
            inv_piv = inverse_mod(int(data[prow, qcol]), field.p)
            counts.field_inv += 1
            mults = data[prow + 1 :, qcol : qcol + 1]
            mults[:] = field.matmul_mod(mults, np.full((1, 1), inv_piv, data.dtype))
            counts.field_mul += below
            counts.modular_reductions += below
            kernels.mm_acc(data[prow + 1 :, qcol + 1 :], mults, data[prow : prow + 1, qcol + 1 :], counts)

        if qcol > r:
            data[:, r : qcol + 1] = np.roll(data[:, r : qcol + 1], 1, axis=1)
            cols[r : qcol + 1] = np.concatenate((cols[qcol : qcol + 1], cols[r:qcol]))
        if prow > r:
            data[r : prow + 1, :] = np.roll(data[r : prow + 1, :], 1, axis=0)
            rows[r : prow + 1] = np.concatenate((rows[prow : prow + 1], rows[r:prow]))
        r += 1
    return rows, cols, r


@st.composite
def _sparse_blocks(draw):
    p = draw(st.sampled_from([2, 1009, 2**31 - 1]))
    m, n = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["sparse", "low-rank", "last-row", "last-col", "dense"]))
    data = np.zeros((m, n), dtype=object)
    if layout == "dense":  # generic full rank: most pivots sit at the frontier's corner
        data[:] = rng.integers(1, p, size=(m, n))
    elif layout == "sparse":
        density = draw(st.floats(0, 0.2))
        data[:] = rng.integers(1, p, size=(m, n)) * (rng.random((m, n)) < density)
    elif layout == "low-rank":
        k = draw(st.integers(1, 4))
        left = rng.integers(0, p, size=(m, k)) * (rng.random((m, k)) < 0.3)
        right = rng.integers(0, p, size=(k, n)) * (rng.random((k, n)) < 0.3)
        data[:] = left.astype(object).dot(right.astype(object)) % p
    elif m and n:  # one nonzero, somewhere in the last row or the last column
        at = int(rng.integers(0, n if layout == "last-row" else m))
        data[(m - 1, at) if layout == "last-row" else (at, n - 1)] = int(rng.integers(1, p))
    return DenseMatrix(PrimeField(p), data.astype(np.int64))


class _BoundedTrace(list):
    """Frontier trace that fails once the walk takes more steps than i + j
    can grow, instead of letting a frontier that stopped advancing hang."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def append(self, step):
        assert len(self) < self.limit, f"frontier stalled at {step}"
        super().append(step)


@settings(max_examples=400, deadline=None)
@given(a=_sparse_blocks())
def test_frontier_jump_matches_stepwise_reference(a):
    kernels = ClassicalKernels(a.field)
    ref_data, ref_counts, ref_trace = a.data.copy(), OpCounts(), []
    ref_rows, ref_cols, ref_rank = _decompose_stepwise(ref_data, kernels, ref_counts, ref_trace)
    counts, trace = OpCounts(), _BoundedTrace(a.m + a.n)
    rows, cols, rank = _decompose_inplace(a.data, _ctx(kernels, counts), trace=trace)
    assert np.array_equal(rows.sigma, ref_rows) and np.array_equal(cols.sigma, ref_cols)
    assert rank == ref_rank
    assert np.array_equal(a.data, ref_data)
    assert counts == ref_counts
    # every frontier step the jump lands on is one the stepwise walk visits
    steps = iter(ref_trace)
    assert all(step in steps for step in trace)
