import dataclasses

import numpy as np
import pytest

from pluq import OpCounts, PrimeField, gen_rank_deficient_rect, pluq, pluq_iterative
from pluq.kernels import ClassicalKernels
from pluq.matrix import _PANEL_ROWS
from conftest import mat, random_matrix, split_side
from test_moduli import PRIMES


def naive_mm_acc(c, a, b, p):
    """Independent triple loop with per-element reduction."""
    m, k = a.shape
    n = b.shape[1]
    out = c.astype(object).copy()
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] = (out[i, j] - int(a[i, t]) * int(b[t, j])) % p
    return out.astype(np.int64)


def test_mm_acc_identity_example():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    c = mat([[0, 0], [0, 0]], 5)
    a = mat(np.eye(2), 5)
    b = mat([[1, 2], [3, 4]], 5)
    kern.mm_acc(c.data, a.data, b.data, OpCounts())
    assert c == mat([[4, 3], [2, 1]], 5)  # 0 - I*B = -B


def test_mm_acc_empty_inner_dimension_is_noop():
    field = PrimeField(7)
    kern = ClassicalKernels(field)
    c = mat([[1, 2], [3, 4]], 7)
    counts = OpCounts()
    kern.mm_acc(c.data, np.zeros((2, 0), field.dtype), np.zeros((0, 2), field.dtype), counts)
    assert c == mat([[1, 2], [3, 4]], 7)
    assert counts.modular_reductions == 0 and counts.field_mul == 0


def test_mm_acc_against_triple_loop():
    rng = np.random.default_rng(77)
    for trial in range(1000):
        p = int(rng.choice([2, 3]))
        field = PrimeField(p)
        kern = ClassicalKernels(field)
        m, k, n = (int(x) for x in rng.integers(0, 6, 3))
        a = rng.integers(0, p, (m, k)).astype(field.dtype)
        b = rng.integers(0, p, (k, n)).astype(field.dtype)
        c = rng.integers(0, p, (m, n)).astype(field.dtype)
        expected = naive_mm_acc(c, a, b, p)
        kern.mm_acc(c, a, b, OpCounts())
        assert np.array_equal(c.astype(np.int64), expected), (trial, p, m, k, n)


def test_mm_acc_large_modulus_int64_path():
    p = 67108859  # prime below 2**26: k = 3000 takes the limb-split product
    field = PrimeField(p)
    kern = ClassicalKernels(field)
    rng = np.random.default_rng(4)
    a = rng.integers(0, p, (4, 3000)).astype(field.dtype)
    b = rng.integers(0, p, (3000, 2)).astype(field.dtype)
    c = np.zeros((4, 2), field.dtype)
    kern.mm_acc(c, a, b, OpCounts())
    # bignum oracle on a couple of entries
    for i in (0, 3):
        for j in (0, 1):
            want = (-sum(int(a[i, t]) * int(b[t, j]) for t in range(3000))) % p
            assert int(c[i, j]) == want


@pytest.mark.parametrize("p", [
    67108859,  # largest prime below 2**26: max_accumulate 2
    1048573,   # largest prime below 2**20: max_accumulate 8192
    2**31 - 1,  # max_accumulate 0: every product is limb-split
])
def test_mm_acc_worst_case_at_the_fused_bound(p, monkeypatch):
    # C - A @ B is formed unreduced while k (p-1)^2 + (p-1) fits the float64
    # mantissa; one more term must take the limb-split matmul_mod path.
    field = PrimeField(p)
    k_fused = (2**53 - (p - 1)) // (p - 1) ** 2
    assert field.max_accumulate == k_fused
    chunked = []
    original = PrimeField.matmul_mod
    monkeypatch.setattr(PrimeField, "matmul_mod",
                        lambda self, a, b: chunked.append(a.shape) or original(self, a, b))
    kern = ClassicalKernels(field)
    for k in (k_fused, k_fused + 1, 2 * k_fused):
        chunked.clear()
        m, n = 33, 2  # two row panels
        a = np.full((m, k), p - 1, dtype=field.dtype)
        b = np.full((k, n), p - 1, dtype=field.dtype)
        c = np.zeros((m, n), dtype=field.dtype)
        kern.mm_acc(c, a, b, OpCounts())
        want = (-k * (p - 1) ** 2) % p  # Python integers, no overflow
        assert c.astype(object).tolist() == [[want] * n] * m, k
        assert bool(chunked) == (k > k_fused), k


def test_trsm_left_unit_identity_noop():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    b = mat([[1, 2], [3, 4]], 5)
    kern.trsm_left_unit_lower(np.eye(2), b.data, OpCounts())
    assert b == mat([[1, 2], [3, 4]], 5)


def test_trsm_left_unit_forward_substitution():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    l = mat([[1, 0], [2, 1]], 5)
    b = mat([[1], [0]], 5)
    kern.trsm_left_unit_lower(l.data, b.data, OpCounts())
    assert b == mat([[1], [3]], 5)  # 0 - 2*1 = -2 = 3


def test_trsm_right_upper_scalar():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    b = mat([[1]], 5)
    kern.trsm_right_upper(b.data, mat([[2]], 5).data, OpCounts())
    assert b == mat([[3]], 5)  # inv(2) = 3


def test_one_row_right_solve_scales_without_a_product(monkeypatch):
    # B U^-1 with U = [u] scales B by u's inverse, as the base case scales a
    # pivot column: while (p-1)^2 fits the mantissa no matmul_mod runs
    calls = []
    matmul = PrimeField.matmul_mod
    monkeypatch.setattr(PrimeField, "matmul_mod", lambda self, a, b: calls.append(a.shape) or matmul(self, a, b))
    host = np.array([[5.0, 1.0], [0.0, 1.0], [1008.0, 1.0]])
    counts = OpCounts()
    ClassicalKernels(PrimeField(1009)).trsm_right_upper(host[:, :1], np.array([[2.0]]), counts)
    assert calls == []
    assert host.tolist() == [[5 * 505 % 1009, 1], [0, 1], [1008 * 505 % 1009, 1]]  # inv(2) = 505
    assert counts == OpCounts(field_mul=3, field_inv=1, modular_reductions=6)


def test_trsm_right_upper_identity_noop():
    field = PrimeField(7)
    kern = ClassicalKernels(field)
    rng = np.random.default_rng(8)
    b = random_matrix(rng, 3, 3, 7)
    expected = b.copy()
    kern.trsm_right_upper(b.data, np.eye(3), OpCounts())
    assert b == expected


def test_trsm_zero_diagonal_raises():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    u = mat([[1, 2], [0, 0]], 5)
    with pytest.raises(ZeroDivisionError):
        kern.trsm_right_upper(np.zeros((2, 2), field.dtype), u.data, OpCounts())


def test_trsm_shape_errors():
    kern = ClassicalKernels(PrimeField(5))
    # L or U not square, or B not matching the triangle's order
    for l, b in (((2, 3), (2, 1)), ((2, 2), (3, 1))):
        with pytest.raises(ValueError, match="trsm shapes"):
            kern.trsm_left_unit_lower(np.eye(*l), np.zeros(b), OpCounts())
    for b, u in (((1, 2), (2, 3)), ((1, 3), (2, 2))):
        with pytest.raises(ValueError, match="trsm shapes"):
            kern.trsm_right_upper(np.zeros(b), np.eye(*u), OpCounts())


def _in_wider(arr, rng, p):
    """``arr`` as a column slice of a wider array, as the recursion passes blocks."""
    rows, cols = arr.shape
    host = rng.integers(0, p, (rows, cols + 5)).astype(arr.dtype)
    host[:, 2 : 2 + cols] = arr
    return host[:, 2 : 2 + cols]


@pytest.mark.parametrize("p", [5, 1009, 67108859, 2**31 - 1])
def test_trsm_remultiplication_restores(p):
    # L and U share one block, as in the packed L\U layout, so each solve must
    # ignore the other triangle; odd trials pass strided views.  At 2**31 - 1,
    # max_accumulate is 0, so every update and every diagonal scaling inside a
    # solve takes the limb-split product.
    rng = np.random.default_rng(p)
    field = PrimeField(p)
    kern = ClassicalKernels(field)
    for trial in range(20):
        r = int(rng.integers(1, 40))
        n = int(rng.integers(0, 40))
        lu = rng.integers(0, p, (r, r)).astype(field.dtype)
        lu[np.arange(r), np.arange(r)] = rng.integers(1, p, r)
        left = rng.integers(0, p, (r, n)).astype(field.dtype)
        right = rng.integers(0, p, (n, r)).astype(field.dtype)
        orig_left, orig_right = left.copy(), right.copy()
        if trial % 2:
            lu, left, right = (_in_wider(x, rng, p) for x in (lu, left, right))
        kern.trsm_left_unit_lower(lu, left, OpCounts())
        kern.trsm_right_upper(right, lu, OpCounts())
        lower = np.tril(lu, -1) + np.eye(r, dtype=field.dtype)
        assert np.array_equal(field.matmul_mod(lower, left), orig_left)
        assert np.array_equal(field.matmul_mod(right, np.triu(lu)), orig_right)


def _views(rng, p, m, n):
    """An m x n slice of a larger matrix and an m x n transposed view of
    another, as the recursion passes C and the right solve passes B^T, each
    with its host."""
    host = rng.integers(0, p, (m + 9, n + 7)).astype(np.float64)
    host_t = rng.integers(0, p, (n + 5, m + 3)).astype(np.float64)
    return [(host[4 : 4 + m, 2 : 2 + n], host), (host_t[1 : 1 + n, 3 : 3 + m].T, host_t)]


def _ints(arr):
    """Exact Python integers, whose products cannot round or overflow."""
    return arr.astype(np.int64).astype(object)


@pytest.mark.parametrize("p", PRIMES)
def test_block_update_into_strided_and_transposed_views(p, monkeypatch):
    # _sub_mul reduces C - A B on a contiguous panel and writes it into C once;
    # C is a slice of a larger matrix in mm_acc and a transposed view in the
    # right solve.  Where the field's bound exceeds 35 it is lowered to 35 (any
    # lower bound is still exact), so that k = bound takes the fused product
    # and k = bound + 1 the limb-split one, with 32 x 40 panels above the
    # reduction's np.mod cutoff and a 6 x 40 panel below it.
    rng = np.random.default_rng(p)
    field = PrimeField(p)
    field.max_accumulate = bound = min(field.max_accumulate, 35)
    kern = ClassicalKernels(field)
    updates = []  # the inner dimension of every block update
    sub_mul = ClassicalKernels._sub_mul
    monkeypatch.setattr(ClassicalKernels, "_sub_mul",
                        lambda self, c, a, b: updates.append(a.shape[1]) or sub_mul(self, c, a, b))
    m, n = 70, 40
    for k in sorted({max(bound, 1), bound + 1}):
        a = rng.integers(0, p, (m, k)).astype(field.dtype)
        b = rng.integers(0, p, (k, n)).astype(field.dtype)
        for c, host in _views(rng, p, m, n):
            before, cells = host.copy(), c.copy()
            kern.mm_acc(c, a, b, OpCounts())
            want = (_ints(cells) - _ints(a) @ _ints(b)) % p
            assert np.array_equal(_ints(c), want), k
            c[:] = cells
            assert np.array_equal(host, before), k  # nothing outside C moved
        # B U^-1 with r = 64 at k = bound and r = 128 at k = bound + 1: the
        # solve's 32-row leaf i takes one update of inner dimension 32 i, so
        # r = 128 has 32 (fused at bound = 35), 64 and 96 (limb-split).  At the
        # two primes whose bound is below 32, every update of a solve is
        # limb-split.
        r = 2 * _PANEL_ROWS * (1 if k == bound else 2)
        u = np.triu(rng.integers(0, p, (r, r))).astype(field.dtype)
        u[np.arange(r), np.arange(r)] = rng.integers(1, p, r)
        for bm, host in _views(rng, p, n, r):
            before, cells = host.copy(), bm.copy()
            updates.clear()
            kern.trsm_right_upper(bm, u, OpCounts())
            assert updates == list(range(_PANEL_ROWS, r, _PANEL_ROWS)), k
            assert np.array_equal((_ints(bm) @ _ints(u)) % p, _ints(cells)), k
            bm[:] = cells
            assert np.array_equal(host, before), k


def _forward_substitution(l, b, p, unit):
    """L^-1 B mod p row by row in Python integers; L's upper triangle, and its
    diagonal when ``unit``, are ignored."""
    l, x = _ints(l), _ints(b)
    for i in range(l.shape[0]):
        x[i] = (x[i] - l[i, :i] @ x[:i]) * (1 if unit else pow(int(l[i, i]), -1, p)) % p
    return x


@pytest.mark.parametrize("p", PRIMES)
def test_solves_across_the_leaf_boundary(p):
    # The solver walks leaves of 32 rows, the last of at most 32, each
    # inverted whole in a stack with identity padding, and a block of more
    # than 16 rows as two joined halves: sizes on both sides of 16 rows and of
    # one, two and three leaves, for B as a slice of a larger matrix and as a
    # transposed view.  L and U share one packed block, so each solve and the
    # stacked pass must ignore the other triangle.  A solve given the stacks
    # of one shared pass must match one that forms its own.
    rng = np.random.default_rng(p + 14)
    field = PrimeField(p)
    kern = ClassicalKernels(field)
    for r in (1, 2, 3, 16, 17, 31, 32, 33, 63, 64, 65, 96, 97, 100):
        lu = rng.integers(0, p, (r, r)).astype(field.dtype)
        lu[np.arange(r), np.arange(r)] = rng.integers(1, p, r)
        l_invs, u_invs = kern.leaf_inverses(lu, lu)
        assert (l_invs is None) == (u_invs is None) == (r == 1)
        for n in (0, 1, 40):
            for b, host in _views(rng, p, r, n):
                before, cells = host.copy(), b.copy()
                kern.trsm_left_unit_lower(lu, b, OpCounts())
                assert np.array_equal(_ints(b), _forward_substitution(lu, cells, p, True)), (r, n)
                shared = cells.copy()
                kern.trsm_left_unit_lower(lu, shared, OpCounts(), l_invs)
                assert np.array_equal(shared, b), (r, n)
                b[:] = cells
                assert np.array_equal(host, before), (r, n)  # nothing outside B moved
            for b, host in _views(rng, p, n, r):
                before, cells = host.copy(), b.copy()
                kern.trsm_right_upper(b, lu, OpCounts())  # B U^-1 = (U^-T B^T)^T
                want = _forward_substitution(lu.T, cells.T, p, False).T
                assert np.array_equal(_ints(b), want), (r, n)
                shared = cells.copy()
                kern.trsm_right_upper(shared, lu, OpCounts(), u_invs)
                assert np.array_equal(shared, b), (r, n)
                b[:] = cells
                assert np.array_equal(host, before), (r, n)
    # A node's (l3, u2) share one pass though r3 != r2: the smaller triangle's
    # one leaf is padded to the larger's 32-row blocks and sliced back.
    for rl, ru in ((10, 40), (40, 10)):
        l = rng.integers(0, p, (rl, rl)).astype(field.dtype)
        u = np.triu(rng.integers(0, p, (ru, ru))).astype(field.dtype)
        u[np.arange(ru), np.arange(ru)] = rng.integers(1, p, ru)
        l_invs, u_invs = kern.leaf_inverses(l, u)
        for b, _ in _views(rng, p, rl, 40):
            cells = b.copy()
            kern.trsm_left_unit_lower(l, b, OpCounts(), l_invs)
            assert np.array_equal(_ints(b), _forward_substitution(l, cells, p, True)), (rl, ru)
        for b, _ in _views(rng, p, 40, ru):
            cells = b.copy()
            kern.trsm_right_upper(b, u, OpCounts(), u_invs)
            assert np.array_equal(_ints(b), _forward_substitution(u.T, cells.T, p, False).T), (rl, ru)


def test_solver_call_count_with_32_row_leaves(monkeypatch):
    # One solver call walks the 32-row leaves: leaf i > 0 takes one update
    # from the rows above it, and every leaf applies its inverse with one
    # product.  r = 512 makes 15 updates and 16 leaf products of 32 rows,
    # where halving down to single rows would make 1023 solver calls; r = 100
    # makes 3 updates and leaves of 32, 32, 32 and 4 (halving at r // 2 would
    # make four of 25).  A solve given no stack forms it in one pass.
    calls, updates, leaves, passes = [], [], [], []
    solve, sub_mul = ClassicalKernels._solve_lower, ClassicalKernels._sub_mul
    inverses, matmul_mod = ClassicalKernels.leaf_inverses, PrimeField.matmul_mod
    monkeypatch.setattr(ClassicalKernels, "_solve_lower",
                        lambda self, l, b, invs: calls.append(l.shape[0]) or solve(self, l, b, invs))
    monkeypatch.setattr(ClassicalKernels, "_sub_mul",
                        lambda self, c, a, b: updates.append(c.shape[0]) or sub_mul(self, c, a, b))
    monkeypatch.setattr(ClassicalKernels, "leaf_inverses",
                        lambda self, l=None, u=None: passes.append(1) or inverses(self, l, u))
    # the stacked pass multiplies 3-d stacks; a leaf product is the one 2-d call
    monkeypatch.setattr(PrimeField, "matmul_mod",
                        lambda self, a, b: (a.ndim == 2 and leaves.append(a.shape[0])) or matmul_mod(self, a, b))
    field = PrimeField(1009)
    kern = ClassicalKernels(field)
    for r, sizes in ((512, [32] * 16), (100, [32, 32, 32, 4])):
        u = np.triu(np.ones((r, r), field.dtype))
        for solve_once in (
            lambda: kern.trsm_left_unit_lower(u.T.copy(), np.ones((r, 3), field.dtype), OpCounts()),
            lambda: kern.trsm_right_upper(np.ones((3, r), field.dtype), u, OpCounts()),
        ):
            for log in (calls, updates, leaves, passes):
                log.clear()
            solve_once()
            assert calls == [r] and leaves == sizes, r
            assert updates == sizes[1:] and len(updates) == -(-r // _PANEL_ROWS) - 1, r
            assert len(passes) == 1, r


class ChargeRecorder:
    """Patches the four charged entry points of ``ClassicalKernels``, as the
    benchmark's tracer does.  Each call adds its own closed-form charge, in
    ``OpCounts`` field order, to ``expected``; ``eliminate_below``'s leaves out
    the ``mm_acc`` it makes, which is recorded on its own.  Every call must
    change its counts by exactly the charges recorded while it ran."""

    NAMES = ("mm_acc", "trsm_left_unit_lower", "trsm_right_upper", "eliminate_below")

    def __init__(self, monkeypatch):
        self.expected = [0, 0, 0, 0]
        self.calls = dict.fromkeys(self.NAMES, 0)
        self.shared_right = 0  # right solves given a node's stack
        for name in self.NAMES:
            run, charge = getattr(ClassicalKernels, name), getattr(self, name)
            monkeypatch.setattr(ClassicalKernels, name, lambda kern, *args, run=run, charge=charge, name=name:
                                self._record(name, run, charge, kern, *args))

    def _record(self, name, run, charge, kern, *args):
        counts = next(x for x in args if isinstance(x, OpCounts))
        start, before = list(self.expected), dataclasses.astuple(counts)
        self.expected = [e + c for e, c in zip(self.expected, charge(*args))]
        run(kern, *args)
        recorded = [e - s for e, s in zip(self.expected, start)]
        assert [x - y for x, y in zip(dataclasses.astuple(counts), before)] == recorded, name
        self.calls[name] += 1

    @staticmethod
    def mm_acc(c, a, b, counts):
        (m, k), n = a.shape, b.shape[1]
        return (m * n * k, m * n * k, 0, m * n) if k and m and n else (0, 0, 0, 0)

    @staticmethod
    def trsm_left_unit_lower(l, b, counts, invs=None):
        r, n = l.shape[0], b.shape[1]
        return (n * (r * (r - 1) // 2), n * (r * (r - 1) // 2), 0, r * n)

    def trsm_right_upper(self, b, u, counts, invs=None):
        m, r = b.shape
        self.shared_right += invs is not None and m > 0
        # r inversions per solve, also where the stack is shared or B has no rows
        return (m * (r * (r + 1) // 2), m * (r * (r - 1) // 2), r, 2 * m * r)

    @staticmethod
    def eliminate_below(block, counts):
        below = block.shape[0] - 1
        return (below, 0, 1, below) if below > 0 else (0, 0, 0, 0)


def test_reduction_charges_match_closed_forms_throughout_decomposition(monkeypatch):
    rng = np.random.default_rng(123)
    recorder = ChargeRecorder(monkeypatch)
    side = split_side(2)  # split at DEFAULT_THRESHOLD, and its halves too
    routes = [  # (decompose, sides, trials)
        (lambda a, counts: pluq(a, threshold=2, counts=counts), (1, 19), 20),
        (lambda a, counts: pluq(a, threshold=1, counts=counts), (1, 19), 10),
        (lambda a, counts: pluq(a, counts=counts), (side, side + 8), 4),
        (pluq_iterative, (1, 19), 10),
    ]
    for decompose, (lo, hi), trials in routes:
        for trial in range(trials):
            m, n = (int(x) for x in rng.integers(lo, hi + 1, 2))
            for a in (random_matrix(rng, m, n, 101), gen_rank_deficient_rect(m, n, min(m, n) // 2, 101, trial)):
                recorder.expected, counts = [0, 0, 0, 0], OpCounts()
                decompose(a, counts)
                assert OpCounts(*recorder.expected) == counts, (m, n)
    assert all(recorder.calls.values()) and recorder.shared_right > 0
