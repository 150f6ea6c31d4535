import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pluq import (
    DenseMatrix,
    OpCounts,
    Permutation,
    PrimeField,
    gen_full_rank_generic,
    gen_rank_deficient_rect,
    leading_rank_profiles,
    pluq,
    pluq_iterative,
)
from pluq import recursive
from pluq.kernels import ClassicalKernels
from pluq.oracle import LeadingProfileTable
from pluq.recursive import DEFAULT_THRESHOLD, build_s_perm, build_t_perm
from conftest import is_identity, mat, random_matrix, split_side


def test_pluq_takes_no_collaborators_but_counts_and_workspace():
    # recursive.py alone decides how a decomposition runs: pluq builds its own kernels
    assert list(inspect.signature(pluq).parameters) == ["a", "threshold", "counts", "workspace"]


def test_zero_matrix():
    a = mat([[0, 0, 0], [0, 0, 0]], 5)
    f = pluq(a)
    assert f.rank == 0
    assert is_identity(f.p_perm) and is_identity(f.q_perm)
    assert not f.packed.data.any()


def test_identity_full_rank_no_permutation():
    a = mat(np.eye(6), 7)
    f = pluq(a, threshold=1)
    assert f.rank == 6
    assert is_identity(f.p_perm) and is_identity(f.q_perm)
    assert np.array_equal(f.packed.data, np.eye(6))


def test_2x2_rank_one():
    a = mat([[0, 0], [1, 0]], 2)
    f = pluq(a, threshold=1)
    assert f.rank == 1
    assert leading_rank_profiles(f, 2, 2) == ((1,), (0,))
    assert f.reconstruct() == mat([[0, 0], [1, 0]], 2)


def test_16x16_generated_rank_8():
    a = gen_rank_deficient_rect(16, 16, 8, 1009, seed=3)
    orig = a.copy()
    f = pluq(a, threshold=4)
    assert f.reconstruct() == orig
    table = LeadingProfileTable(orig)
    assert f.rank == 8 == table.rank
    for k in range(17):
        for t in range(17):
            assert leading_rank_profiles(f, k, t) == (table.rows(k, t), table.cols(k, t))


# -- base cases ---------------------------------------------------------------
# A single row or column always goes to the iterative base case.


def test_base_case_row():
    f = pluq_iterative(mat([[0, 0, 5]], 7))
    assert f.rank == 1
    assert np.array_equal(f.packed.data, [[5, 0, 0]])
    # order-preserving rotation, not a swap: remaining columns keep their order
    assert f.q_perm == Permutation([2, 0, 1])
    assert f.reconstruct() == mat([[0, 0, 5]], 7)

    z = pluq_iterative(mat([[0, 0]], 7))
    assert z.rank == 0 and is_identity(z.q_perm)


def test_base_case_col():
    counts = OpCounts()
    f = pluq_iterative(mat([[0], [2], [4]], 5), counts)
    assert f.rank == 1
    assert np.array_equal(f.packed.data.ravel(), [2, 0, 2])  # 4 * inv(2) = 2
    assert f.p_perm == Permutation([1, 0, 2])
    assert f.reconstruct() == mat([[0], [2], [4]], 5)
    assert counts.field_inv == 1 and counts.field_mul == 1

    z = pluq_iterative(mat([[0], [0]], 5))
    assert z.rank == 0 and is_identity(z.p_perm)


def test_base_cases_match_iterative_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        for a in (random_matrix(rng, 1, n, 7), random_matrix(rng, n, 1, 7)):
            rec_counts, it_counts = OpCounts(), OpCounts()
            fr = pluq(a.copy(), threshold=1, counts=rec_counts)
            fi = pluq_iterative(a.copy(), it_counts)
            assert fr.p_perm == fi.p_perm and fr.q_perm == fi.q_perm
            assert np.array_equal(fr.packed.data, fi.packed.data)
            assert rec_counts == it_counts


# -- final block permutations -------------------------------------------------


def test_block_perms_trivial_cases():
    assert is_identity(build_s_perm(0, 0, 0, 0, 3, 7))
    assert is_identity(build_t_perm(0, 0, 0, 0, 3, 7))
    # generic full-rank square: blocks already in order
    assert is_identity(build_s_perm(4, 0, 0, 4, 4, 8))
    assert is_identity(build_t_perm(4, 0, 0, 4, 4, 8))


def test_block_perms_marker_matrix():
    # Both builders return gather orders: line x of the result is line sigma(x)
    # of the input.  Unequal block sizes make neither order its own inverse, so
    # a builder that returned the inverse order would fail here.
    r1, r2, r3, r4 = 2, 1, 1, 1
    # rows: blocks of sizes (r1+r2, k-r1-r2, r3+r4, m-k-r3-r4) = (3, 3, 2, 3)
    # must land in order (1, 3, 2, 4).
    k, m = 6, 11
    tags = np.repeat([10, 20, 30, 40], [3, 3, 2, 3])
    landed = tags[build_s_perm(r1, r2, r3, r4, k, m).sigma]
    assert landed.tolist() == [10, 10, 10, 30, 30, 20, 20, 20, 40, 40, 40]

    # columns: source blocks (r1, r3, k-r1-r3, r2, r4, rest) = (2, 1, 3, 1, 1, 3)
    # reordered to (r1, r2, r3, r4, remaining-left, remaining-right).
    k, n = 6, 11
    tags = np.repeat([1, 3, 5, 2, 4, 6], [2, 1, 3, 1, 1, 3])
    landed = tags[build_t_perm(r1, r2, r3, r4, k, n).sigma]
    assert landed.tolist() == [1, 1, 2, 3, 4, 5, 5, 5, 6, 6, 6]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=6, max_size=6), st.booleans())
def test_block_perms_are_bijections(sizes, columns):
    # every consistent (r1, r2, r3, r4, k, size) must give a permutation
    r1, r2, r3, r4, extra_k, extra = sizes
    if columns:
        k = r1 + r3 + extra_k
        perm = build_t_perm(r1, r2, r3, r4, k, k + r2 + r4 + extra)
    else:
        k = r1 + r2 + extra_k
        perm = build_s_perm(r1, r2, r3, r4, k, k + r3 + r4 + extra)
    assert np.array_equal(np.sort(perm.sigma), np.arange(perm.size))
    assert Permutation(perm.sigma) == perm


# -- whole-decomposition properties --------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from([2, 3, 101]),
    m=st.integers(0, 9),
    n=st.integers(0, 9),
    threshold=st.sampled_from([1, 2, 3, 30]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_reconstruction_rank_profiles(p, m, n, threshold, seed):
    a = random_matrix(np.random.default_rng(seed), m, n, p)
    orig = a.copy()
    f = pluq(a, threshold=threshold)
    assert f.reconstruct() == orig
    assert not f.check_structure()
    table = LeadingProfileTable(orig)
    assert f.rank == table.rank
    for k in range(m + 1):
        for t in range(n + 1):
            assert leading_rank_profiles(f, k, t) == (table.rows(k, t), table.cols(k, t))


def test_threshold_transparency():
    rng = np.random.default_rng(41)
    for _ in range(15):
        m, n = (int(x) for x in rng.integers(1, 20, 2))
        a = random_matrix(rng, m, n, 101)
        f1 = pluq(a.copy(), threshold=1)
        f30 = pluq(a.copy(), threshold=30)
        assert f1.rank == f30.rank
        assert sorted(zip(*f1.supports)) == sorted(zip(*f30.supports))


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        pluq(mat([[1]], 5), threshold=0)


def test_threshold_nan_is_rejected_and_non_integers_still_run():
    a = gen_rank_deficient_rect(8, 8, 4, 1009, 0)
    with pytest.raises(ValueError):
        pluq(a.copy(), threshold=float("nan"))
    for t, ref in ((2.5, pluq(a.copy(), threshold=2)), (float("inf"), pluq_iterative(a.copy()))):
        f = pluq(a.copy(), threshold=t)
        assert np.array_equal(f.packed.data, ref.packed.data)
        assert f.p_perm == ref.p_perm and f.q_perm == ref.q_perm


def test_determinism():
    a = random_matrix(np.random.default_rng(51), 13, 11, 101)
    runs = [pluq(a.copy(), threshold=2) for _ in range(2)]
    assert runs[0].p_perm == runs[1].p_perm
    assert runs[0].q_perm == runs[1].q_perm
    assert np.array_equal(runs[0].packed.data, runs[1].packed.data)


def test_storage_is_consumed_in_place():
    a = random_matrix(np.random.default_rng(61), 6, 6, 101)
    f = pluq(a)
    assert f.packed is a  # same object: input storage holds the packed factors


def test_row_order_is_inverted_once_at_the_api(monkeypatch):
    # The recursion and the base case carry gather orders; pluq() and
    # pluq_iterative() each turn the row order into P with one inversion.
    a = gen_rank_deficient_rect(48, 40, 20, 101, seed=5)
    calls = []
    inverse = Permutation.inverse

    def counting_inverse(self):
        calls.append(self.size)
        return inverse(self)

    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    for run in (lambda b: pluq(b, threshold=1), pluq, pluq_iterative):
        calls.clear()
        f = run(a.copy())
        assert calls == [48]
        assert f.reconstruct() == a


@pytest.mark.parametrize("shape", [(0, 5), (1, 300), (300, 200), (512, 512)])
def test_zero_input_returns_before_any_base_call(monkeypatch, shape):
    # A zero block has rank 0 and nothing to move, so the recursion returns
    # at its root without reaching the base case or any kernel.
    calls = []
    base = recursive._decompose_inplace

    def counting_base(*args, **kwargs):
        calls.append(args[0].shape)
        return base(*args, **kwargs)

    monkeypatch.setattr(recursive, "_decompose_inplace", counting_base)
    a = DenseMatrix(PrimeField(1009), np.zeros(shape))
    storage, counts = a.data, OpCounts()
    f = pluq(a, threshold=1, counts=counts)
    assert calls == []
    assert counts == OpCounts()
    assert f.packed.data is storage and not storage.any()
    assert f.rank == 0 and is_identity(f.p_perm) and is_identity(f.q_perm)


@pytest.mark.parametrize("threshold", [1, DEFAULT_THRESHOLD])
@pytest.mark.parametrize("shape", [(1, 300), (300, 200), (64, 64)])
def test_lone_bottom_right_entry_reconstructs(threshold, shape):
    # every block the recursion visits before the last one is zero
    a = DenseMatrix(PrimeField(1009), np.zeros(shape))
    a.data[-1, -1] = 7
    orig = a.copy()
    f = pluq(a, threshold=threshold)
    assert f.rank == 1
    assert f.reconstruct() == orig
    assert not f.check_structure()


def test_one_stacked_leaf_inversion_per_node(monkeypatch):
    # Every solve at a node takes the stacks of one shared pass.  On a generic
    # full-rank input each node has r2 = r3 = 0, so D and E share the pass
    # over L1 and U1: exactly one pass per node with r1 >= 2 (1 + 2 + 4 + 8
    # nodes over four levels, from 256 down to 32 rows at threshold 30), and
    # no solve forms its own.
    levels = 4
    rec, inverses = recursive._pluq_rec, ClassicalKernels.leaf_inverses
    numbers, open_calls = itertools.count(), []  # (call number, its children's ranks)
    nodes, passes = [], []

    def node(data, ctx):
        open_calls.append((next(numbers), []))
        rows, cols, r = rec(data, ctx)
        number, ranks = open_calls.pop()
        if ranks and ranks[0] >= 2:
            nodes.append(number)
        if open_calls:
            open_calls[-1][1].append(r)
        return rows, cols, r

    def counting(self, l=None, u=None):
        stacks = inverses(self, l, u)
        if any(s is not None for s in stacks):
            passes.append(open_calls[-1][0])
        return stacks

    monkeypatch.setattr(recursive, "_pluq_rec", node)
    monkeypatch.setattr(ClassicalKernels, "leaf_inverses", counting)
    side = split_side(levels)
    a = gen_full_rank_generic(side, 1009, seed=6)
    f = pluq(a.copy(), threshold=DEFAULT_THRESHOLD)
    assert f.rank == side and f.reconstruct() == a
    assert len(nodes) == 2**levels - 1
    assert sorted(passes) == sorted(nodes)


@pytest.mark.parametrize("make, threshold, deficient", [
    (lambda: gen_full_rank_generic(split_side(3), 1009, seed=6), DEFAULT_THRESHOLD, False),
    (lambda: gen_rank_deficient_rect(96, 80, 40, 1009, seed=2), 4, True),
    (lambda: gen_rank_deficient_rect(64, 64, 32, 101, seed=3), 1, True),
])
def test_node_call_shape(monkeypatch, make, threshold, deficient):
    # One call per operation on adjacent blocks: a node that splits makes 10
    # gathers (each side slab that both middle children permute takes one)
    # and 5 triangular solves (J and N share one left solve by L3).  A node
    # that does not split makes neither.
    rec = recursive._pluq_rec
    open_calls, nodes = [], []  # per node: [children's ranks, gathers, solves]

    def node(data, ctx):
        open_calls.append([[], 0, 0])
        rows, cols, r = rec(data, ctx)
        nodes.append(open_calls.pop())
        if open_calls:
            open_calls[-1][0].append(r)
        return rows, cols, r

    def counted(fn, slot):
        def wrapper(*args, **kwargs):
            open_calls[-1][slot] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(recursive, "_pluq_rec", node)
    for name in ("apply_rows", "apply_cols"):
        monkeypatch.setattr(recursive, name, counted(getattr(recursive, name), 1))
    for name in ("trsm_left_unit_lower", "trsm_right_upper"):
        monkeypatch.setattr(ClassicalKernels, name, counted(getattr(ClassicalKernels, name), 2))
    a = make()
    f = pluq(a.copy(), threshold=threshold)
    assert f.reconstruct() == a and not f.check_structure()
    split = [(gathers, solves) for ranks, gathers, solves in nodes if ranks]
    assert split and set(split) == {(10, 5)}
    assert all((gathers, solves) == (0, 0) for ranks, gathers, solves in nodes if not ranks)
    if deficient:  # some node holds a nonempty I in child 1's zero block while J and N are solved together
        assert any(ranks[1] and ranks[2] for ranks, _, _ in nodes if ranks)
