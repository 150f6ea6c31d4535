import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pluq import DenseMatrix, OpCounts, Permutation, PluqFactors, PrimeField, pluq
from pluq.matrix import apply_cols, apply_rows, perm_block_diag
from conftest import mat, random_matrix


# int() would read these as 10, 5, 3 and 1
NON_DECIMAL_TOKENS = ["1_0", "+5", "\u0663", "\uff11"]


# -- permutations -------------------------------------------------------------


def test_identity_and_transposition_examples():
    col = mat([[1], [2], [3]], 5)
    apply_rows(col.data, Permutation([2, 1, 0]))
    assert col == mat([[3], [2], [1]], 5)

    a = random_matrix(np.random.default_rng(0), 4, 3, 7)
    b = a.copy()
    apply_rows(b.data, Permutation.identity(4))
    assert b == a

    assert Permutation([0, 1, 2]).is_identity()
    assert not Permutation([0, 2, 1]).is_identity()


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 0])
    with pytest.raises(ValueError):
        Permutation([0, 3])
    for text in ["0 0", "0 2", "1 -0", "0 +1", "0 1_0", "\uff10 1"]:
        with pytest.raises(ValueError):
            Permutation.deserialize(text)
    with pytest.raises(ValueError):
        Permutation.deserialize("1 0", size=3)


def _assert_bijection(perm):
    assert perm.sigma.dtype == np.int64 and perm.sigma.ndim == 1
    assert np.array_equal(np.sort(perm.sigma), np.arange(perm.size))
    assert Permutation(perm.sigma) == perm  # the validating constructor agrees


@settings(max_examples=60, deadline=None)
@given(st.lists(st.permutations(range(4)), min_size=1, max_size=4), st.permutations(range(4)))
def test_derived_permutations_are_bijections(blocks, pb):
    perms = [Permutation(np.array(p)) for p in blocks]
    for a in perms:
        _assert_bijection(a.inverse())
        _assert_bijection(a.compose(Permutation(np.array(pb))))
    _assert_bijection(perm_block_diag(perms))
    _assert_bijection(Permutation.identity(len(blocks)))


def test_compose_trivial():
    sigma = Permutation([2, 0, 1])
    assert sigma.compose(Permutation.identity(3)) == sigma
    assert sigma.compose(sigma.inverse()).is_identity()


def test_compose_matches_matrix_product_exhaustive():
    field = PrimeField(5)
    for s in range(5):
        perms = [Permutation(np.array(p, dtype=np.int64)) for p in itertools.permutations(range(s))]
        for a in perms:
            for b in perms:
                left = a.compose(b).to_matrix(field).data
                right = field.matmul_mod(a.to_matrix(field).data, b.to_matrix(field).data)
                assert np.array_equal(left, right)


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
def test_compose_matches_matrix_product_random(pa, pb):
    field = PrimeField(7)
    a, b = Permutation(np.array(pa)), Permutation(np.array(pb))
    left = a.compose(b).to_matrix(field).data
    right = field.matmul_mod(a.to_matrix(field).data, b.to_matrix(field).data)
    assert np.array_equal(left, right)


def test_inverse_of_transposition_is_itself():
    t = Permutation([0, 3, 2, 1, 4])
    assert t.inverse() == t


def test_block_diag_and_embed():
    swap01 = Permutation([1, 0])
    bd = perm_block_diag([Permutation.identity(2), swap01])
    a = mat([[0], [1], [2], [3]], 5)
    apply_rows(a.data, bd)
    assert a == mat([[0], [1], [3], [2]], 5)

    # identity blocks on both sides embed a permutation in a larger range
    em = perm_block_diag([Permutation.identity(3), swap01, Permutation.identity(1)])
    assert em == Permutation([0, 1, 2, 4, 3, 5])


def test_apply_rows_matches_explicit_product():
    rng = np.random.default_rng(11)
    field = PrimeField(7)
    a = random_matrix(rng, 5, 7, 7)
    sigma = Permutation(rng.permutation(5))
    by_apply = a.copy()
    apply_rows(by_apply.data, sigma)
    explicit = field.matmul_mod(sigma.to_matrix(field).data, a.data)
    assert np.array_equal(by_apply.data, explicit)


def test_apply_cols_matches_explicit_product():
    rng = np.random.default_rng(12)
    field = PrimeField(7)
    a = random_matrix(rng, 5, 7, 7)
    sigma = Permutation(rng.permutation(7))
    by_apply = a.copy()
    apply_cols(by_apply.data, sigma)
    explicit = field.matmul_mod(a.data, sigma.to_matrix(field).data.T)
    assert np.array_equal(by_apply.data, explicit)


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(4)), st.integers(0, 2**32 - 1))
def test_apply_then_inverse_restores(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, 6, 4, 101)
    row_perm, col_perm = Permutation(np.array(rows)), Permutation(np.array(cols))
    b = a.copy()
    apply_rows(b.data, row_perm)
    apply_rows(b.data, row_perm.inverse())
    assert b == a
    apply_cols(b.data, col_perm)
    apply_cols(b.data, col_perm.inverse())
    assert b == a


def test_apply_on_sub_block_views():
    a = mat([[0, 1, 2], [3, 4, 5], [6, 7, 8]], 11)
    apply_rows(a.data[1:, 1:], Permutation([1, 0]))
    assert a == mat([[0, 1, 2], [3, 7, 8], [6, 4, 5]], 11)


@st.composite
def _sparse_permutations(draw, size):
    """The identity, one transposition, or a permutation moving a few indices."""
    sigma = np.arange(size)
    kind = draw(st.sampled_from(["identity", "transposition", "few"]))
    if kind == "transposition" and size >= 2:
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        sigma[[i, j]] = sigma[[j, i]]
    elif kind == "few" and size:
        moved = draw(st.lists(st.integers(0, size - 1), max_size=4, unique=True))
        sigma[moved] = draw(st.permutations(moved))
    return Permutation(sigma)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 9), st.integers(1, 9), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.booleans())
def test_apply_on_strided_views_matches_gather(data, rows, cols, row_step, col_step, by_rows, with_buf):
    rng = np.random.default_rng(rows * 97 + cols)
    parent = random_matrix(rng, rows * row_step + 1, cols * col_step + 2, 1009).data
    before = parent.copy()
    view = parent[1 : 1 + rows * row_step : row_step, 2 : 2 + cols * col_step : col_step]
    old = view.copy()
    perm = data.draw(_sparse_permutations(rows if by_rows else cols))
    buf = np.full(max(rows, cols) + 3, -1.0) if with_buf else None
    if by_rows:
        apply_rows(view, perm, buf)
        expected = old[perm.sigma, :]  # Mat(sigma) @ A: row i is old row sigma(i)
    else:
        apply_cols(view, perm, buf)
        expected = old[:, perm.sigma]  # A @ Mat(sigma)^T: column j is old column sigma(j)
    assert np.array_equal(view, expected)
    view[...] = old
    assert np.array_equal(parent, before)  # nothing outside the view moved


def test_permutation_serialization_roundtrip():
    sigma = Permutation([3, 1, 0, 2])
    assert Permutation.deserialize(sigma.serialize()) == sigma
    assert Permutation.deserialize("", size=0) == Permutation.identity(0)
    assert sigma.serialize() == "3 1 0 2"


# -- dense matrices -----------------------------------------------------------


def test_zero_dimensions_are_valid():
    field = PrimeField(5)
    a = DenseMatrix.zeros(3, 0, field)
    b = DenseMatrix.zeros(0, 4, field)
    prod = field.matmul_mod(a.data, b.data)
    assert prod.shape == (3, 4) and not prod.any()


def test_leading_submatrix():
    a = mat([[1, 2, 3], [4, 5, 6]], 7)
    assert a.leading_submatrix(2, 3) == a
    assert a.leading_submatrix(0, 2).shape == (0, 2)
    assert a.leading_submatrix(1, 1) == mat([[1]], 7)
    with pytest.raises(ValueError):
        a.leading_submatrix(3, 1)


def test_text_roundtrip():
    rng = np.random.default_rng(5)
    for m, n in [(3, 4), (1, 1), (0, 3), (3, 0), (0, 0)]:
        a = random_matrix(rng, m, n, 101)
        assert DenseMatrix.from_text(a.to_text()) == a
    assert mat([[1, 0, 100], [7, 3, 2]], 101).to_text() == "2 3 101\n1 0 100\n7 3 2\n"
    assert mat([[67108858, 0]], 67108859).to_text() == "1 2 67108859\n67108858 0\n"


def test_text_rejects_bad_input():
    with pytest.raises(ValueError):
        DenseMatrix.from_text("")
    with pytest.raises(ValueError):
        DenseMatrix.from_text("1 2\n0 0\n")
    with pytest.raises(ValueError):
        DenseMatrix.from_text("1 2 5\n0\n")
    with pytest.raises(ValueError):
        DenseMatrix.from_text("1 2 5\n0 5\n")  # entry out of range
    with pytest.raises(ValueError):
        DenseMatrix.from_text("1 2 4\n0 1\n")  # composite modulus
    with pytest.raises(ValueError):
        DenseMatrix.from_text("2 2 5\n0 1\n")  # missing row
    with pytest.raises(ValueError):
        DenseMatrix.from_text(f"1 2 5\n0 {2**63}\n")  # beyond int64
    with pytest.raises(ValueError):
        DenseMatrix.from_text(f"1 2 5\n{-2**63 - 1} 0\n")
    with pytest.raises(ValueError):
        DenseMatrix.from_text("1 2 5\n0 1.5\n")
    # int() takes these; the format is ASCII decimal only
    for token in NON_DECIMAL_TOKENS:
        with pytest.raises(ValueError):
            DenseMatrix.from_text(f"1 2 101\n{token} 0\n")
        with pytest.raises(ValueError):
            DenseMatrix.from_text(f"{token} 1 101\n0\n")


def test_opcounts_accumulate_and_copy():
    c = OpCounts(field_mul=2, field_add=1)
    d = dataclasses.replace(c)
    d.field_mul += 1
    assert c.field_mul == 2 and d.field_mul == 3
    assert c.total_field_ops() == 3
    assert set(c.as_dict()) == {"field_mul", "field_add", "field_inv", "modular_reductions"}


def test_factor_file_roundtrip():
    rng = np.random.default_rng(9)
    a = random_matrix(rng, 5, 3, 101)
    original = a.copy()
    factors = pluq(a)
    text = factors.to_text()
    parsed = PluqFactors.from_text(text)
    assert parsed.rank == factors.rank
    assert parsed.p_perm == factors.p_perm and parsed.q_perm == factors.q_perm
    assert parsed.packed == factors.packed
    assert parsed.reconstruct() == original


def test_factor_file_rejects_inconsistencies():
    with pytest.raises(ValueError):
        PluqFactors.from_text("2 2 5 1\n0 1\n0 1\n1 1 5\n3\n")  # packed header mismatch
    with pytest.raises(ValueError):
        PluqFactors.from_text("1 1 5 2\n0\n0\n1 1 5\n3\n")  # rank out of range
    with pytest.raises(ValueError):
        PluqFactors.from_text(f"1 2 5 1\n0\n0 {2**64}\n1 2 5\n3 0\n")  # index beyond int64
    good = "1 2 5 1\n0\n0 1\n1 2 5\n3 0\n"
    assert PluqFactors.from_text(good).rank == 1
    for token in NON_DECIMAL_TOKENS:
        for bad in (
            f"1 2 5 {token}\n0\n0 1\n1 2 5\n3 0\n",  # factor header
            f"1 2 5 1\n0\n{token} 0\n1 2 5\n3 0\n",  # Q line
            f"1 2 5 1\n0\n0 1\n1 2 5\n{token} 0\n",  # packed entry
        ):
            with pytest.raises(ValueError):
                PluqFactors.from_text(bad)
    with pytest.raises(ValueError):  # a line break only str.splitlines() knows
        PluqFactors.from_text("1 2 5 1\x1c0\n0 1\n1 2 5\n3 0\n")
