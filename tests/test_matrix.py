import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pluq import DenseMatrix, OpCounts, Permutation, PluqFactors, PrimeField, gen_rank_deficient_rect, pluq, to_leu
from pluq.matrix import _PANEL_ROWS, apply_cols, apply_rows, perm_block_diag
from conftest import is_identity, mat, random_matrix, to_matrix
from test_moduli import PRIMES


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

    assert is_identity(Permutation([0, 1, 2]))
    assert not is_identity(Permutation([0, 2, 1]))


def test_permutation_map_must_be_integral():
    # the integrality rule of PrimeField.asarray: no truncation, no text
    for bad in ([0.7, 1.2], ["1", "0"], np.array([1, 0]).astype(str), [np.nan, 0.0], [np.inf, 0.0], [1 + 0j, 0]):
        with pytest.raises(ValueError):
            Permutation(bad)
    assert Permutation(np.array([1.0, 0.0])) == Permutation(np.array([1, 0], dtype=object)) == Permutation([1, 0])


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


def test_permutation_map_must_be_1d():
    with pytest.raises(ValueError, match="1-d"):
        Permutation(np.zeros((2, 2), dtype=np.int64))


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
    assert is_identity(sigma.compose(sigma.inverse()))
    with pytest.raises(ValueError, match="size mismatch"):
        sigma.compose(Permutation.identity(2))


def test_compose_matches_matrix_product_exhaustive():
    field = PrimeField(5)
    for s in range(5):
        perms = [Permutation(np.array(p, dtype=np.int64)) for p in itertools.permutations(range(s))]
        for a in perms:
            for b in perms:
                left = to_matrix(a.compose(b), field)
                right = field.matmul_mod(to_matrix(a, field), to_matrix(b, field))
                assert np.array_equal(left, right)


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
def test_compose_matches_matrix_product_random(pa, pb):
    field = PrimeField(7)
    a, b = Permutation(np.array(pa)), Permutation(np.array(pb))
    left = to_matrix(a.compose(b), field)
    right = field.matmul_mod(to_matrix(a, field), to_matrix(b, field))
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
    explicit = field.matmul_mod(to_matrix(sigma, field), a.data)
    assert np.array_equal(by_apply.data, explicit)


def test_apply_cols_matches_explicit_product():
    rng = np.random.default_rng(12)
    field = PrimeField(7)
    a = random_matrix(rng, 5, 7, 7)
    sigma = Permutation(rng.permutation(7))
    by_apply = a.copy()
    apply_cols(by_apply.data, sigma)
    explicit = field.matmul_mod(a.data, to_matrix(sigma, field).T)
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
    """The identity, one transposition, a permutation moving a few indices, or
    a rotation or a shuffle of one span [lo, hi)."""
    sigma = np.arange(size)
    kind = draw(st.sampled_from(["identity", "transposition", "few", "rotation", "span"]))
    if kind == "transposition" and size >= 2:
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        sigma[[i, j]] = sigma[[j, i]]
    elif kind == "few" and size:
        moved = draw(st.lists(st.integers(0, size - 1), max_size=4, unique=True))
        sigma[moved] = draw(st.permutations(moved))
    elif kind in ("rotation", "span") and size:
        lo = draw(st.integers(0, size - 1))
        hi = draw(st.integers(lo + 1, size))
        if kind == "rotation":  # the base case's pivot move: [hi-1, lo, ..., hi-2]
            sigma[lo:hi] = np.r_[hi - 1, lo : hi - 1]
        else:
            sigma[lo:hi] = draw(st.permutations(range(lo, hi)))
    return Permutation(sigma)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 100), st.integers(1, 100), st.integers(1, 3), st.integers(1, 3),
       st.booleans())
def test_apply_on_strided_views_matches_gather(data, rows, cols, row_step, col_step, by_rows):
    # up to 100 x 100, so a span of more than 32 lines across more than
    # 32 * size / span others takes several gather chunks
    rng = np.random.default_rng(rows * 97 + cols)
    parent = random_matrix(rng, rows * row_step + 1, cols * col_step + 2, 1009).data
    before = parent.copy()
    view = parent[1 : 1 + rows * row_step : row_step, 2 : 2 + cols * col_step : col_step]
    old = view.copy()
    perm = data.draw(_sparse_permutations(rows if by_rows else cols))
    if by_rows:
        apply_rows(view, perm)
        expected = old[perm.sigma, :]  # Mat(sigma) @ A: row i is old row sigma(i)
    else:
        apply_cols(view, perm)
        expected = old[:, perm.sigma]  # A @ Mat(sigma)^T: column j is old column sigma(j)
    assert np.array_equal(view, expected)
    view[...] = old
    assert np.array_equal(parent, before)  # nothing outside the view moved


@pytest.mark.parametrize("by_rows", [True, False])
def test_apply_scratch_is_one_gather_panel(by_rows):
    # a full-span permutation of a 512 x 512 block: every chunk's temporary is
    # at most _PANEL_ROWS x 512 elements, plus the index arrays
    size = 512
    parent = np.zeros((size + 1, size + 1))
    block = parent[1:, 1:]
    block[...] = np.arange(size * size).reshape(size, size)
    perm = Permutation(np.random.default_rng(3).permutation(size))
    tracemalloc.start()
    baseline = tracemalloc.get_traced_memory()[0]
    (apply_rows if by_rows else apply_cols)(block, perm)
    peak = tracemalloc.get_traced_memory()[1] - baseline
    tracemalloc.stop()
    index_bytes = 3 * size * 8
    assert peak <= _PANEL_ROWS * size * 8 + index_bytes


def test_permutation_serialization_roundtrip():
    sigma = Permutation([3, 1, 0, 2])
    assert Permutation.deserialize(sigma.serialize()) == sigma
    assert Permutation.deserialize("", size=0) == Permutation.identity(0)
    assert sigma.serialize() == "3 1 0 2"


@pytest.mark.parametrize("apply", [apply_rows, apply_cols])
def test_apply_rejects_an_order_of_the_wrong_size(apply):
    # a short order would permute a prefix of the lines and leave the rest
    block = np.arange(12.0).reshape(3, 4)
    for size in (2, 5):
        with pytest.raises(ValueError, match="permutation size"):
            apply(block, Permutation.identity(size))
    assert np.array_equal(block, np.arange(12.0).reshape(3, 4))


# -- dense matrices -----------------------------------------------------------


def test_dense_matrix_must_be_2d():
    for data in (np.zeros(3), np.zeros((1, 2, 2)), 4):
        with pytest.raises(ValueError, match="2-d"):
            DenseMatrix(PrimeField(5), data)


def test_zero_dimensions_are_valid():
    field = PrimeField(5)
    a = DenseMatrix(field, np.zeros((3, 0)))
    b = DenseMatrix(field, np.zeros((0, 4)))
    prod = field.matmul_mod(a.data, b.data)
    assert prod.shape == (3, 4) and not prod.any()


def test_package_made_matrices_skip_validation(monkeypatch):
    # copy(), leading_submatrix(), reconstruct() and to_leu's three results wrap
    # canonical float64 storage the package made, with no asarray pass over it;
    # the constructor still validates outside data.
    a = gen_rank_deficient_rect(12, 10, 5, 101, seed=3)
    factors = pluq(a.copy())
    calls = []
    asarray = PrimeField.asarray
    monkeypatch.setattr(PrimeField, "asarray", lambda self, values: calls.append(1) or asarray(self, values))
    copied, lead, rebuilt = a.copy(), a.leading_submatrix(4, 3), factors.reconstruct()
    leu = to_leu(factors, a)
    assert not calls
    assert copied == a and copied.data is not a.data and rebuilt == a
    assert lead == DenseMatrix(a.field, a.data[:4, :3]) and not np.shares_memory(lead.data, a.data)
    lower, e, upper = (x.data for x in (leu.lbar, leu.e, leu.ubar))
    assert np.array_equal(a.field.matmul_mod(a.field.matmul_mod(lower, e), upper), a.data)
    with pytest.raises(ValueError):
        DenseMatrix(PrimeField(7), [[1.5]])


def test_leading_submatrix():
    a = mat([[1, 2, 3], [4, 5, 6]], 7)
    assert a.leading_submatrix(2, 3) == a
    assert a.leading_submatrix(0, 2).shape == (0, 2)
    assert a.leading_submatrix(1, 1) == mat([[1]], 7)
    with pytest.raises(ValueError):
        a.leading_submatrix(3, 1)


def _str_rows(rows):
    """The reference writer: one ``str()`` per entry."""
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _layouts(data):
    """``data`` stored in C order, in Fortran order and as a strided view."""
    m, n = data.shape
    strided = np.zeros((2 * m + 1, 3 * n + 1))[1::2, 1::3]
    strided[...] = data
    return [np.ascontiguousarray(data), np.asfortranarray(data), strided]


def test_text_roundtrip():
    rng = np.random.default_rng(5)
    shapes = [(3, 4), (1, 1), (0, 3), (3, 0), (0, 0), (2 * _PANEL_ROWS + 5, 9)]
    for p in PRIMES:
        field = PrimeField(p)
        # every digit-count edge below p, and the extremes
        edges = [0, p - 1] + [v for k in range(1, 10) for v in (10**k - 1, 10**k) if v < p]
        for m, n in shapes:
            data = rng.integers(0, p, (m, n)).astype(float)
            at_edge = rng.random((m, n)) < 0.5
            data[at_edge] = rng.choice(edges, int(at_edge.sum()))
            data.flat[: len(edges)] = edges[: data.size]
            for stored in _layouts(data):
                a = DenseMatrix(field, stored)
                text = a.to_text()
                assert text == f"{m} {n} {p}\n" + _str_rows(stored.astype(np.int64).tolist())
                assert DenseMatrix.from_text(text) == a
                assert DenseMatrix.from_text(text.replace("\n", "\r\n")) == a
    for s in (0, 1, 2, 1003):  # 1003 crosses a base-1000 digit group
        sigma = Permutation(rng.permutation(s))
        assert sigma.serialize() == _str_rows([sigma.sigma.tolist()])[:-1]
        assert Permutation.deserialize(sigma.serialize(), size=s) == sigma
    assert mat([[1, 0, 100], [7, 3, 2]], 101).to_text() == "2 3 101\n1 0 100\n7 3 2\n"
    assert mat([[67108858, 0]], 67108859).to_text() == "1 2 67108859\n67108858 0\n"


@pytest.mark.parametrize("p", [1009, 2**31 - 1])
def test_text_write_peak_is_bounded_by_output(p):
    # the writer holds its output, the pieces it joins and the temporaries of
    # one panel of _PANEL_ROWS rows, whatever the number of rows
    a = DenseMatrix(PrimeField(p), np.random.default_rng(7).integers(0, p, (512, 512)))
    tracemalloc.start()
    baseline = tracemalloc.get_traced_memory()[0]
    text = a.to_text()
    peak = tracemalloc.get_traced_memory()[1] - baseline
    tracemalloc.stop()
    assert peak <= 4 * len(text)


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
    with pytest.raises(ValueError):
        DenseMatrix.from_text("1 2 5\r0 1\r")  # a lone CR ends no line
    # int() takes these; the format is ASCII decimal only
    for token in NON_DECIMAL_TOKENS:
        with pytest.raises(ValueError):
            DenseMatrix.from_text(f"1 2 101\n{token} 0\n")
        with pytest.raises(ValueError):
            DenseMatrix.from_text(f"{token} 1 101\n0\n")


def test_text_bounds_the_width_of_an_empty_matrix():
    # no row bounds n in a 0 x n file, yet its factors hold an n-entry Q
    assert DenseMatrix.from_text(f"0 {1 << 20} 101\n").shape == (0, 1 << 20)
    for n in ((1 << 20) + 1, 2**31 - 1, 10**30):
        with pytest.raises(ValueError, match="no rows"):
            DenseMatrix.from_text(f"0 {n} 101\n")
    empty = DenseMatrix(PrimeField(101), np.zeros((0, 7)))
    assert empty.to_text() == "0 7 101\n"
    assert DenseMatrix.from_text(empty.to_text()) == empty


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


def test_check_structure_reports_each_problem():
    healthy = pluq(mat([[2, 1], [4, 3]], 5))
    assert healthy.rank == 2 and healthy.check_structure() == []

    def factors(rank, packed):
        return PluqFactors(Permutation.identity(2), Permutation.identity(2), rank, mat(packed, 5))

    assert factors(3, [[1, 0], [0, 1]]).check_structure() == ["rank 3 out of range for 2x2"]
    assert factors(2, [[1, 0], [0, 0]]).check_structure() == ["U has a zero diagonal entry"]
    assert factors(1, [[1, 0], [0, 4]]).check_structure() == [
        "trailing block below/right of the factors is not zero"]


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
