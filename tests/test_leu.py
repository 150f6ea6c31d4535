import numpy as np
import pytest

from pluq import (
    DenseMatrix,
    Permutation,
    PluqFactors,
    check_triangular_extension,
    gen_rank_deficient_rect,
    pluq,
    pluq_iterative,
    to_leu,
)
from conftest import mat, random_matrix


def random_unit_lower(rng, s, p, dtype):
    y = np.tril(rng.integers(0, p, (s, s)), -1).astype(dtype)
    y[np.arange(s), np.arange(s)] = 1
    return y


def random_upper(rng, s, p, dtype):
    return np.triu(rng.integers(0, p, (s, s))).astype(dtype)


def test_identity_converts_to_identities():
    a = mat(np.eye(4), 7)
    orig = a.copy()
    leu = to_leu(pluq(a), orig)
    eye = np.eye(4)
    assert np.array_equal(leu.lbar.data, eye)
    assert np.array_equal(leu.e.data, eye)
    assert np.array_equal(leu.ubar.data, eye)


def test_zero_matrix_conversion():
    a = mat([[0, 0, 0], [0, 0, 0]], 5)
    leu = to_leu(pluq(a.copy()), a)
    assert np.array_equal(leu.lbar.data, np.eye(2))
    assert not leu.e.data.any()
    assert not leu.ubar.data.any()


def test_random_8x8_rank4():
    a = gen_rank_deficient_rect(8, 8, 4, 7, seed=5)
    orig = a.copy()
    leu = to_leu(pluq(a), orig)
    assert np.array_equal(np.triu(leu.lbar.data, 1), np.zeros((8, 8)))
    assert np.array_equal(np.diagonal(leu.lbar.data), np.ones(8))
    assert np.array_equal(np.tril(leu.ubar.data, -1), np.zeros((8, 8)))
    assert int(leu.e.data.sum()) == 4
    assert leu.e.data.max() == 1
    # E's ones sit on distinct rows and distinct columns
    assert leu.e.data.sum(axis=0).max() == 1 and leu.e.data.sum(axis=1).max() == 1


def test_to_leu_validates_original():
    a = gen_rank_deficient_rect(5, 4, 2, 7, seed=6)
    f = pluq(a.copy())
    with pytest.raises(ValueError):
        to_leu(f, DenseMatrix(a.field, np.zeros((4, 5))))
    wrong = a.copy()
    wrong.data[4, 3] = (wrong.data[4, 3] + 1) % 7
    with pytest.raises(RuntimeError, match="Lbar E Ubar"):
        to_leu(f, wrong)


def test_conversion_holds_for_many_random_factorizations():
    rng = np.random.default_rng(99)
    for trial in range(200):
        m, n = (int(x) for x in rng.integers(1, 11, 2))
        r = int(rng.integers(0, min(m, n) + 1))
        a = gen_rank_deficient_rect(m, n, r, 101, int(rng.integers(0, 2**32)))
        if trial % 2:
            f = pluq(a.copy(), threshold=int(rng.choice([1, 2, 30])))
        else:
            f = pluq_iterative(a.copy())
        leu = to_leu(f, a)  # raises on any integrity violation
        assert int(leu.e.data.sum()) == f.rank


def test_triangular_extension_trivial_and_random():
    rng = np.random.default_rng(101)
    a = gen_rank_deficient_rect(6, 6, 3, 101, seed=13)
    f = pluq(a.copy())
    m, n, r = 6, 6, f.rank
    dtype = a.field.dtype
    assert check_triangular_extension(f, np.eye(m - r, dtype=dtype), np.zeros((n - r, n - r), dtype=dtype)) == (True, True)
    for _ in range(50):
        y = random_unit_lower(rng, m - r, 101, dtype)
        z = random_upper(rng, n - r, 101, dtype)
        assert check_triangular_extension(f, y, z) == (True, True)


def test_triangular_extension_dimension_checks():
    a = gen_rank_deficient_rect(5, 5, 2, 7, seed=1)
    f = pluq(a.copy())
    with pytest.raises(ValueError):
        check_triangular_extension(f, np.eye(2), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="Z must be"):
        check_triangular_extension(f, np.eye(3), np.zeros((2, 2)))


@pytest.mark.parametrize("factors, values, message", [
    # valid PLUQs over F_5 whose conjugated factors are not triangular
    (PluqFactors(Permutation([1, 0]), Permutation([0]), 1, mat([[1], [1]], 5)), [[1], [1]],
     "Lbar is not unit lower triangular"),
    (PluqFactors(Permutation([0]), Permutation([1, 0]), 1, mat([[1, 1]], 5)), [[1, 1]],
     "Ubar is not upper triangular"),
], ids=["lbar", "ubar"])
def test_to_leu_rejects_non_triangular_conjugates(factors, values, message):
    assert factors.check_structure() == []
    assert factors.reconstruct() == mat(values, 5)
    with pytest.raises(RuntimeError, match=message):
        to_leu(factors, mat(values, 5))


def _last_nonzero_pluq(a: DenseMatrix) -> PluqFactors:
    """Valid PLUQ with a deliberately non-Z-curve strategy (the pivot is the
    *last* nonzero of each reduced row), used to show the triangular-extension
    property is specific to the pivoting order."""
    p = a.p
    work = a.data.astype(np.int64) % p
    m, n = work.shape
    pivots: list[tuple[int, int]] = []   # (row, col), discovery order
    coeffs = np.zeros((m, m), dtype=np.int64)   # row i vs pivot t
    reduced = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        row = work[i].copy()
        for t, (pr, pc) in enumerate(pivots):
            c = int(row[pc]) * pow(int(reduced[pr, pc]), p - 2, p) % p
            if c:
                row = (row - c * reduced[pr]) % p
            coeffs[i, t] = c
        reduced[i] = row
        nz = np.nonzero(row)[0]
        if nz.size:
            pivots.append((i, int(nz[-1])))
    r = len(pivots)
    prows = [i for i, _ in pivots]
    pcols = [c for _, c in pivots]
    nonpivots = [i for i in range(m) if i not in set(prows)]
    sig_p = np.empty(m, dtype=np.int64)
    for slot, i in enumerate(prows + nonpivots):
        sig_p[i] = slot
    sig_q = np.array(pcols + [j for j in range(n) if j not in set(pcols)], dtype=np.int64)
    q_perm = Permutation(sig_q)
    packed = np.zeros((m, n), dtype=np.int64)
    uv = reduced[prows][:, sig_q] if r else np.zeros((0, n), dtype=np.int64)
    packed[:r] = uv
    for slot, i in enumerate(prows + nonpivots):
        packed[slot, : min(slot, r)] = coeffs[i, : min(slot, r)]
    return PluqFactors(Permutation(sig_p), q_perm, r, DenseMatrix(a.field, packed % p))


def test_non_zcurve_strategy_can_break_triangular_extension():
    # a strategy picking the *last* nonzero of each row yields a valid PLUQ
    # whose conjugated factors need not be triangular
    found_false = False
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, n = (int(x) for x in rng.integers(2, 6, 2))
        a = random_matrix(rng, m, n, 5)
        f = _last_nonzero_pluq(a)
        if f.rank in (0, min(m, n)):
            continue
        if f.reconstruct() != a or f.check_structure():
            continue
        y = np.eye(m - f.rank, dtype=a.field.dtype)
        z = np.triu(rng.integers(0, 5, (n - f.rank, n - f.rank))).astype(a.field.dtype)
        ok_l, ok_u = check_triangular_extension(f, y, z)
        if not (ok_l and ok_u):
            found_false = True
            break
    assert found_false
