"""Output checks for every timed operation, run outside the timed interval.

The checks read the factors' raw arrays and recompute everything they compare
with this directory's own arithmetic (``inputs.mulmod``), so a defect shared
by the package's decomposition and its own helpers cannot hide itself.
"""

from __future__ import annotations

import numpy as np

from inputs import Instance, generate, mulmod
from pluq import DenseMatrix, Permutation, PluqFactors, PrimeField, pluq


def _support(factors) -> tuple[np.ndarray, np.ndarray]:
    """Pivot supports (a_t, b_t) sorted by row: a_t = P^-1(t), b_t = Q(t)."""
    r = factors.rank
    p_sigma = np.asarray(factors.p_perm.sigma)
    inv_p = np.empty_like(p_sigma)
    inv_p[p_sigma] = np.arange(p_sigma.shape[0])
    a, b = inv_p[:r], np.asarray(factors.q_perm.sigma)[:r]
    order = np.argsort(a, kind="stable")
    return a[order], b[order]


def _lm_uv(factors) -> tuple[np.ndarray, np.ndarray]:
    """Dense [L; M] (unit diagonal filled in) and [U V] from the packed layout."""
    r = factors.rank
    data = np.asarray(factors.packed.data, dtype=np.float64)
    lm = np.tril(data[:, :r], -1)
    lm[np.arange(r), np.arange(r)] = 1
    uv = data[:r, :].copy()
    uv[:, :r] = np.triu(uv[:, :r])
    return lm, uv


def factor_problems(factors, inst: Instance) -> list[str]:
    """Why ``factors`` is not a correct PLUQ of ``inst`` (empty when it is).

    Support equality with E implies that the row and column rank profiles of
    every leading block match; the reconstruction P [L;M] [U V] Q = A is exact.
    """
    problems = list(factors.check_structure())
    m, n = inst.a.shape
    if factors.packed.shape != (m, n) or factors.packed.p != inst.p:
        return problems + ["factor shape or modulus differs from the input"]
    if factors.rank != inst.rank:
        return problems + [f"rank {factors.rank}, expected {inst.rank}"]
    rows, cols = _support(factors)
    if not (np.array_equal(rows, inst.rows) and np.array_equal(cols, inst.cols)):
        problems.append("pivot support differs from E: wrong rank profiles")
    lm, uv = _lm_uv(factors)
    prod = mulmod(lm, uv, inst.p)
    q_sigma = np.asarray(factors.q_perm.sigma)
    q_inv = np.empty_like(q_sigma)
    q_inv[q_sigma] = np.arange(n)
    # Mat(P) X gathers rows X[P(i)]; X Mat(Q) gathers columns X[:, Q^-1(j)]
    if not np.array_equal(prod[np.asarray(factors.p_perm.sigma)][:, q_inv], inst.a):
        problems.append("P [L;M] [U V] Q does not reconstruct A")
    return problems


def same_factors(a, b) -> bool:
    """True when two factorizations hold identical permutations, rank and packed entries."""
    return (
        a.rank == b.rank
        and a.packed.p == b.packed.p
        and np.array_equal(a.p_perm.sigma, b.p_perm.sigma)
        and np.array_equal(a.q_perm.sigma, b.q_perm.sigma)
        and np.array_equal(a.packed.data, b.packed.data)
    )


def leu_problems(leu, inst: Instance) -> list[str]:
    """Why ``leu`` is not Lbar E Ubar = A with E the generated support."""
    p = inst.p
    lbar = np.asarray(leu.lbar.data, dtype=np.float64)
    e = np.asarray(leu.e.data, dtype=np.float64)
    ubar = np.asarray(leu.ubar.data, dtype=np.float64)
    problems = []
    if np.any(np.triu(lbar, 1)) or np.any(np.diagonal(lbar) != 1):
        problems.append("Lbar is not unit lower triangular")
    if np.any(np.tril(ubar, -1)):
        problems.append("Ubar is not upper triangular")
    expected_e = np.zeros_like(e)
    expected_e[inst.rows, inst.cols] = 1
    if not np.array_equal(e, expected_e):
        problems.append("E differs from the generated rank profile matrix")
    elif not np.array_equal(mulmod(lbar[:, inst.rows], ubar[inst.cols], p), inst.a):
        problems.append("Lbar E Ubar != A")
    return problems


def self_test(p: int) -> dict[str, float]:
    """fail_frac of the factor check on clean and on deliberately broken factors.

    The check is not vacuous only if both broken cases read 1.0: one packed
    entry flipped (an entry of M, so the layout stays valid), and one wrong
    permutation index (two entries of Q swapped, so Q stays a bijection).
    """
    inst = generate(96, 80, 40, p, seed=7)
    field = PrimeField(p)
    clean = pluq(DenseMatrix(field, inst.a.astype(field.dtype)))
    r = clean.rank
    flipped = clean.packed.copy()
    flipped.data[r, 0] = (flipped.data[r, 0] + 1) % p
    q = clean.q_perm.sigma.copy()
    q[[0, r]] = q[[r, 0]]
    cases = {
        "clean": clean,
        "flipped_entry": PluqFactors(clean.p_perm, clean.q_perm, r, flipped),
        "wrong_index": PluqFactors(clean.p_perm, Permutation(q), r, clean.packed),
    }
    return {name: float(bool(factor_problems(f, inst))) for name, f in cases.items()}
