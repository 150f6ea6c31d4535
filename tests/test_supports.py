"""Support oracle: the decomposition's pivots land on E's support.

A = L E U with L, U nonsingular triangular and E a partial permutation has
rank profile matrix E, and the pivoting of the decomposition makes
``f.supports`` reveal it.  Each input, drawn or built on an adversarial
support, goes through the recursion at thresholds from 1 (quadrant recursion
to single lines) to 128 (three splits at most on the largest inputs), stored in
C order, in Fortran order or as a strided view into a larger array; every
run must reconstruct the input, keep the packed layout, return exactly the
support of E and leave the view's host untouched outside the view.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pluq import DEFAULT_THRESHOLD, DenseMatrix, PrimeField, pluq
from conftest import leu_product
from test_moduli import PRIMES, _sentinels_kept, _stored

THRESHOLDS = [1, 2, DEFAULT_THRESHOLD, 64, 128]
# A block splits while min(m, n) > threshold, so along child 1: deep: threshold
# 128 splits once; deeper: 128 splits twice, 64 three times from 260 (258 and
# 259 split twice, 258 -> 129 -> 64); deepest: 128 splits three times
# (516 -> 258 -> 129), 64 four times from 520
SIDES = {"small": (1, 24), "mid": (25, 80), "deep": (129, 133), "deeper": (258, 300), "deepest": (516, 600)}
LAYOUTS = ["c", "fortran", "strided"]


def _check_supports(values, rows, cols, p, layout):
    field = PrimeField(p)
    original = DenseMatrix(field, values)
    for threshold in THRESHOLDS:
        data, host = _stored(values, layout)
        f = pluq(DenseMatrix(field, data), threshold=threshold)
        assert sorted(zip(*f.supports)) == sorted(zip(rows, cols)), threshold
        assert f.reconstruct() == original, threshold
        assert f.check_structure() == [], threshold
        assert host is None or _sentinels_kept(host), threshold


@st.composite
def leu_shapes(draw):
    lo, hi = SIDES[draw(st.sampled_from(sorted(SIDES)))]
    m, n = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
    return m, n, draw(st.integers(0, min(m, n)))


@settings(max_examples=20, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    shape=leu_shapes(),
    layout=st.sampled_from(LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)
# every prime and every layout at least once, past the crossover
@example(p=2, shape=(131, 129, 129), layout="strided", seed=1)
@example(p=3, shape=(70, 33, 20), layout="fortran", seed=2)
@example(p=1009, shape=(130, 132, 66), layout="c", seed=3)
@example(p=1048573, shape=(40, 75, 12), layout="strided", seed=4)
@example(p=67108859, shape=(66, 66, 1), layout="fortran", seed=5)
@example(p=2**31 - 1, shape=(129, 130, 40), layout="strided", seed=6)
@example(p=2**31 - 1, shape=(290, 260, 150), layout="c", seed=7)
@example(p=1009, shape=(600, 560, 300), layout="fortran", seed=8)
def test_drawn_support_is_revealed_at_every_threshold(p, shape, layout, seed):
    m, n, r = shape
    values, rows, cols = leu_product(np.random.default_rng(seed), m, n, p, r)
    _check_supports(values, rows, cols, p, layout)


def _adversarial(m, n):
    """Named supports (rows, cols) on an m x n input, split at (m // 2, n // 2)."""
    k, t, ar = m // 2, n // 2, np.arange
    quad = min(k, t, m - k, n - t)
    side = min(m, n)
    cluster = min(6, side)
    stairs = min((m + 1) // 2, (n + 2) // 3)
    return {
        "top-left quadrant": (ar(quad)[::-1], ar(quad)),
        "top-right quadrant": (ar(quad), t + ar(quad)[::-1]),
        "bottom-left quadrant": (k + ar(quad), ar(quad)),
        "bottom-right quadrant": (k + ar(quad), t + ar(quad)[::-1]),
        "anti-diagonal": (ar(side), n - 1 - ar(side)),
        "bottom-right cluster": (m - cluster + ar(cluster), n - 1 - ar(cluster)),
        "last entry": ([m - 1], [n - 1]),
        "rank 1": ([m // 3], [2 * n // 3]),
        "rank min(m, n)": (m - 1 - ar(side), ar(side)),
        "staircase": (2 * ar(stairs), 3 * ar(stairs)),
        "split lines": (k + np.array([-1, 0, 1]), t + np.array([1, -1, 0])),
    }


ADVERSARIAL_SHAPES = [(71, 66, 2), (40, 75, 2**31 - 1), (133, 130, 1009)]  # (m, n, p)
ADVERSARIAL = [(m, n, p, name) for m, n, p in ADVERSARIAL_SHAPES for name in _adversarial(m, n)]
# the layouts in turn: 11 names per shape, so a name takes a different layout on each shape
ADVERSARIAL = [(*case, LAYOUTS[i % len(LAYOUTS)]) for i, case in enumerate(ADVERSARIAL)]


@pytest.mark.parametrize(
    "m, n, p, name, layout", ADVERSARIAL, ids=[f"{m}x{n}-{name}" for m, n, _, name, _ in ADVERSARIAL]
)
def test_adversarial_support_is_revealed_at_every_threshold(m, n, p, name, layout):
    values, rows, cols = leu_product(np.random.default_rng(m * n), m, n, p, _adversarial(m, n)[name])
    _check_supports(values, rows, cols, p, layout)
