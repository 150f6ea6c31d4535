"""The benchmark's tracer patches package entry points by name; keep them there.

``perfbench/spans.py`` wraps each (owner, attribute) of its ``ENTRY_POINTS``
and reads ``args[1].sigma`` from ``apply_rows``/``apply_cols`` calls.  A
rename or a change of call convention in ``src/pluq`` would otherwise break
``perfbench/run.py --trace 1`` without failing any other test.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from pluq import DEFAULT_THRESHOLD, OpCounts, TrackingWorkspace, gen_rank_deficient_rect, pluq, recursive
from conftest import split_side

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402  (perfbench is not a package)


def test_every_entry_point_exists():
    for owner, attr, _, _ in spans.ENTRY_POINTS:
        inspect.getattr_static(owner, attr)  # raises AttributeError when gone


def _input(side):
    """side x side of rank side // 2; split_side(2) is 64 at threshold 30."""
    return gen_rank_deficient_rect(side, side, side // 2, 1009, seed=3)


def test_traced_run_matches_untraced_and_records_spans():
    side = split_side(2)
    plain = pluq(_input(side))
    tracer = spans.Tracer()
    with tracer.patched():
        traced = pluq(_input(side))
    assert traced.rank == plain.rank == side // 2
    assert traced.p_perm == plain.p_perm and traced.q_perm == plain.q_perm
    assert np.array_equal(traced.packed.data, plain.packed.data)
    assert "matrix.apply" in tracer.names
    assert "iterative.base" in tracer.names and "kernels.mm_acc" in tracer.names
    assert "kernels.trsm" in tracer.names


# the threshold-1 case keeps a fixed side: its node count grows with the side squared
@pytest.mark.parametrize("threshold, side", [(1, 128), (DEFAULT_THRESHOLD, split_side(3))],
                         ids=["1", str(DEFAULT_THRESHOLD)])
def test_applied_orders_are_not_rewritten(monkeypatch, threshold, side):
    # The tracer keeps every order passed to apply_rows/apply_cols and counts
    # the lines each one moved after the run, so a node that composes its
    # orders by writing into a child's order would skew matrix.lines_moved.
    kept = []
    for name in ("apply_rows", "apply_cols"):
        def keeping(a, perm, apply=getattr(recursive, name)):
            kept.append((perm.sigma, perm.sigma.copy()))
            apply(a, perm)
        monkeypatch.setattr(recursive, name, keeping)
    pluq(_input(side), threshold=threshold)
    assert kept
    assert all(np.array_equal(order, copy) for order, copy in kept)


def test_workspace_totals_read_by_the_benchmark():
    # perfbench's model_counts runs pluq this way and records both totals;
    # the decomposition takes no buffer beside its input, so both read 0
    ws = TrackingWorkspace()
    pluq(_input(split_side(2)), counts=OpCounts(), workspace=ws)
    assert type(ws.peak_elements) is int and type(ws.max_scratch_block) is int
    assert ws.peak_elements == ws.max_scratch_block == 0
