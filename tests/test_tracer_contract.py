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

from pluq import gen_rank_deficient_rect, pluq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402  (perfbench is not a package)


def test_every_entry_point_exists():
    for owner, attr, _, _ in spans.ENTRY_POINTS:
        inspect.getattr_static(owner, attr)  # raises AttributeError when gone


def test_traced_run_matches_untraced_and_records_spans():
    plain = pluq(gen_rank_deficient_rect(64, 64, 32, 1009, seed=3))
    tracer = spans.Tracer()
    with tracer.patched():
        traced = pluq(gen_rank_deficient_rect(64, 64, 32, 1009, seed=3))
    assert traced.rank == plain.rank == 32
    assert traced.p_perm == plain.p_perm and traced.q_perm == plain.q_perm
    assert np.array_equal(traced.packed.data, plain.packed.data)
    assert "matrix.apply" in tracer.names
    assert "iterative.base" in tracer.names and "kernels.mm_acc" in tracer.names
