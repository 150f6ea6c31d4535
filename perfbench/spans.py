"""Per-layer spans, recorded by wrapping the package's layer entry points.

``Tracer.patched()`` replaces each entry point below with a wrapper that
records (name, start, end, parent, payload) and restores the originals on
exit, so the package itself carries no tracing code and untraced runs pay
nothing.  ``pluq.recursive`` imports its collaborators by name, so those are
patched in its namespace, where the recursion looks them up.

A span's self time is its duration minus the durations of its direct
children.  Spans stay in memory until ``write`` is called at the end of the
run.
"""

from __future__ import annotations

import gzip
import inspect
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pluq import cli, leu, rank_profile, recursive
from pluq.field import PrimeField
from pluq.kernels import ClassicalKernels
from pluq.matrix import DenseMatrix, Permutation, PluqFactors


def _mm_shape(args):
    _, _, a, b, _ = args
    return a.shape[0], a.shape[1], b.shape[1]


def _matmul_shape(args):
    field, a, b = args
    return a.shape[0], a.shape[-1], b.shape[-1], field.max_accumulate


def _row_lines(args):
    a, perm = args[0], args[1]
    return perm.sigma, a.shape[1] * a.itemsize


def _col_lines(args):
    a, perm = args[0], args[1]
    return perm.sigma, a.shape[0] * a.itemsize


# (owner, attribute, span name, payload taken from the call's arguments)
ENTRY_POINTS = [
    (recursive, "pluq", "recursive.pluq", None),
    (cli, "pluq", "recursive.pluq", None),
    (recursive, "_pluq_rec", "recursive.node", None),
    (recursive, "_decompose_inplace", "iterative.base", None),
    (recursive, "apply_rows", "matrix.apply", _row_lines),
    (recursive, "apply_cols", "matrix.apply", _col_lines),
    (recursive, "perm_block_diag", "matrix.perm", None),
    (recursive, "build_s_perm", "matrix.perm", None),
    (recursive, "build_t_perm", "matrix.perm", None),
    (Permutation, "__init__", "matrix.perm_new", None),
    (Permutation, "identity", "matrix.perm", None),
    (Permutation, "inverse", "matrix.perm", None),
    (Permutation, "compose", "matrix.perm", None),
    (ClassicalKernels, "mm_acc", "kernels.mm_acc", _mm_shape),
    (ClassicalKernels, "trsm_left_unit_lower", "kernels.trsm", None),
    (ClassicalKernels, "trsm_right_upper", "kernels.trsm", None),
    (PrimeField, "matmul_mod", "field.matmul_mod", _matmul_shape),
    (DenseMatrix, "from_text", "matrix.text_parse", None),
    (PluqFactors, "from_text", "matrix.text_parse", None),
    (DenseMatrix, "to_text", "matrix.text_write", None),
    (PluqFactors, "to_text", "matrix.text_write", None),
    (rank_profile, "leading_rank_profiles", "rank_profile.query", None),
    (leu, "to_leu", "leu.convert", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.payloads: list = []
        self._stack: list[int] = []

    def span(self, name: str, fn, payload=None):
        names, starts, ends, parents, payloads, stack = (
            self.names, self.starts, self.ends, self.parents, self.payloads, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            payloads.append(payload(args) if payload is not None else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span (one benchmark operation)."""
        return self.span(name, fn)(*args, **kwargs)

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, payload in ENTRY_POINTS:
                orig = inspect.getattr_static(owner, attr)
                if isinstance(orig, classmethod):
                    new = classmethod(self.span(name, orig.__func__, payload))
                else:
                    new = self.span(name, orig, payload)
                saved.append((owner, attr, orig))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: for each kind of benchmark operation (a root
        span named ``op.*``), the median over its traced runs."""
        names = np.array(self.names)
        n_spans = len(names)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        self_s = dur - np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n_spans)
        root = np.arange(n_spans)
        depth = np.zeros(n_spans, dtype=np.int64)
        for i in np.nonzero(has_parent)[0]:
            root[i] = root[parents[i]]
            if names[i] == "recursive.node" and names[parents[i]] == "recursive.node":
                depth[i] = depth[parents[i]] + 1

        def median(op: str, weights) -> float:
            per_root = np.bincount(root, weights=weights, minlength=n_spans)
            return float(np.median(per_root[names == op]))

        def self_time(*layers):
            return self_s * np.isin(names, layers)

        def count(layer):
            return (names == layer).astype(np.float64)

        def payload_sum(layer, fn):
            w = np.zeros(n_spans)
            for i in np.nonzero(names == layer)[0]:
                w[i] = fn(self.payloads[i])
            return w

        def moved(pl):
            sigma, _ = pl
            return np.count_nonzero(sigma != np.arange(sigma.shape[0]))

        def reduced(pl):
            m, k, n, max_acc = pl
            return m * n * -(-k // max_acc)

        dec = "op.decompose"
        perm = ("matrix.perm", "matrix.perm_new")
        mm = names == "kernels.mm_acc"
        max_depth = np.zeros(n_spans)
        np.maximum.at(max_depth, root, depth)
        return {
            "recursive.self_s": median(dec, self_time("recursive.pluq", "recursive.node")),
            "recursive.nodes": median(dec, count("recursive.node")),
            "recursive.max_depth": float(np.median(max_depth[names == dec])),
            "iterative.base_s": median(dec, self_time("iterative.base")),
            "iterative.base_calls": median(dec, count("iterative.base")),
            "matrix.apply_s": median(dec, self_time("matrix.apply")),
            "matrix.apply_calls": median(dec, count("matrix.apply")),
            "matrix.lines_moved": median(dec, payload_sum("matrix.apply", moved)),
            "matrix.bytes_moved": median(dec, payload_sum("matrix.apply", lambda pl: moved(pl) * pl[1])),
            "matrix.perm_s": median(dec, self_time(*perm)),
            "matrix.perm_new": median(dec, count("matrix.perm_new")),
            "kernels.mm_acc_s": median(dec, self_time("kernels.mm_acc")),
            "kernels.mm_acc_calls": median(dec, count("kernels.mm_acc")),
            # inclusive time: the multiplications run in field.matmul_mod children
            "kernels.mm_acc_gflops": median(
                dec, payload_sum("kernels.mm_acc", lambda pl: 2e-9 * pl[0] * pl[1] * pl[2]))
            / median(dec, dur * mm),
            "kernels.trsm_s": median(dec, self_time("kernels.trsm")),
            "kernels.trsm_calls": median(dec, count("kernels.trsm")),
            "field.matmul_mod_s": median(dec, self_time("field.matmul_mod")),
            "field.matmul_mod_calls": median(dec, count("field.matmul_mod")),
            "field.reduced_elements": median(dec, payload_sum("field.matmul_mod", reduced)),
            "matrix.text_parse_s": median("op.load", self_time("matrix.text_parse")),
            "matrix.text_write_s": median("op.save", self_time("matrix.text_write")),
            # inclusive time: to_leu's own products are its integrity check
            "leu.convert_s": median("op.leu", dur * (names == "leu.convert")),
            "rank_profile.query_s": median("op.query", self_time("rank_profile.query")),
            "matrix.perm_query_s": median("op.query", self_time(*perm)),
            # the root span itself is not a wrapper inside the decomposition
            "trace.spans_per_decompose": median(dec, np.ones(n_spans)) - 1,
        }


def span_cost_s(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op against the bare
    one, the median over ``repeats`` alternating pairs of ``calls`` calls."""

    def noop():
        pass

    wrapped = Tracer().span("noop", noop)
    extra = []
    for _ in range(repeats):
        elapsed = []
        for fn in (noop, wrapped):
            start = perf_counter()
            for _ in range(calls):
                fn()
            elapsed.append(perf_counter() - start)
        extra.append((elapsed[1] - elapsed[0]) / calls)
    return float(np.median(extra))
