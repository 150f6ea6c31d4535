"""Mutated matrix and factor files must exit 0 or 2 from the CLI: never 1,
which is kept for I/O failures, and never a traceback."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from pluq import gen_rank_deficient_rect, pluq
from pluq.cli import main

MATRIX = gen_rank_deficient_rect(4, 5, 2, 101, seed=3)
MATRIX_TEXT = MATRIX.to_text()
FACTOR_TEXT = pluq(MATRIX.copy()).to_text()

_ODD_TOKENS = ["", "0", "1", "-1", "+5", "1_0", "0x1", "1.5", "nan", "１", "100", "101", "102"]
_HUGE = [2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**64, 10**30]


@st.composite
def mutated(draw, text: str) -> bytes:
    """``text`` with one to three token or line mutations, and perhaps stray bytes."""
    lines = [ln.split(" ") for ln in text.split("\n")]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        j = draw(st.integers(0, max(len(line) - 1, 0)))
        kind = draw(st.sampled_from(["drop", "duplicate", "replace", "oversize", "truncate", "cut"]))
        if kind == "drop" and line:
            del line[j]
        elif kind == "duplicate" and line:
            line.insert(j, line[j])
        elif kind == "replace" and line:
            line[j] = draw(st.sampled_from(_ODD_TOKENS) | st.integers(0, 10**6).map(str))
        elif kind == "oversize" and line:
            line[j] = str(draw(st.sampled_from(_HUGE)))
        elif kind == "truncate":
            joined = " ".join(line)
            lines[i] = joined[: draw(st.integers(0, len(joined)))].split(" ")
        elif kind == "cut":
            del lines[i:]
            lines = lines or [[]]
    data = "\n".join(" ".join(line) for line in lines).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix=mutated(MATRIX_TEXT))
@example(matrix=f"2 {10**13} 7\n1\n1\n".encode())  # row lengths are checked before allocating
@example(matrix=b"0 2147483647 101\n")  # and so is the width of a matrix with no rows
def test_mutated_matrix_file_exits_0_or_2(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        m, out = Path(tmp, "m.txt"), Path(tmp, "out.txt")
        m.write_bytes(matrix)
        assert main(["decompose", str(m), "--out", str(out)]) in (0, 2)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(factors=mutated(FACTOR_TEXT), matrix=st.just(MATRIX_TEXT.encode()) | mutated(MATRIX_TEXT))
def test_mutated_factor_file_exits_0_or_2(factors, matrix):
    with tempfile.TemporaryDirectory() as tmp:
        m, f = Path(tmp, "m.txt"), Path(tmp, "f.txt")
        m.write_bytes(matrix)
        f.write_bytes(factors)
        assert main(["verify", str(m), str(f)]) in (0, 2)
