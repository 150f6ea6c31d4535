import json

import numpy as np
import pytest

from pluq import DenseMatrix, PrimeField, gen_rank_deficient_rect
from pluq.cli import main
from conftest import mat


def write(path, matrix):
    path.write_text(matrix.to_text())
    return str(path)


def test_decompose_identity(tmp_path, capsys):
    src = write(tmp_path / "a.txt", DenseMatrix.identity(3, PrimeField(5)))
    out = tmp_path / "f.txt"
    assert main(["decompose", src, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "3 3 5 3"
    assert lines[1] == "0 1 2" and lines[2] == "0 1 2"


def test_decompose_zero_matrix(tmp_path):
    src = write(tmp_path / "z.txt", mat([[0, 0, 0, 0], [0, 0, 0, 0]], 7))
    out = tmp_path / "f.txt"
    assert main(["decompose", src, "--algo", "iterative", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "2 4 7 0"


def test_decompose_verify_roundtrip(tmp_path):
    fixture = gen_rank_deficient_rect(8, 8, 4, 101, seed=7)
    src = write(tmp_path / "m.txt", fixture)
    out = tmp_path / "f.txt"
    assert main(["decompose", src, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].endswith(" 4")  # rank 4
    assert main(["verify", src, str(out)]) == 0


def test_verify_detects_corruption(tmp_path):
    fixture = gen_rank_deficient_rect(6, 6, 3, 101, seed=8)
    src = write(tmp_path / "m.txt", fixture)
    out = tmp_path / "f.txt"
    main(["decompose", src, "--out", str(out)])
    lines = out.read_text().splitlines()
    packed_row = lines[4].split()
    packed_row[0] = str((int(packed_row[0]) + 1) % 101)
    lines[4] = " ".join(packed_row)
    out.write_text("\n".join(lines) + "\n")
    assert main(["verify", src, str(out)]) != 0


def test_verify_dimension_mismatch(tmp_path):
    src = write(tmp_path / "m.txt", mat([[1, 0], [0, 1]], 5))
    other = write(tmp_path / "o.txt", mat([[1]], 5))
    out = tmp_path / "f.txt"
    main(["decompose", src, "--out", str(out)])
    assert main(["verify", other, str(out)]) == 2


def test_rank_profile_full_rank(tmp_path, capsys):
    src = write(tmp_path / "a.txt", DenseMatrix.identity(4, PrimeField(5)))
    assert main(["rank-profile", src]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"rows": [0, 1, 2, 3], "cols": [0, 1, 2, 3]}
    with pytest.raises(SystemExit) as exc:  # JSON is the only output; no --json flag
        main(["rank-profile", src, "--json"])
    assert exc.value.code == 2


def test_rank_profile_leading_zero_block(tmp_path, capsys):
    src = write(tmp_path / "a.txt", gen_rank_deficient_rect(5, 5, 2, 7, seed=3))
    assert main(["rank-profile", src, "--leading", "0", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"rows": [], "cols": []}
    assert main(["rank-profile", src, "--leading", "9", "0"]) == 2


def test_rank_profile_all_leading_with_oracle(tmp_path, capsys):
    src = write(tmp_path / "a.txt", gen_rank_deficient_rect(5, 5, 3, 101, seed=4))
    assert main(["rank-profile", src, "--all-leading", "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 3
    assert len(payload["leading"]) == 36
    first = payload["leading"][0]
    assert first["k"] == 0 and first["rows"] == []


def test_count_pluq_matches_model(tmp_path, capsys):
    assert main(["count", "--algo", "pluq", "--m", "64", "--n", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["modular_reductions"] == 8064
    assert payload["predicted_reductions"] == 8064
    assert payload["delta"] == 0


def test_count_ple_single_row(tmp_path, capsys):
    assert main(["count", "--algo", "ple", "--m", "1", "--n", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["modular_reductions"] == 0
    assert payload["delta"] == 0


def test_count_rejects_non_power_of_two_generic(capsys):
    assert main(["count", "--algo", "pluq", "--m", "12", "--n", "12"]) == 2


def test_count_rejects_rectangular_generic(capsys):
    assert main(["count", "--algo", "pluq", "--m", "4", "--n", "8"]) == 2


def test_bench_header_only(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", "--m", "8", "--n", "8", "--reps", "0", "--csv", str(out)]) == 0
    assert out.read_text() == "algo,m,n,rank,threshold,rep,seconds,field_mul,reductions\n"


def test_bench_counts_deterministic_across_reps(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", "--m", "16", "--n", "16", "--rank", "8", "--reps", "3", "--csv", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3
    cells = [r.split(",") for r in rows]
    assert len({(c[7], c[8]) for c in cells}) == 1  # field_mul, reductions identical
    assert [c[5] for c in cells] == ["0", "1", "2"]


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    assert main(["decompose", str(bad)]) == 2


def test_huge_modulus_exits_promptly(tmp_path, capsys):
    # 2**61 - 1 is prime; the bound check must reject it before trial division
    src = tmp_path / "m.txt"
    src.write_text("1 1 2305843009213693951\n1\n")
    assert main(["rank-profile", str(src)]) == 2
    assert "exceeds the bound" in capsys.readouterr().err


def test_oversized_integers_exit_code(tmp_path, capsys):
    src = write(tmp_path / "m.txt", mat([[1, 0], [0, 1]], 5))
    out = tmp_path / "f.txt"
    assert main(["decompose", src, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()

    big_entry = tmp_path / "big.txt"
    big_entry.write_text(f"2 2 5\n1 0\n0 {2**63}\n")
    assert main(["verify", str(big_entry), str(out)]) == 2

    big_index = tmp_path / "g.txt"
    big_index.write_text("\n".join([lines[0], f"0 {2**63}"] + lines[2:]) + "\n")
    assert main(["verify", src, str(big_index)]) == 2
    assert "int64" in capsys.readouterr().err


def test_non_decimal_tokens_exit_code(tmp_path, capsys):
    # int() would read "+5" as 5, "1_009" as 1009 and a fullwidth digit as a digit
    for i, text in enumerate(["1 2 7\n+5 0\n", "1 1 1_009\n1\n", "1 2 7\n\uff11 0\n"]):
        src = tmp_path / f"m{i}.txt"
        src.write_text(text, encoding="utf-8")
        assert main(["decompose", str(src)]) == 2
        err = capsys.readouterr().err
        if text.isascii():  # a non-UTF-8 locale fails the last file at decoding
            assert "ASCII decimal" in err


def test_missing_file_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:  # argparse errors exit 2 on bad args
        main(["decompose"])
    assert exc.value.code == 2
    try:
        code = main(["decompose", str(tmp_path / "nope.txt")])
    except FileNotFoundError:
        pytest.fail("I/O errors must be mapped to exit codes")
    assert code == 1
