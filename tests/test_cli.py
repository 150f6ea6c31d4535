import argparse
import json
import re

import numpy as np
import pytest

from pluq import DEFAULT_THRESHOLD, LeadingProfileTable, gen_rank_deficient_rect
from pluq import cli
from pluq.cli import main
from conftest import mat
from test_api import README


def write(path, matrix):
    path.write_text(matrix.to_text())
    return str(path)


def test_decompose_identity(tmp_path, capsys):
    src = write(tmp_path / "a.txt", mat(np.eye(3), 5))
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


def test_decompose_to_stdout(tmp_path, capsys):
    fixture = gen_rank_deficient_rect(6, 5, 2, 101, seed=2)
    src = write(tmp_path / "m.txt", fixture)
    assert main(["decompose", src, "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "6 5 101 2"
    (tmp_path / "f.txt").write_text(text)
    assert main(["verify", src, str(tmp_path / "f.txt")]) == 0


def test_empty_matrix_round_trip(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("0 5 7\n")
    out = tmp_path / "f.txt"
    assert main(["decompose", str(src), "--out", str(out)]) == 0
    assert out.read_text() == "0 5 7 0\n\n0 1 2 3 4\n0 5 7\n"
    assert main(["verify", str(src), str(out)]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_wide_empty_matrix_exits_before_allocating(tmp_path, capsys):
    # 17 bytes that would otherwise ask for a 2^31-entry Q
    src = tmp_path / "m.txt"
    src.write_text("0 2147483647 101\n")
    out = tmp_path / "f.txt"
    assert main(["decompose", str(src), "--out", str(out)]) == 2
    assert "no rows" in capsys.readouterr().err
    assert not out.exists()


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
    src = write(tmp_path / "a.txt", mat(np.eye(4), 5))
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


def test_rank_profile_leading_and_all_leading_exclude_each_other(tmp_path, capsys):
    src = write(tmp_path / "a.txt", gen_rank_deficient_rect(4, 4, 2, 7, seed=5))
    with pytest.raises(SystemExit) as exc:
        main(["rank-profile", src, "--leading", "1", "1", "--all-leading"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_rank_profile_whole_matrix_with_oracle(tmp_path, capsys):
    src = write(tmp_path / "a.txt", gen_rank_deficient_rect(6, 5, 3, 101, seed=4))
    assert main(["rank-profile", src, "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"rows", "cols"}
    assert len(payload["rows"]) == len(payload["cols"]) == 3


def test_rank_profile_oracle_disagreement_exits_2(tmp_path, capsys, monkeypatch):
    src = write(tmp_path / "a.txt", gen_rank_deficient_rect(6, 5, 3, 101, seed=4))
    monkeypatch.setattr(LeadingProfileTable, "rows", lambda self, k, t: (-1,))
    assert main(["rank-profile", src, "--oracle"]) == 2
    captured = capsys.readouterr()
    assert "oracle disagreement" in captured.err and captured.out == ""


def test_count_pluq_matches_model(tmp_path, capsys):
    assert main(["count", "--algo", "pluq", "--m", "64", "--n", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["modular_reductions"] == 8064
    assert payload["predicted_reductions"] == 8064
    assert payload["delta"] == 0


def test_count_deficient_profile_has_no_prediction(capsys):
    assert main(["count", "--m", "16", "--n", "12", "--profile", "deficient", "--rank", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"] == "deficient"
    assert payload["counts"]["modular_reductions"] > 0
    assert payload["predicted_reductions"] is None and payload["delta"] is None


def test_count_ple_single_row(tmp_path, capsys):
    assert main(["count", "--algo", "ple", "--m", "1", "--n", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["modular_reductions"] == 0
    assert payload["delta"] == 0


def test_count_rejects_non_power_of_two_generic(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("decomposed a size the model rejects")

    monkeypatch.setattr(cli, "pluq", must_not_run)
    monkeypatch.setattr(cli, "ple_row_major", must_not_run)
    assert main(["count", "--algo", "pluq", "--m", "12", "--n", "12"]) == 2
    assert main(["count", "--algo", "ple", "--m", "3", "--n", "8"]) == 2


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


def test_bench_to_stdout(capsys):
    assert main(["bench", "--m", "8", "--n", "8", "--reps", "2", "--csv", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "algo,m,n,rank,threshold,rep,seconds,field_mul,reductions"
    assert [ln.split(",")[:6] for ln in lines[1:]] == [
        ["recursive", "8", "8", "4", str(DEFAULT_THRESHOLD), str(rep)] for rep in range(2)]


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


def test_modulus_below_2_31_round_trip(tmp_path, capsys):
    p = 2**31 - 1  # every product at this modulus is limb-split
    r0 = [0, p - 1, 5, p - 2, 1]
    r1 = [p - 1, 3, p - 1, 0, 7]
    rows = [r0, r1, [(x + y) % p for x, y in zip(r0, r1)], [2 * y % p for y in r1]]
    src = write(tmp_path / "m.txt", mat(rows, p))
    out = tmp_path / "f.txt"
    assert main(["decompose", src, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == f"4 5 {p} 2"
    assert main(["verify", src, str(out)]) == 0
    assert main(["rank-profile", src, "--all-leading", "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["rank"] == 2 and len(payload["leading"]) == 30
    assert payload["leading"][-1] == {"k": 4, "t": 5, "rows": [0, 1], "cols": [0, 1]}


def test_modulus_above_2_31_exit_code(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("1 1 2147483659\n1\n")  # the first prime above 2**31
    assert main(["decompose", str(src)]) == 2
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


def test_readme_cli_synopsis_names_every_option():
    block = README.read_text().split("\n## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.replace("\\\n", " ").splitlines()]
    documented = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line)) for line in lines if line.strip()}
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == defined
