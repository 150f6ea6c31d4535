"""Smoke tests for the experiment scripts in scripts/, run in-process."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)
    return capsys.readouterr().out.splitlines()


def test_reduction_counts_table(monkeypatch, capsys):
    lines = run_script("reduction_counts.py", ["--max-dim", "16"], monkeypatch, capsys)
    assert lines[0].split() == ["m", "pluq", "2m^2-2m", "row-major", "model", "ratio"]
    rows = [ln.split() for ln in lines[1:]]
    assert [r[0] for r in rows] == ["2", "4", "8", "16"]
    for r in rows:
        assert r[1] == r[2]  # quadrant PLUQ at threshold 1 meets its closed form
        assert r[3] == r[4]  # row-major elimination meets its recurrence
