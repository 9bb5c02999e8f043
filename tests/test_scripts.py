"""Smoke tests of the figure campaign scripts at one trial per cell."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from replink.cli import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,tables",
    [("fig8_optimistic.py", 5), ("fig9_pessimistic.py", 5), ("fig10_hardware.py", 12)],
)
def test_figure_script_writes_every_table(tmp_path, script, tables):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--trials", "1", "--outdir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    written = sorted(tmp_path.glob("*.csv"))
    assert len(written) == tables
    for path in written:
        header, *rows = path.read_text().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        # ten distances, each with a Monte Carlo row and its closed-form row
        assert len(rows) == 20


def test_workload_reports_writes_every_case_at_both_seeds(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "workload_reports.py"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    written = sorted(tmp_path.rglob("*.csv"))
    assert len(written) == 44
    for path in written:
        assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    # each report's resolved scenario
    scenarios = sorted(tmp_path.rglob("*.cfg"))
    assert [path.with_suffix(".csv") for path in scenarios] == written
    # one stepped round of each of the five chain-fig8 cases, per seed
    traces = sorted(tmp_path.rglob("*.trace"))
    assert [path.relative_to(tmp_path).parts[0] for path in traces] == ["seed3"] * 5 + ["seed4"] * 5
    assert all(path.name.startswith("fig8-optimistic_") for path in traces)
    assert all(path.with_suffix(".csv").exists() and path.stat().st_size for path in traces)
