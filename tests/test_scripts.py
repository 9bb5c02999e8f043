"""Smoke tests of the figure campaign script at one trial per cell, and of the
workload report script; a check that the benchmark's variant table is the
figure script's; and a traced benchmark campaign per workload."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from replink import cli
from replink.cli import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


CHAIN_TABLES = ["mitm.csv", "mps_pmid0.02.csv", "mps_pmid0.1.csv", "mps_pmid1.csv", "sr.csv"]
LINK_TABLES = [
    f"{platform}_{variant}.csv"
    for platform in ("ion", "nv", "qd")
    for variant in ("mitm", "mps_pmid0.02", "mps_pmid0.5", "mps_pmid1")
]


def run_script(*args):
    return subprocess.run(
        [sys.executable, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "figure,tables",
    [("fig8", CHAIN_TABLES), ("fig9", CHAIN_TABLES), ("fig10", LINK_TABLES)],
    ids=["fig8", "fig9", "fig10"],
)
def test_figure_script_writes_every_table(tmp_path, figure, tables):
    done = run_script(ROOT / "scripts" / "figures.py", figure, "--trials", "1", "--outdir", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"wrote {len(tables)} tables to {tmp_path}\n"
    written = sorted(tmp_path.glob("*.csv"))
    assert [path.name for path in written] == tables
    for path in written:
        header, *rows = path.read_text().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        # ten distances, each with a Monte Carlo row and its closed-form row
        assert len(rows) == 20


def test_figure_script_refuses_an_unknown_figure(tmp_path):
    done = run_script(ROOT / "scripts" / "figures.py", "fig11", "--outdir", tmp_path)
    assert done.returncode == 2
    assert "invalid choice: 'fig11'" in done.stderr
    assert not any(tmp_path.iterdir())


def test_workload_reports_writes_every_case_at_both_seeds(tmp_path):
    done = run_script(ROOT / "scripts" / "workload_reports.py", tmp_path)
    assert done.returncode == 0, done.stderr
    written = sorted(tmp_path.rglob("*.csv"))
    assert len(written) == 44
    for path in written:
        assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    # each report's resolved scenario
    scenarios = sorted(tmp_path.rglob("*.cfg"))
    assert [path.with_suffix(".csv") for path in scenarios] == written
    # one stepped round of each of the five chain-fig8 and twelve link-fig10
    # cases, per seed
    traces = sorted(tmp_path.rglob("*.trace"))
    assert [path.relative_to(tmp_path).parts[0] for path in traces] == ["seed3"] * 17 + ["seed4"] * 17
    assert sorted(path.name.split("_")[0] for path in traces) == sorted(
        ["fig8-optimistic"] * 10 + ["fig10-ion", "fig10-nv", "fig10-qd"] * 8
    )
    assert all(path.with_suffix(".csv").exists() and path.stat().st_size for path in traces)


def _load(monkeypatch, path):
    """The module at ``path``, imported without running it as a script and
    without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_loaded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_variants_are_the_figure_variants(monkeypatch):
    # perfbench/workloads.py keeps its own copy of the figure table
    workloads = _load(monkeypatch, ROOT / "perfbench" / "workloads.py")
    figures = _load(monkeypatch, ROOT / "scripts" / "figures.py").FIGURES
    assert figures["fig8"][1] == figures["fig9"][1] == workloads.CHAIN_VARIANTS
    assert figures["fig10"][1] == workloads.LINK_VARIANTS
    for workload, figure in (("chain-fig8", "fig8"), ("chain-fig9", "fig9"),
                             ("link-fig10", "fig10")):
        presets = workloads.WORKLOADS[workload].presets
        assert presets == tuple(preset for preset, _ in figures[figure][0])
        assert workloads.WORKLOADS[workload].variants == figures[figure][1]
        for preset in presets:
            assert cli._preset_bundle(preset)["distances_km"] == workloads.DISTANCES_KM


@pytest.mark.parametrize("workload", ["chain-fig8", "chain-fig9", "link-fig10"])
def test_traced_benchmark_campaign_runs_without_errors(tmp_path, workload):
    # perfbench/tracer.py wraps replink functions by name and reads model
    # fields such as link.config.memory and chain.links; a change that drops
    # one fails every cell it touches, which the campaign records as an error
    done = subprocess.run(
        [sys.executable, "-B", "perfbench/campaign.py", "--workload", workload, "--seed", "5",
         "--outdir", str(tmp_path), "--traced", "1", "--trials", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["errors"] == {}
    layers = result["layers"]
    if workload.startswith("chain"):
        checked = layers["engine.chain.conservation_checked"]
        assert checked == layers["engine.run_chain_trial.calls"] > 0
