#!/usr/bin/env python3
"""Campaign benchmark for replink.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-fig8 --seed 1 --seconds 20 --trace 0

A run starts the workload's campaign (see ``workloads.py``) in fresh child
interpreters, one after another, until ``--seconds`` have passed: at least
three samples untraced, or with ``--trace 1`` at least two untraced and two
traced, alternating. Every report of every sample goes through the gate in
``gate.py``; repeats share the seed, so their reports must be identical.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the samples; timings speed-corrected as ``campaign.py``
explains), with ``--trace 1`` the per-layer metrics of the traced samples.
The lines before it print the environment and every metric with its unit,
sample count and uncorrected value. Everything a run leaves (reports,
spans, ``run.json``) is under ``perfbench/out/<workload>/``;
``summary.py`` aggregates runs over seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import workloads
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("cell_s_p50", "s"),
    ("cell_s_p80", "s"),
    ("peak_rss_mb", "MB"),
    ("gate_pass_frac", "frac"),
)
# A sample takes a few seconds; this keeps a run well inside three minutes.
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPLINK_SEED", None)  # the program gets its seed from argv only
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    return env


def run_sample(workload, seed, sample_dir, traced, trials=None, fault=None) -> dict:
    """Run one campaign in a fresh interpreter and collect its result and reports."""
    shutil.rmtree(sample_dir, ignore_errors=True)
    os.makedirs(sample_dir)
    report_dir = os.path.relpath(sample_dir)
    command = [
        sys.executable, os.path.join(HERE, "campaign.py"), "--workload", workload.name,
        "--seed", str(seed), "--outdir", report_dir, "--traced", str(int(traced)),
    ]
    if trials is not None:
        command += ["--trials", str(trials)]
    if fault is not None:
        command += ["--fault", fault]
    try:
        proc = subprocess.run(
            command, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"campaign sample exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"campaign sample exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(os.path.join(sample_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = bool(traced)
    result["reports"] = {}
    for case in workloads.cases(workload, seed, report_dir, trials):
        try:
            with open(case.report, encoding="utf-8") as fh:
                result["reports"][case.label] = fh.read()
        except FileNotFoundError:
            result["reports"][case.label] = None
    return result


def gate_samples(workload, seed, samples, trials=None) -> tuple[int, int]:
    """Rows attempted and failed over every report of every sample."""
    attempted = failed = 0
    reference = samples[0]["reports"]
    for sample in samples:
        for case in workloads.cases(workload, seed, "", trials):
            text = sample["reports"][case.label]
            trial_s = None
            if workload.check_against_analytic and case.label in sample["single_link"]:
                trial_s = gate.single_link_trial_seconds(*sample["single_link"][case.label])
            rows, bad = gate.check_report(text, case, trial_s)
            bad = max(bad, gate.differing_rows(text, reference[case.label]))
            attempted += rows
            failed += min(bad, rows)
    return attempted, failed


def _percentile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timings(views) -> dict:
    """Median set-up and campaign time, and percentiles of all cell times."""
    cells = [cell for v in views for cell in v["cells_s"]]
    return {
        "setup_s": statistics.median(v["setup_s"] for v in views),
        "campaign_s": statistics.median(v["campaign_s"] for v in views),
        "cell_s_p50": _percentile(cells, 50),
        "cell_s_p80": _percentile(cells, 80),
    }


def end_to_end(samples, attempted, failed) -> tuple[dict, dict]:
    """Speed-corrected metrics of the untraced samples, and the raw timings."""
    untraced = [s for s in samples if not s["traced"]]
    if any("corrected" not in s for s in samples):
        raise BenchmarkError(f"a sample completed no cell: {[s['errors'] for s in samples]}")
    metrics = _timings([s["corrected"] for s in untraced])
    metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in untraced)
    metrics["gate_pass_frac"] = 1.0 - failed / attempted
    return metrics, _timings(untraced)


def per_layer(samples) -> dict:
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    metrics = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name, _, _ in PER_LAYER
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(s["corrected"]["campaign_s"] for s in traced)
        / statistics.median(s["corrected"]["campaign_s"] for s in untraced)
        - 1.0
    )
    return metrics


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout's own .git, if it has one (read without running git)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(samples) -> dict:
    root = os.getcwd()
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "child_threads": max(s["threads"] for s in samples),
        **samples[0]["versions"],
    }


def measure(name, seed, seconds, trace, trials=None, fault=None) -> dict:
    """One benchmark run; returns the result line's fields plus run details."""
    workload = workloads.WORKLOADS[name]
    seed %= 2**31  # replink seeds are non-negative
    out = os.path.join(HERE, "out", name)
    shutil.rmtree(out, ignore_errors=True)
    samples = []
    minimum = 4 if trace else 3
    started = time.monotonic()
    durations = []
    # Stop when the next sample would end more than half a sample past
    # --seconds, so that a run takes about --seconds.
    while len(samples) < minimum or (
        time.monotonic() - started + statistics.median(durations) / 2 < seconds
    ):
        # traced samples alternate with untraced ones so that drift hits both
        traced = bool(trace) and len(samples) % 2 == 1
        sample_dir = os.path.join(out, f"sample{len(samples)}")
        begin = time.monotonic()
        samples.append(run_sample(workload, seed, sample_dir, traced, trials, fault))
        durations.append(time.monotonic() - begin)
    attempted, failed = gate_samples(workload, seed, samples, trials)
    if trace:
        checked = sum(s["layers"]["engine.chain.conservation_checked"] for s in samples if s["traced"])
        attempted += int(checked)
        failed += int(sum(s["layers"]["engine.chain.conservation_mismatches"] for s in samples if s["traced"]))
    e2e, raw = end_to_end(samples, attempted, failed)
    run = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(samples),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "cells_per_sample": len(samples[0]["cells_s"]),
        "errors": {i: s["errors"] for i, s in enumerate(samples) if s["errors"]},
        "per_layer": per_layer(samples) if trace else None,
    }
    for sample in samples:
        sample.pop("reports")
    run["samples"] = samples
    with open(os.path.join(out, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
    return run


def print_table(run) -> None:
    env = run["environment"]
    print(f"# {run['workload']} seed {run['seed']}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    samples = sum(not s["traced"] for s in run["samples"])
    counts = {
        "cell_s_p50": f"n={samples} samples x {run['cells_per_sample']} cells",
        "gate_pass_frac": f"n={run['attempted']} rows and chain trials",
    }
    counts["cell_s_p80"] = counts["cell_s_p50"]
    for name, unit in END_TO_END:
        raw = run["end_to_end_raw"].get(name)
        raw = "" if raw is None else f"(raw wall {raw:.6g})"
        print(f"  {name:<16} {run['end_to_end'][name]:12.6g} {unit:<5} "
              f"{counts.get(name, f'n={samples} samples'):<30} {raw}")
    print(f"  {'failed_frac':<16} {run['failed_frac']:12.6g} frac  "
          f"{run['failed']} of {run['attempted']} rows and chain trials failed")
    if run["per_layer"]:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<44} {run['per_layer'][name]:14.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "replink", "cli.py")):
        print("run.py: start it from the root of a replink checkout (src/replink is missing)",
              file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print_table(run)
    metrics = run["per_layer"] if args.trace else run["end_to_end"]
    units = dict(END_TO_END) | {name: unit for name, unit, _ in PER_LAYER}
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
