#!/usr/bin/env python3
"""Self-test of the benchmark at tiny trial counts.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py

It runs every workload end to end, traced and untraced, and requires a
clean gate and exactly the metrics BENCHMARK.json declares. Then it shows
that the gate fires: on corrupted report rows, on a chain trial whose pair
counts do not balance, and on a sampler that loses pairs. Exits 1 on the
first check that does not hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import gate
import run
import workloads

TINY_TRIALS = {"chain-fig8": 1, "chain-fig9": 1, "link-fig10": 5}
SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL  {message}")
        raise SystemExit(1)
    print(f"ok    {message}")


def clean_runs(bench: dict) -> None:
    for name, trials in TINY_TRIALS.items():
        result = run.measure(name, SEED, 0, trace=1, trials=trials)
        check(result["correct"] and result["attempted"] > 0,
              f"{name}: {result['attempted']} rows and chain trials pass the gate")
        check(set(result["end_to_end"]) == {m["name"] for m in bench["end_to_end"]},
              f"{name}: end-to-end metrics are those of BENCHMARK.json")
        check(set(result["per_layer"]) == {m["name"] for m in bench["per_layer"]},
              f"{name}: per-layer metrics are those of BENCHMARK.json")
        check(result["environment"]["child_threads"] == 1, f"{name}: samples run no extra threads")
        if name.startswith("chain"):
            layers = result["per_layer"]
            check(layers["engine.chain.conservation_checked"] == layers["engine.run_chain_trial.calls"] > 0,
                  f"{name}: every traced chain trial is checked for conservation")


def _corrupt(lines: list[str], index: int, column: int, value: str) -> list[str]:
    fields = lines[index].split(",")
    fields[column] = value
    return lines[:index] + [",".join(fields)] + lines[index + 1:]


def corrupted_rows() -> None:
    """Each corruption of a clean report must fail exactly the rows it touched."""
    name = "link-fig10"
    result = run.measure(name, SEED, 0, trace=0, trials=TINY_TRIALS[name])
    case = next(c for c in workloads.cases(workloads.WORKLOADS[name], SEED, "", TINY_TRIALS[name])
                if c.label == "fig10-qd_mitm")
    sample = os.path.join(run.HERE, "out", name, "sample0")
    with open(os.path.join(sample, f"{case.label}.csv"), encoding="utf-8") as fh:
        clean = fh.read()
    trial_s = gate.single_link_trial_seconds(*result["samples"][0]["single_link"][case.label])
    check(gate.check_report(clean, case, trial_s) == (20, 0), "a clean report passes")

    lines = clean.rstrip("\n").split("\n")
    mc = 1  # first Monte Carlo row; its analytic row follows
    mean = float(lines[mc].split(",")[5])
    low, high = lines[mc].split(",")[6:8]
    cases = {
        "a negative rate": _corrupt(lines, mc, 5, "-1.0"),
        "a NaN interval end": _corrupt(lines, mc, 7, "nan"),
        "swapped interval ends": _corrupt(_corrupt(lines, mc, 6, high), mc, 7, low),
        "a mean 20% off its closed form": _corrupt(lines, mc, 5, repr(mean * 1.2)),
        "a wrong seed": _corrupt(lines, mc + 1, 8, str(SEED + 1)),
        "a dropped row": lines[:mc] + lines[mc + 1:],
        "a duplicated row": lines + [lines[mc]],
    }
    for what, broken in cases.items():
        _, failed = gate.check_report("\n".join(broken) + "\n", case, trial_s)
        check(failed == 1, f"the gate fails exactly one row for {what}")
    moved = "\n".join(_corrupt(lines, mc, 3, "7.5")) + "\n"
    check(gate.check_report(moved, case, trial_s) == (21, 2),
          "a row moved off the preset's distances fails, and so does its empty slot")
    header = "\n".join(["protocol,preset"] + lines[1:]) + "\n"
    check(gate.check_report(header, case, trial_s)[1] == 20, "a wrong header fails every row")
    check(gate.check_report(None, case, trial_s) == (20, 20), "a missing report fails every row")
    last_digit = clean.replace(lines[mc], _corrupt(lines, mc, 5, repr(mean * (1 + 1e-12)))[mc])
    check(gate.differing_rows(last_digit, clean) == 1, "a repeat differing in one digit fails one row")


def faults() -> None:
    name = "chain-fig9"
    result = run.measure(name, SEED, 0, trace=1, trials=1, fault="conservation")
    mismatches = result["per_layer"]["engine.chain.conservation_mismatches"]
    check(mismatches == result["per_layer"]["engine.run_chain_trial.calls"] > 0
          and result["failed"] == 2 * mismatches and not result["correct"],
          f"an unbalanced chain trial fails the run ({result['failed']} failed)")

    name = "link-fig10"
    result = run.measure(name, SEED, 0, trace=0, trials=TINY_TRIALS[name], fault="sampler")
    check(not result["correct"], f"a sampler losing a fifth of its pairs fails {result['failed']} rows")


def no_program() -> None:
    empty = os.path.join(run.HERE, "out", "no-program")
    os.makedirs(empty, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "chain-fig8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and not proc.stdout, "without src/replink the run fails and prints no result")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    clean_runs(bench)
    corrupted_rows()
    faults()
    no_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
