#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric by workload.

Run from the root of a checkout:

    python3 perfbench/summary.py                       # every workload, seeds 1-3
    python3 perfbench/summary.py --seeds 1-10 --workload link-fig10
    python3 perfbench/summary.py --seeds 1 --trace 1   # per-layer metrics

For each workload and metric it prints the unit, the median and quartiles
over the runs, how many runs and samples they rest on, each run's value,
and, for end-to-end metrics, the spread (q3 - q1) / median next to the
bound in BENCHMARK.json. ``failed_frac`` is the share of report rows (and, traced,
chain trials) that failed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-3", help="a seed or an inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    worst = 0.0
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in declared}
        attempted = failed = samples = 0
        cells = 0
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(os.path.join(HERE, "out", name, "run.json"), encoding="utf-8") as fh:
                run = json.load(fh)
            attempted += result["attempted"]
            failed += result["failed"]
            samples += len(run["samples"])
            cells += len(run["samples"]) * run["cells_per_sample"]
            for metric in declared:
                values[metric["name"]].append(result["metrics"][metric["name"]]["value"])
        runs = len(_seeds(args.seeds))
        print(f"{name}: {runs} runs, {samples} samples, {cells} cells, "
              f"{attempted} rows and chain trials gated, {failed} failed")
        for metric in declared:
            median, q1, q3 = _quartiles(values[metric["name"]])
            line = (f"  {metric['name']:<44} {median:12.6g} {metric['unit']:<5} "
                    f"q1 {q1:.6g} q3 {q3:.6g}  n={runs} runs")
            if "bound" in metric:
                spread = (q3 - q1) / median if median else 0.0
                line += f"  spread {spread:.4f} bound {metric['bound']}"
                if metric["name"] != "setup_s":
                    worst = max(worst, spread / metric["bound"])
            print(line)
            print("    runs: " + " ".join(f"{v:.6g}" for v in values[metric["name"]]))
        print(f"  {'failed_frac':<44} {failed / attempted:12.6g} frac  n={attempted} rows and chain trials")
    if not args.trace:
        print(f"largest spread / bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
