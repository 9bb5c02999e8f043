"""One campaign in a fresh interpreter: set-up, then every cell, then reports.

Started by ``run.py`` once per sample, from the root of a checkout, so that
set-up time and peak memory belong to one workload. It imports replink from
the checkout's ``src/``, drives it only through ``cli.parse_scenario``,
``cli.run_sweep`` and ``cli.emit_report``, and writes ``result.json`` (and,
when traced, ``spans.json``) into ``--outdir``.

Speed correction: on a shared host the same code runs up to a half slower
for seconds at a time. A sample therefore runs a short fixed calibration
workload at every cell boundary (from the ``progress`` stream, outside the
timed intervals), and also reports its campaign and cell times scaled by
``CALIBRATION_NOMINAL_S`` over the calibration time measured next to them:
wall seconds at the speed at which the calibration takes its nominal time.
Set-up time is corrected the same way by ``loop_slice``. The calibration mixes the kinds of work replink does (heap,
deque and dict operations, JSON, formatting, small numpy draws), because a
plain arithmetic loop slows less than replink does in a slow phase. Raw
wall times are kept beside the corrected ones.

``--fault`` breaks the program on purpose; only the self-test uses it.
"""

import time

# Set-up is mostly imports, which slow like a plain interpreter loop does, so
# set-up time is corrected by such a loop, run before any import and after
# set-up, at this nominal time (2-vCPU x86-64 VM, Python 3.11).
LOOP_NOMINAL_S = 0.0015


def loop_slice() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i % 7
    return time.perf_counter() - start


BEFORE_SETUP = sorted(loop_slice() for _ in range(3))[1]
STARTED = time.perf_counter()  # set-up time starts in a bare interpreter

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import deque  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# The calibration's typical time on a 2-vCPU x86-64 VM with Python 3.11.
CALIBRATION_NOMINAL_S = 0.001
_DOCUMENT = {"rows": [{"k": i, "v": [i * 0.5, str(i)], "t": (i, i + 1)} for i in range(60)]}


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of work that uses no replink code."""
    start = time.perf_counter()
    heap, window, table = [], deque(), {}
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 10007, i, (i,)))
        window.append((i, i % 7))
        table[(i % 97, i % 5)] = i
        if len(window) > 6:
            window.popleft()
    while heap:
        heapq.heappop(heap)
    json.loads(json.dumps(_DOCUMENT))
    sorted(table.items(), key=lambda item: item[1])
    "".join(f"{key[0]}:{value:.3g}," for key, value in table.items())
    draws = np.random.default_rng([7, 3]).binomial(50, 0.1, size=300)
    int(np.minimum(draws, 3).sum())
    return time.perf_counter() - start


class ProgressClock:
    """A ``progress`` stream for ``run_sweep`` that notes when each line ends.

    At each line it runs a calibration slice between the two stamps it
    records, so the slice lies outside every cell.
    """

    def __init__(self):
        self.stamps = []  # (before the slice, after it, slice seconds)

    def write(self, text):
        if text.endswith("\n"):
            before = time.perf_counter()
            taken = calibration_slice()
            self.stamps.append((before, time.perf_counter(), taken))
        return len(text)

    def flush(self):
        pass


def sweep_cells(start: float, end: float, stamps: list) -> tuple[list, list]:
    """Raw cell times of one sweep and the calibration time next to each.

    A progress line ends each cell's Monte Carlo rows; its analytic row
    follows, so it is timed with the next cell, and the last cell runs to
    the end of the sweep (less the slice taken at its own line).
    """
    opened = [start] + [after for _, after, _ in stamps[:-1]]
    closed = [before for before, _, _ in stamps[:-1]] + [end - stamps[-1][2]]
    taken = [s for _, _, s in stamps]
    # Cell k lies between slices k-1 and k. One slice jitters by a fifth, a
    # slow phase lasts seconds: take the median of the five around the cell.
    nearby = [statistics.median(taken[max(0, k - 3):k + 2]) for k in range(len(taken))]
    return [b - a for a, b in zip(opened, closed)], nearby


def _apply_fault(fault, engine):
    """Break one layer the way a defect would, for the gate's self-test."""
    if fault == "conservation":
        import dataclasses

        original = engine.run_chain_trial

        def leaky(chain, duration, seed):
            stats = original(chain, duration, seed)
            return dataclasses.replace(stats, raw_pairs=(stats.raw_pairs[0] + 1,) + stats.raw_pairs[1:])

        engine.run_chain_trial = leaky
    elif fault == "sampler":
        original = engine.sample_round_counts

        def lossy(rng, link, n_rounds):
            # a sampler that loses a fifth of the pairs it should confirm
            return rng.binomial(original(rng, link, n_rounds), 0.8)

        engine.sample_round_counts = lossy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("conservation", "sampler"))
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from replink import analytic, cli, engine

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"campaign: replink imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.fault:
        _apply_fault(args.fault, engine)
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install(cli, engine, analytic)

    workload = workloads.WORKLOADS[args.workload]
    cases = workloads.cases(workload, args.seed, args.outdir, args.trials)
    errors = {}
    scenarios = {}
    with tracer.span("bench.setup") if tracer else nullcontext():
        for case in cases:
            try:
                scenario, options = cli.parse_scenario(list(case.argv))
                build = cli.build_chain_model if scenario.topology == "chain" else cli.build_link_model
                for distance in scenario.distances_km:
                    build(scenario, distance)
            except Exception as exc:  # noqa: BLE001 - a failing case is counted by the gate
                errors[case.label] = f"set-up: {exc!r}"
                continue
            scenarios[case.label] = (scenario, options)
    setup_s = time.perf_counter() - STARTED
    after_setup = sorted(loop_slice() for _ in range(3))[1]

    cells_s, cells_calibration = [], []
    calibration_s = 0.0
    begin = time.perf_counter()
    with tracer.span("bench.campaign") if tracer else nullcontext():
        for case in cases:
            if case.label not in scenarios:
                continue
            scenario, options = scenarios[case.label]
            clock = ProgressClock()
            start = time.perf_counter()
            try:
                rows = cli.run_sweep(scenario, progress=clock)
                cli.emit_report(rows, options.report_format, options.output)
            except Exception as exc:  # noqa: BLE001 - a failing case is counted by the gate
                errors[case.label] = f"campaign: {exc!r}"
            calibration_s += sum(s for _, _, s in clock.stamps)
            if case.label not in errors and clock.stamps:
                cells, nearby = sweep_cells(start, time.perf_counter(), clock.stamps)
                cells_s += cells
                cells_calibration += nearby
    campaign_s = time.perf_counter() - begin - calibration_s

    result = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "cells_s": cells_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threading.active_count(),
        "errors": errors,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
        "single_link": {
            label: [scenario.duration_in_tau_link, scenario.refractive_index]
            for label, (scenario, _) in scenarios.items()
            if scenario.topology == "single_link"
        },
    }
    if cells_s:
        speed = [CALIBRATION_NOMINAL_S / s for s in cells_calibration]
        corrected = [cell * k for cell, k in zip(cells_s, speed)]
        # time outside the cells (reports, loop overhead) at the median speed
        rest = (campaign_s - sum(cells_s)) * statistics.median(speed)
        result["corrected"] = {
            "setup_s": setup_s * 2 * LOOP_NOMINAL_S / (BEFORE_SETUP + after_setup),
            "campaign_s": sum(corrected) + rest,
            "cells_s": corrected,
        }
    if tracer:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, campaign_s)
        # the calibration slices ran inside run_sweep, between its cells
        result["layers"]["cli.run_sweep.s"] -= calibration_s
        tracer.write(os.path.join(args.outdir, "spans.json"))
    with open(os.path.join(args.outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
