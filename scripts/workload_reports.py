#!/usr/bin/env python3
"""Write the benchmark workloads' reports, to compare two versions byte for byte.

    PYTHONPATH=src python scripts/workload_reports.py OUTDIR

Runs ``cli.main`` in process with the argv of every case of the three
workloads in ``perfbench/workloads.py`` (22 preset x variant campaigns),
at seeds 3 and 4, with closed-form overlay rows, two trials per chain cell
(so that a cell's later trials are compared too) and five per single-link
cell: 44 CSV files under ``OUTDIR/seed<S>/``.
Next to each report it writes the case's resolved scenario as
``<label>.cfg`` (the ``--dump-config`` text), so the comparison also
covers every preset value. For the five chain-fig8 and the twelve
link-fig10 cases it also writes the ``--trace`` of one stepped protocol
round as ``<label>.trace`` (34 traces), so it covers the round steppers
too, on the ion, NV and quantum-dot presets with their large K. fig9 is
not traced: the round of its mps p_mid 0.02 case exceeds the trace bound.
A REPLINK_SEED in the environment is ignored, so each directory holds its
own seed's reports. Run it on two checkouts and ``diff -r`` the two
directories.
"""

import os
import sys
from pathlib import Path

from replink import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (3, 4)
TRIALS = {"chain-fig8": 2, "chain-fig9": 2, "link-fig10": 5}
TRACED = ("chain-fig8", "link-fig10")


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print("usage: workload_reports.py OUTDIR", file=sys.stderr)
        return 2
    os.environ.pop("REPLINK_SEED", None)  # the reports take their seeds from SEEDS only
    written = 0
    for seed in SEEDS:
        outdir = Path(args[0]) / f"seed{seed}"
        outdir.mkdir(parents=True, exist_ok=True)
        for name, trials in TRIALS.items():
            for case in workloads.cases(workloads.WORKLOADS[name], seed, str(outdir), trials):
                scenario, _ = cli.parse_scenario(list(case.argv))
                (outdir / f"{case.label}.cfg").write_text(cli.dump_config(scenario))
                argv = list(case.argv)
                if name in TRACED:
                    argv += ["--trace", str(outdir / f"{case.label}.trace")]
                code = cli.main(argv)
                if code != 0:
                    return code
                written += 1
    traced = " and ".join(TRACED)
    print(f"wrote {written} reports, their scenarios and the {traced} traces to {args[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
