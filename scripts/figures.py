#!/usr/bin/env python3
"""The paper's figure campaigns: one CSV per panel and protocol variant.

    PYTHONPATH=src python scripts/figures.py {fig8,fig9,fig10} [--trials N] [--seed S] [--outdir DIR]

fig8, optimistic hardware: a ten-link chain with purification, N = 100
memory qubits per interface, analyzer success 0.5, interface transmission
0.5, 1 ns clock. Full scale (1000 trials x 10 distances per variant) takes
about a minute on a 2-vCPU x86-64 machine; pass --trials 100 for a
quick look.

fig9, pessimistic hardware: the same ten-link layout, but with analyzer
success and interface transmission both at 0.10. The two-sender protocols
starve beyond roughly 25 km here (raw pairs arrive too slowly to assemble
purification groups within the memory-hold horizon), while the
midpoint-source variants keep delivering; expect zero-heavy columns. Full
scale takes about 13 s.

fig10, hardware-specific single links on trapped ion, diamond NV and
quantum dot: two nodes, one link, N = 3 memory qubits, analyzer success
0.24, no purification, trials of 10^4 link delays. Each platform panel
compares the two-sender protocol against the midpoint source with a
deterministic pair source (p_mid = 1), two single-photon sources on a
beamsplitter (p_mid = 0.5), and a parametric source (p_mid = 0.02).

Each variant's table, closed-form overlay rows included, goes to DIR
(default results/<figure>): mitm.csv, sr.csv, mps_pmid1.csv, ... for the
chains, and ion_mitm.csv, ... qd_mps_pmid0.02.csv for fig10. Every row
carries the --seed value: a REPLINK_SEED in the environment is ignored.
"""

import argparse
import os
from pathlib import Path

from replink import cli

CHAIN_VARIANTS = (("mitm", None), ("sr", None), ("mps", 1.0), ("mps", 0.1), ("mps", 0.02))
# figure: its panels as (preset, file-name prefix), and its (protocol, p_mid) variants
FIGURES = {
    "fig8": ((("fig8-optimistic", ""),), CHAIN_VARIANTS),
    "fig9": ((("fig9-pessimistic", ""),), CHAIN_VARIANTS),
    "fig10": (
        tuple((f"fig10-{platform}", f"{platform}_") for platform in ("ion", "nv", "qd")),
        (("mitm", None), ("mps", 1.0), ("mps", 0.5), ("mps", 0.02)),
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figure", choices=FIGURES)
    parser.add_argument("--outdir", help="output directory (default: results/<figure>)")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    os.environ.pop("REPLINK_SEED", None)  # the tables take their seed from --seed only
    outdir = Path(args.outdir or f"results/{args.figure}")
    outdir.mkdir(parents=True, exist_ok=True)
    panels, variants = FIGURES[args.figure]
    for preset, prefix in panels:
        for protocol, p_mid in variants:
            name = protocol if p_mid is None else f"{protocol}_pmid{p_mid:g}"
            flags = [
                "--preset", preset, "--protocol", protocol,
                "--trials", str(args.trials), "--seed", str(args.seed),
                "--analytic", "--output", str(outdir / f"{prefix}{name}.csv"),
            ]
            if p_mid is not None:
                flags += ["--p-mid", str(p_mid)]
            code = cli.main(flags)
            if code != 0:
                return code
    print(f"wrote {len(panels) * len(variants)} tables to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
