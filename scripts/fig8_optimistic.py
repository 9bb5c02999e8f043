#!/usr/bin/env python3
"""Optimistic-hardware chain campaign: all protocol variants, rate vs distance.

Ten-link chain with purification, N = 100 memory qubits per interface,
analyzer success 0.5, interface transmission 0.5, 1 ns clock. Writes one
CSV per protocol variant (closed-form overlay rows included) into the
output directory.

Full scale (1000 trials x 10 distances per variant) takes about 2.5
minutes on a 2-vCPU machine; pass --trials 100 for a quick look.
"""

import argparse
from pathlib import Path

from replink import cli

VARIANTS = [
    ("mitm", None),
    ("sr", None),
    ("mps", 1.0),
    ("mps", 0.1),
    ("mps", 0.02),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/fig8")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for protocol, p_mid in VARIANTS:
        name = protocol if p_mid is None else f"{protocol}_pmid{p_mid:g}"
        argv = [
            "--preset", "fig8-optimistic", "--protocol", protocol,
            "--trials", str(args.trials), "--seed", str(args.seed),
            "--analytic", "--output", str(outdir / f"{name}.csv"),
        ]
        if p_mid is not None:
            argv += ["--p-mid", str(p_mid)]
        code = cli.main(argv)
        if code != 0:
            return code
    print(f"wrote {len(VARIANTS)} tables to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
