"""The benchmark's workloads: three figure campaigns run as closed loops.

A workload is one caller running the cells of a figure campaign one after
another. A cell is one (protocol variant, distance) row of a report. Each
workload keeps every distance of its preset and the closed-form overlay rows
(``--analytic``), exactly as the figure scripts in ``scripts/`` do; the
benchmark only fixes the number of trials per cell so that one campaign
takes a few seconds on a 2-CPU machine.
"""

from __future__ import annotations

from dataclasses import dataclass

# The variants of scripts/fig8_optimistic.py and scripts/fig9_pessimistic.py,
# and of scripts/fig10_hardware.py.
CHAIN_VARIANTS = (("mitm", None), ("sr", None), ("mps", 1.0), ("mps", 0.1), ("mps", 0.02))
LINK_VARIANTS = (("mitm", None), ("mps", 1.0), ("mps", 0.5), ("mps", 0.02))

# Every figure preset sweeps 5..50 km in 5 km steps. The gate expects one
# Monte Carlo and one analytic row for each of these distances.
DISTANCES_KM = tuple(float(d) for d in range(5, 55, 5))


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    variants: tuple[tuple[str, float | None], ...]
    trials: int
    # Single-link Monte Carlo means have a closed-form expectation, so the
    # gate can check them statistically; chain rows have no closed form.
    check_against_analytic: bool


WORKLOADS = {
    w.name: w
    for w in (
        # High transmission: ~1e5 raw pairs and ~1e4 purification groups per
        # trial, so the chain pipeline's purification and buffering dominate.
        Workload("chain-fig8", ("fig8-optimistic",), CHAIN_VARIANTS, 2, False),
        # Low transmission: few pairs arrive and most expire, so the time goes
        # to the event loop, and the mps overlay rows reach K ~ 5e4 terms.
        Workload("chain-fig9", ("fig9-pessimistic",), CHAIN_VARIANTS, 4, False),
        # Single links never enter the chain pipeline: the round sampler and
        # the analytic oracles carry the time.
        Workload("link-fig10", ("fig10-ion", "fig10-nv", "fig10-qd"), LINK_VARIANTS, 100, True),
    )
}


@dataclass(frozen=True)
class Case:
    """One campaign variant: the argv handed to ``cli.parse_scenario``."""

    label: str
    preset: str
    protocol: str
    p_mid: float | None
    trials: int
    seed: int
    report: str
    argv: tuple[str, ...]


def cases(workload: Workload, seed: int, report_dir: str, trials: int | None = None) -> list[Case]:
    """The campaign's variants in run order, with reports written to ``report_dir``."""
    trials = workload.trials if trials is None else trials
    result = []
    for preset in workload.presets:
        for protocol, p_mid in workload.variants:
            label = f"{preset}_{protocol}" + ("" if p_mid is None else f"_pmid{p_mid:g}")
            report = f"{report_dir}/{label}.csv"
            argv = [
                "--preset", preset, "--protocol", protocol,
                "--trials", str(trials), "--seed", str(seed),
                "--analytic", "--output", report,
            ]
            if p_mid is not None:
                argv += ["--p-mid", str(p_mid)]
            result.append(Case(label, preset, protocol, p_mid, trials, seed, report, tuple(argv)))
    return result
