"""Correctness gate for campaign reports.

Every report row is checked; a row that fails any check, is missing or is
unexpected counts once towards ``failed``. The checks are:

* the header is exactly the report column contract, and each distance of
  the preset has one Monte Carlo row and one analytic (``trials = 0``) row,
  labelled with the case's protocol, preset, p_mid and seed;
* every rate is finite and >= 0, and ``ci90_low <= ci90_high``;
* on single links, each Monte Carlo mean lies within a statistical bound of
  its analytic row (see :func:`mean_within_bound`);
* reports of repeated runs with the same seed are byte-identical.

The column contract and the distances are fixed here rather than read from
the program, so the gate does not follow the program when it changes them.
"""

from __future__ import annotations

import math

from workloads import DISTANCES_KM

CSV_COLUMNS = (
    "protocol", "preset", "p_mid", "link_km", "trials",
    "mean_rate_per_s", "ci90_low", "ci90_high", "seed",
)
LIGHT_SPEED_M_PER_S = 299_792_458.0

# Trial event counts are sums of independent Bernoulli or binomial draws (the
# sr cap only shrinks the spread), so their variance is at most their mean.
# Six such standard deviations plus a few events of slack make a false alarm
# improbable (< 1e-7 per row, Poisson tail) for any sampler that draws the
# same distribution through other random streams, while a sampler that is
# off by a few percent still fails on the high-rate rows.
Z_LIMIT = 6.0
EVENT_SLACK = 3.0


def mean_within_bound(mc_rate: float, analytic_rate: float, trials: int, trial_s: float) -> bool:
    """Whether the Monte Carlo mean rate is consistent with the closed form.

    ``trial_s`` is the trial duration (the simulated time is at most one
    round shorter); the total event count over all trials is compared with
    its expectation.
    """
    expected = analytic_rate * trial_s * trials
    observed = mc_rate * trial_s * trials
    return abs(observed - expected) <= Z_LIMIT * math.sqrt(expected) + EVENT_SLACK


def _number(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _row_ok(fields: list[str], case) -> bool:
    protocol, preset, p_mid, _, _, mean, low, high, seed = fields
    expected_p_mid = "" if case.p_mid is None else repr(float(case.p_mid))
    if (protocol, preset, p_mid, seed) != (case.protocol, case.preset, expected_p_mid, str(case.seed)):
        return False
    mean, low, high = _number(mean), _number(low), _number(high)
    if mean is None or low is None or high is None:
        return False
    return mean >= 0.0 and 0.0 <= low <= high


def check_report(text: str | None, case, trial_s_by_km: dict | None) -> tuple[int, int]:
    """Gate one report; returns (rows attempted, rows failed).

    ``text`` is None when the case raised or wrote nothing: every expected
    row then fails. ``trial_s_by_km`` maps each distance to the trial
    duration in seconds and turns on the statistical check.
    """
    expected = 2 * len(DISTANCES_KM)
    if text is None:
        return expected, expected
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        rows = max(expected, len(lines) - 1)
        return rows, rows

    slots: dict[tuple[float, bool], list[list[str]]] = {}
    unexpected = 0
    for line in lines[1:]:
        fields = line.split(",")
        km = _number(fields[3]) if len(fields) == len(CSV_COLUMNS) else None
        if km not in DISTANCES_KM or fields[4] not in ("0", str(case.trials)):
            unexpected += 1
            continue
        slots.setdefault((km, fields[4] != "0"), []).append(fields)

    extra = unexpected
    failed = 0
    for km in DISTANCES_KM:
        analytic = slots.get((km, False), [])
        monte_carlo = slots.get((km, True), [])
        # a second row for the same slot is an unexpected row
        extra += max(len(analytic) - 1, 0) + max(len(monte_carlo) - 1, 0)
        analytic_ok = bool(analytic) and _row_ok(analytic[0], case)
        mc_ok = bool(monte_carlo) and _row_ok(monte_carlo[0], case)
        if mc_ok and analytic_ok and trial_s_by_km is not None:
            mc_ok = mean_within_bound(
                float(monte_carlo[0][5]), float(analytic[0][5]), case.trials, trial_s_by_km[km]
            )
        failed += (not analytic_ok) + (not mc_ok)
    return expected + extra, failed + extra


def differing_rows(text: str | None, reference: str | None) -> int:
    """Rows of a repeated report that differ from the first run's report."""
    if text == reference:
        return 0
    ours = (text or "").split("\n")
    theirs = (reference or "").split("\n")
    longest = max(len(ours), len(theirs))
    ours += [None] * (longest - len(ours))
    theirs += [None] * (longest - len(theirs))
    return max(1, sum(a != b for a, b in zip(ours, theirs)))


def single_link_trial_seconds(duration_in_tau_link: int, refractive_index: float) -> dict:
    """Trial duration per distance for single-link scenarios (n*L/c delays)."""
    return {
        km: duration_in_tau_link * refractive_index * km * 1000.0 / LIGHT_SPEED_M_PER_S
        for km in DISTANCES_KM
    }
