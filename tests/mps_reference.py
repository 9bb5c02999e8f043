"""Reference midpoint-source bin law and bin utilization: the sums over
the K attempts that ``analytic`` once evaluated term by term.

``analytic.mps_entanglement`` evaluates the bin law's geometric series in
closed form; this module keeps a plain loop over the K terms as an
independent oracle. It rounds s = 1 - p_any once and raises it to every
power, so its own relative error grows to about K * 2^-53; the tests
compare the two within 1e-10 for K up to 2 * 10^5. ``bin_utilization``
is the blocked numpy sum ``analytic.mps_bin_utilization`` replaced, with
the same growth of its error in K.
"""

from __future__ import annotations

import math

import numpy as np

from replink.analytic import MpsEntanglement
from replink.params import ConfigurationError, validate_probability


def bin_terms(p_joint: float, survive: float, k: int) -> list[float]:
    """The terms p_joint * survive**j the sum keeps, in order, up to its tail stop."""
    terms = []
    running = 0.0
    for j in range(k):
        term = p_joint * survive**j
        terms.append(term)
        running += term
        # geometric tail bound; safe to stop once it cannot move the sum
        if survive < 1.0 and term * survive / (1.0 - survive) < 1e-18 * max(running, p_joint):
            break
    return terms


def mps_entanglement(p_l: float, p_m: float, k: int) -> MpsEntanglement:
    """Per-bin entanglement probability after K latch attempts.

    Each attempt generates a photon pair with probability p_m; each side
    latches its photon with probability p_l and then rejects further
    photons. A bin yields entanglement only if both sides latch the same
    attempt, so the probability is the sum over the attempt index of
    p'' * (no earlier latch on either side)^(attempts so far), with
    p'' = p_l * p_m * p_l.
    """
    validate_probability(p_l, "p_l")
    validate_probability(p_m, "p_m")
    if k < 1:
        raise ConfigurationError("at least one latch attempt per bin is required")

    p_joint = p_l * p_m * p_l
    survive = 1.0 - p_m * (p_l + p_l) + p_joint  # neither side latches this attempt
    p_latch = 1.0 - (1.0 - p_l * p_m) ** k

    if p_joint == 0.0:
        p_sum = 0.0
    else:
        p_sum = math.fsum(bin_terms(p_joint, survive, k))

    if p_l > 0.0:
        shrink = p_joint * (2.0 / p_l - 1.0)
        p_closed = (p_l / (2.0 - p_l)) * (1.0 - (1.0 - shrink) ** k)
    else:
        p_closed = 0.0

    return MpsEntanglement(
        k_attempts=k,
        p_latch=p_latch,
        p_ent_sum=p_sum,
        p_ent_closed=p_closed,
        lower_bound=0.95 * p_l / 2.0,
        upper_bound=p_l / (2.0 - p_l) if p_l > 0.0 else 0.0,
        p_side=p_l,
        p_mid=p_m,
    )


def bin_utilization(p_l: float, p_m: float, k: int) -> float:
    """In-bin active fraction (1/K) * sum_j j*y*(1-y)^j, summed in blocks of 8192 terms."""
    y = p_l * p_m
    if y == 0.0:
        return 0.0
    total = 0.0
    for start in range(1, k + 1, 8192):
        j = np.arange(start, min(start + 8192, k + 1), dtype=float)
        total += float(np.sum(j * y * (1.0 - y) ** j))
    return total / k
