"""Reference per-attempt round sampler for the three link protocols.

``sample_round`` draws one round's confirmed pairs attempt by attempt,
with the same variates in the same order as the round steppers in
``replink.protocol``, so a stepped round and this sampler produce
identical outcomes from identical generator seeds. The engine samples a round's
count from its closed-form law instead; the tests check both against
this sampler.
"""

from __future__ import annotations

from replink import analytic
from replink.params import (
    Duration, LinkProbabilities, ProtocolConfig, ProtocolKind, validate_probability,
)
from replink.protocol import RoundOutcome


def sample_round(
    rng,
    config: ProtocolConfig,
    probs: LinkProbabilities,
    tau_link: Duration,
    tau_clock: Duration,
) -> RoundOutcome:
    """Sample one round's confirmed pairs without stepping the round.

    Draw-for-draw equivalent to the corresponding stepped round: the same
    seed yields the same outcome, and the outcome distributions match.
    """
    wall = analytic.round_time(config, tau_link, tau_clock)
    if config.kind is ProtocolKind.MITM:
        p = validate_probability(probs.p, "p")
        pairs = tuple(
            (i, i) for i in range(1, config.memory.n_per_side + 1) if rng.random() < p
        )
        return RoundOutcome(len(pairs), pairs, wall)
    if config.kind is ProtocolKind.SR:
        p = validate_probability(probs.p, "p")
        n_a, n_b = config.memory.n_sender, config.memory.n_receiver
        pairs = []
        slot = 1
        for i in range(1, n_a + 1):
            if slot > n_b:
                break  # memory full: remaining transmissions rejected, no draws
            if rng.random() < p:
                pairs.append((slot, i))
                slot += 1
        return RoundOutcome(len(pairs), tuple(pairs), wall)
    # midpoint source: iterate every attempt of every bin, drawing pair
    # generation then each free side's latch, and match pair ids
    p_mid = validate_probability(probs.p_mid, "p_mid")
    p_side = validate_probability(probs.p, "p")
    k = config.k_attempts
    pairs = []
    for bin_index in range(1, config.memory.n_per_side + 1):
        left_k = right_k = None
        for attempt in range(1, k + 1):
            if rng.random() < p_mid:
                if left_k is None and rng.random() < p_side:
                    left_k = attempt
                if right_k is None and rng.random() < p_side:
                    right_k = attempt
        if left_k is not None and left_k == right_k:
            pairs.append((bin_index, bin_index))
    return RoundOutcome(len(pairs), tuple(pairs), wall)
