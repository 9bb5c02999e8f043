"""Reference per-attempt round sampler for the three link protocols.

``sample_round`` draws one round's confirmed pairs attempt by attempt,
with the same variates in the same order as the round steppers in
``replink.protocol``, so a stepped round and this sampler produce
identical outcomes from identical generator seeds. The engine samples a round's
count from its closed-form law instead; the tests check both against
this sampler.
"""

from __future__ import annotations

from replink.engine import LinkModel
from replink.params import ProtocolKind
from replink.protocol import RoundOutcome


def sample_round(rng, link: LinkModel) -> RoundOutcome:
    """Sample one round of ``link``'s confirmed pairs without stepping the round.

    Draw-for-draw equivalent to the corresponding stepped round: the same
    seed yields the same outcome, and the outcome distributions match.
    """
    config, p = link.config, link.p
    if config.kind is ProtocolKind.MITM:
        pairs = tuple(
            (i, i) for i in range(1, config.memory.n_per_side + 1) if rng.random() < p
        )
        return RoundOutcome(pairs, link.round_time)
    if config.kind is ProtocolKind.SR:
        n_a, n_b = config.memory.n_sender, config.memory.n_receiver
        pairs = []
        slot = 1
        for i in range(1, n_a + 1):
            if slot > n_b:
                break  # memory full: remaining transmissions rejected, no draws
            if rng.random() < p:
                pairs.append((slot, i))
                slot += 1
        return RoundOutcome(tuple(pairs), link.round_time)
    # midpoint source: iterate every attempt of every bin, drawing pair
    # generation then each free side's latch, and match pair ids
    k = config.k_attempts
    pairs = []
    for bin_index in range(1, config.memory.n_per_side + 1):
        left_k = right_k = None
        for attempt in range(1, k + 1):
            if rng.random() < link.p_mid:
                if left_k is None and rng.random() < p:
                    left_k = attempt
                if right_k is None and rng.random() < p:
                    right_k = attempt
        if left_k is not None and left_k == right_k:
            pairs.append((bin_index, bin_index))
    return RoundOutcome(tuple(pairs), link.round_time)
