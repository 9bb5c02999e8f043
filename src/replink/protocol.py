"""One round of a link model, stepped transmission by transmission.

``step_round`` walks the round the way the link protocol's nodes do: what
a node does with each transmission (emit, latch, reject) and how it
settles its memory at the link's ``round_time`` (confirm, reset, discard).
With ``trace`` set, it appends every memory-slot transition as ``(time_ps,
node, slot, old, new, trigger)`` in the order the nodes make them, timed
in integer picoseconds from the round's start.

The tests keep a round-level reference sampler
(``tests/protocol_reference.py``) that draws the same random variates in
the same order, so a stepped round and that sampler produce identical
outcomes from identical generator seeds.
"""

from __future__ import annotations

from .params import ProtocolKind

__all__ = ["step_round", "format_trace_entry"]


def format_trace_entry(entry) -> str:
    time_ps, node, slot, old, new, trigger = entry
    return f"{time_ps},{node},{'-' if slot is None else slot},{old},{new},{trigger}"


def _log(trace: list | None, *entry):
    if trace is not None:
        trace.append(entry)


def _confirm(trace: list | None, time_ps: int, node: str, slot: int, held: str):
    _log(trace, time_ps, node, slot, held, "confirmed_entangled", "confirm")
    _log(trace, time_ps, node, slot, "confirmed_entangled", "free", "reset")


def step_round(rng, link, trace: list | None = None) -> tuple:
    """Step one round of ``link`` (an ``engine.LinkModel``) on ``rng``: its
    confirmed pairs as (slot, slot) tuples, so ``len()`` is the pair count.
    A configuration error, before any draw, if the round has zero length."""
    return _WALKERS[link.config.kind](rng, link, link.round_time.ps, trace)


def _walk_mitm(rng, link, wall: int, trace: list | None) -> tuple:
    """Step one meet-in-the-middle round at the sender, ``alice``.

    The sender emits slot i at (i - 1)·tau_clock. The analyzer's verdicts
    are drawn in emission order, and each reaches the sender one link
    delay after its emission. When the round ends, the sender confirms
    every slot whose verdict was a success and frees the rest.
    """
    n, p, _ = link.round_law
    won = [rng.random() < p for _ in range(n)]
    if trace is not None:
        clock = link.tau_clock.ps
        trace.extend(
            ((i - 1) * clock, "alice", i, "free", "photon_emitted", "emit") for i in range(1, n + 1)
        )
    pairs = []
    for i, success in enumerate(won, 1):
        if success:
            pairs.append((i, i))
            _confirm(trace, wall, "alice", i, "photon_emitted")
        else:
            _log(trace, wall, "alice", i, "photon_emitted", "free", "reset")
    return tuple(pairs)


def _walk_sr(rng, link, wall: int, trace: list | None) -> tuple:
    """Step one sender-receiver round at the receiver, ``bob``.

    Transmission i of the sender's N_A arrives at tau_link +
    (i - 1)·tau_clock. While one of its N_B memory qubits is free, the
    receiver draws a latch into the next free one. Once its memory is
    full, it rejects every further transmission without a draw. The sender
    learns each result one link delay later, so the round ends at
    2·tau_link + N_A·tau_clock, and the receiver then confirms every
    latched qubit. The sender's memory mirrors the receiver's, so only the
    receiver is stepped.
    """
    n_a, p, n_b = link.round_law
    start, clock = link.tau_link.ps, link.tau_clock.ps
    latches = []  # (receiver slot, transmission index)
    for i in range(1, n_a + 1):
        t, slot = start + (i - 1) * clock, len(latches) + 1
        if slot > n_b:
            _log(trace, t, "bob", None, "rejecting", "rejecting", "reject")
        elif rng.random() < p:
            latches.append((slot, i))
            _log(trace, t, "bob", slot, "free", "latched", "latch")
        else:
            _log(trace, t, "bob", slot, "free", "free", "latch_failed")
    for slot, _ in latches:
        _confirm(trace, wall, "bob", slot, "latched")
    return tuple(latches)


def _walk_mps(rng, link, wall: int, trace: list | None) -> tuple:
    """Step one midpoint-source round at both receivers, ``left`` and ``right``.

    Attempt a of bin b leaves the source at ((b - 1)·K + a - 1)·tau_clock
    and reaches both receivers half a link delay later. Per attempt, the
    source emits a pair with probability ``p_mid``. Then each receiver in
    turn, left first, draws a latch with probability ``p`` if its qubit
    for bin b is still free, and rejects the photon without a draw if it
    is not. One link delay after the last attempt, each receiver has the
    other's latch report. It confirms the bins where both sides latched
    the same attempt, and discards its other latches.
    """
    n_bins, k = link.round_law[0], link.k_attempts
    p_mid, p_side = link.p_mid, link.p
    start, clock = link.tau_link.ps // 2, link.tau_clock.ps
    sides = (("left", {}), ("right", {}))  # each maps a latched bin to its attempt
    for b in range(1, n_bins + 1):
        for a in range(1, k + 1):
            t = start + ((b - 1) * k + a - 1) * clock
            if not rng.random() < p_mid:
                continue
            for node, latched in sides:
                if b in latched:
                    _log(trace, t, node, b, "rejecting", "rejecting", "reject")
                elif rng.random() < p_side:
                    latched[b] = a
                    _log(trace, t, node, b, "free", "latched", "latch")
                else:
                    _log(trace, t, node, b, "free", "free", "latch_failed")
    (_, left), (_, right) = sides
    matched = {b for b, a in left.items() if right.get(b) == a}
    for node, latched in sides:
        for b in sorted(latched):
            if b in matched:
                _confirm(trace, wall, node, b, "latched")
            else:
                _log(trace, wall, node, b, "latched", "free", "discard")
    return tuple((b, b) for b in sorted(matched))


_WALKERS = {ProtocolKind.MITM: _walk_mitm, ProtocolKind.SR: _walk_sr, ProtocolKind.MPS: _walk_mps}
