"""One round of each link protocol, stepped transmission by transmission.

Each stepper walks one round the way the protocol's nodes do: what a node
does with each transmission (emit, latch, reject) and how it settles its
memory when the round ends (confirm, reset, discard). With ``trace`` set,
it appends every memory-slot transition as ``(time_ps, node, slot, old,
new, trigger)`` in the order the nodes make them, timed in integer
picoseconds from the round's start.

The tests keep a round-level reference sampler
(``tests/protocol_reference.py``) that draws the same random variates in
the same order, so a stepped round and that sampler produce identical
outcomes from identical generator seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import ConfigurationError, Duration, validate_probability

__all__ = [
    "RoundOutcome", "step_mitm_round", "step_sr_round", "step_mps_round", "format_trace_entry",
]


@dataclass(frozen=True)
class RoundOutcome:
    """Confirmed pairs from one protocol round."""

    slot_map: tuple[tuple[int, int], ...]
    wall_time: Duration

    @property
    def entangled_pairs(self) -> int:
        return len(self.slot_map)


def format_trace_entry(entry) -> str:
    time_ps, node, slot, old, new, trigger = entry
    return f"{time_ps},{node},{'-' if slot is None else slot},{old},{new},{trigger}"


def _log(trace: list | None, *entry):
    if trace is not None:
        trace.append(entry)


def _confirm(trace: list | None, time_ps: int, node: str, slot: int, held: str):
    _log(trace, time_ps, node, slot, held, "confirmed_entangled", "confirm")
    _log(trace, time_ps, node, slot, "confirmed_entangled", "free", "reset")


def step_mitm_round(
    rng, n: int, p: float, tau_link: Duration, tau_clock: Duration, trace: list | None = None
) -> RoundOutcome:
    """Step one meet-in-the-middle round at the sender, ``alice``.

    The sender emits slot i at (i - 1)·tau_clock. The analyzer's verdicts
    are drawn in emission order, and each reaches the sender one link
    delay after its emission. When the round ends, the sender confirms
    every slot whose verdict was a success and frees the rest.
    """
    p = validate_probability(p, "p")
    if n < 0:
        raise ConfigurationError("slot count must be non-negative")
    wall = tau_link + n * tau_clock
    won = [rng.random() < p for _ in range(n)]
    if trace is not None:
        clock = tau_clock.ps
        trace.extend(
            ((i - 1) * clock, "alice", i, "free", "photon_emitted", "emit") for i in range(1, n + 1)
        )
    pairs = []
    for i, success in enumerate(won, 1):
        if success:
            pairs.append((i, i))
            _confirm(trace, wall.ps, "alice", i, "photon_emitted")
        else:
            _log(trace, wall.ps, "alice", i, "photon_emitted", "free", "reset")
    return RoundOutcome(tuple(pairs), wall)


def step_sr_round(
    rng, n_a: int, n_b: int, p: float, tau_link: Duration, tau_clock: Duration,
    trace: list | None = None,
) -> RoundOutcome:
    """Step one sender-receiver round at the receiver, ``bob``.

    Transmission i arrives at tau_link + (i - 1)·tau_clock. While a memory
    qubit is free, the receiver draws a latch into the next free one. Once
    its memory is full, it rejects every further transmission without a
    draw. The sender learns each result one link delay later, so the round
    ends at 2·tau_link + n_a·tau_clock, and the receiver then confirms
    every latched qubit. The sender's memory mirrors the receiver's, so
    only the receiver is stepped.
    """
    p = validate_probability(p, "p")
    if n_a < 0 or n_b < 0:
        raise ConfigurationError("counts must be non-negative")
    wall = 2 * tau_link + n_a * tau_clock
    start, clock = tau_link.ps, tau_clock.ps
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
        _confirm(trace, wall.ps, "bob", slot, "latched")
    return RoundOutcome(tuple(latches), wall)


def step_mps_round(
    rng, n_bins: int, k: int, p_mid: float, p_side: float, tau_link: Duration,
    tau_clock: Duration, trace: list | None = None,
) -> RoundOutcome:
    """Step one midpoint-source round at both receivers, ``left`` and ``right``.

    Attempt a of bin b leaves the source at ((b - 1)·k + a - 1)·tau_clock
    and reaches both receivers half a link delay later. Per attempt, the
    source emits a pair with probability ``p_mid``. Then each receiver in
    turn, left first, draws a latch with probability ``p_side`` if its
    qubit for bin b is still free, and rejects the photon without a draw
    if it is not. One link delay after the last attempt, each receiver has
    the other's latch report. It confirms the bins where both sides
    latched the same attempt, and discards its other latches.
    """
    p_mid = validate_probability(p_mid, "p_mid")
    p_side = validate_probability(p_side, "p_side")
    if n_bins < 0 or k < 1:
        raise ConfigurationError("need n_bins >= 0 and k_attempts >= 1")
    wall = tau_link + n_bins * k * tau_clock
    start, clock = tau_link.ps // 2, tau_clock.ps
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
                _confirm(trace, wall.ps, node, b, "latched")
            else:
                _log(trace, wall.ps, node, b, "latched", "free", "discard")
    return RoundOutcome(tuple((b, b) for b in sorted(matched)), wall)
