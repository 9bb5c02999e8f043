"""Executable control machines for the three link protocols.

Each machine consumes timestamped events (clock ticks, analyzer messages,
photon arrivals) and returns the actions a real controller would take.
The tests keep a round-level reference sampler
(``tests/protocol_reference.py``) that draws the same random variates in
the same order, so a machine and that sampler produce identical outcomes
from identical generator seeds.

Loss heralding is baked into ``sample_bsa``: a missing photon can never
produce a success verdict, so no path confirms entanglement for a lost
transmission.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from .params import ConfigurationError, Duration, validate_probability

__all__ = [
    "Verdict",
    "SlotState",
    "BsaMessage",
    "RoundOutcome",
    "LinkProbabilities",
    "ProtocolViolation",
    "Tick",
    "MessageArrival",
    "PhotonArrival",
    "SourcePulse",
    "RemoteLatchReport",
    "EmitPhoton",
    "SendMessage",
    "RoundComplete",
    "sample_bsa",
    "MitmMachine",
    "SrReceiverMachine",
    "MpsReceiverMachine",
    "step_mitm_round",
    "step_sr_round",
    "step_mps_round",
    "format_trace_entry",
]


class ProtocolViolation(RuntimeError):
    """An event sequence broke the protocol contract (ordering, bounds, duplicates)."""


class Verdict(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class SlotState(Enum):
    FREE = "free"
    PHOTON_EMITTED = "photon_emitted"
    LATCHED = "latched"
    CONFIRMED_ENTANGLED = "confirmed_entangled"
    REJECTING = "rejecting"


@dataclass(frozen=True)
class BsaMessage:
    """Analyzer outcome for one transmission.

    ``receiver_slot`` names the memory qubit a latch landed in (receiver
    protocols); ``pair_id`` is the attempt index within a bin (midpoint
    source).
    """

    transmission_index: int
    verdict: Verdict
    receiver_slot: int | None = None
    pair_id: int | None = None


@dataclass(frozen=True)
class RoundOutcome:
    """Confirmed pairs from one protocol round."""

    entangled_pairs: int
    slot_map: tuple[tuple[int, int], ...]
    wall_time: Duration

    def __post_init__(self):
        if self.entangled_pairs != len(self.slot_map):
            raise ValueError("entangled_pairs must match the slot map length")


@dataclass(frozen=True)
class LinkProbabilities:
    """Per-attempt success probabilities feeding the samplers."""

    p: float | None = None
    p_mid: float | None = None
    p_left: float | None = None
    p_right: float | None = None

    def __post_init__(self):
        for name in ("p", "p_mid", "p_left", "p_right"):
            value = getattr(self, name)
            if value is not None:
                validate_probability(value, name)


# -- events ------------------------------------------------------------


@dataclass(frozen=True)
class Tick:
    time: Duration


@dataclass(frozen=True)
class MessageArrival:
    time: Duration
    message: BsaMessage


@dataclass(frozen=True)
class PhotonArrival:
    time: Duration
    index: int
    photon_present: bool


@dataclass(frozen=True)
class SourcePulse:
    time: Duration
    bin_index: int
    pair_id: int
    pair_emitted: bool


@dataclass(frozen=True)
class RemoteLatchReport:
    time: Duration
    latches: tuple[tuple[int, int], ...]


# -- actions -----------------------------------------------------------


@dataclass(frozen=True)
class EmitPhoton:
    slot: int


@dataclass(frozen=True)
class SendMessage:
    message: BsaMessage


@dataclass(frozen=True)
class RoundComplete:
    outcome: RoundOutcome


def sample_bsa(rng, left_arrived: bool, right_arrived: bool, p_bsa: float) -> Verdict:
    """Analyzer verdict for one interference attempt.

    Success requires both photons present and happens with probability
    p_bsa; absence of either photon is a deterministic failure and
    consumes no randomness.
    """
    validate_probability(p_bsa, "p_bsa")
    if not (left_arrived and right_arrived):
        return Verdict.FAILURE
    return Verdict.SUCCESS if rng.random() < p_bsa else Verdict.FAILURE


def format_trace_entry(entry) -> str:
    time_ps, node, slot, old, new, trigger = entry
    return f"{time_ps},{node},{'-' if slot is None else slot},{old},{new},{trigger}"


class _MachineBase:
    def __init__(self, node: str, trace: list | None):
        self.node = node
        self.trace = trace
        self._last_ps = -1

    def _advance(self, time: Duration):
        if time.ps < self._last_ps:
            raise ProtocolViolation(
                f"{self.node}: event at {time.ps} ps arrived after {self._last_ps} ps"
            )
        self._last_ps = time.ps

    def _record(self, time: Duration, slot, old: SlotState, new: SlotState, trigger: str):
        if self.trace is not None:
            self.trace.append((time.ps, self.node, slot, old.value, new.value, trigger))


class MitmMachine(_MachineBase):
    """Sender-side controller: emit one photon per clock slot, wait out the
    round, then consume every slot whose analyzer message reported success.

    Also serves as the sender in the sender-receiver protocol, which uses
    the same control with a longer round.
    """

    def __init__(
        self,
        n_slots: int,
        tau_clock: Duration,
        round_duration: Duration,
        node: str = "alice",
        trace: list | None = None,
    ):
        super().__init__(node, trace)
        if n_slots < 0:
            raise ConfigurationError("slot count must be non-negative")
        self.n_slots = n_slots
        self.tau_clock = tau_clock
        self.round_duration = round_duration
        self.round_start = Duration(0)
        self._next_emit = 1
        self._messages: dict[int, BsaMessage] = {}

    def emission_time(self, index: int) -> Duration:
        return self.round_start + (index - 1) * self.tau_clock

    @property
    def round_end(self) -> Duration:
        return self.round_start + self.round_duration

    def step(self, event):
        if isinstance(event, Tick):
            return self._on_tick(event)
        if isinstance(event, MessageArrival):
            return self._on_message(event)
        raise ProtocolViolation(f"{self.node}: unsupported event {event!r}")

    def _on_tick(self, event: Tick):
        self._advance(event.time)
        if self._next_emit <= self.n_slots and event.time == self.emission_time(self._next_emit):
            slot = self._next_emit
            self._next_emit += 1
            self._record(event.time, slot, SlotState.FREE, SlotState.PHOTON_EMITTED, "emit")
            return (EmitPhoton(slot=slot),)
        if event.time == self.round_end:
            return self._finish_round(event.time)
        raise ProtocolViolation(
            f"{self.node}: tick at {event.time.ps} ps does not match the emission "
            "schedule or the round boundary"
        )

    def _on_message(self, event: MessageArrival):
        self._advance(event.time)
        message = event.message
        index = message.transmission_index
        if not 1 <= index <= self.n_slots:
            raise ProtocolViolation(f"{self.node}: message for unknown transmission {index}")
        if index >= self._next_emit:
            raise ProtocolViolation(
                f"{self.node}: analyzer message for transmission {index} before its emission"
            )
        if index in self._messages:
            raise ProtocolViolation(f"{self.node}: duplicate message for transmission {index}")
        self._messages[index] = message
        return ()

    def _finish_round(self, time: Duration):
        if len(self._messages) != self.n_slots:
            raise ProtocolViolation(
                f"{self.node}: round ended with {len(self._messages)} of "
                f"{self.n_slots} analyzer messages"
            )
        pairs = []
        for index in range(1, self.n_slots + 1):
            message = self._messages[index]
            if message.verdict is Verdict.SUCCESS:
                remote = message.receiver_slot if message.receiver_slot is not None else index
                pairs.append((index, remote))
                self._record(
                    time, index, SlotState.PHOTON_EMITTED, SlotState.CONFIRMED_ENTANGLED, "confirm"
                )
                self._record(time, index, SlotState.CONFIRMED_ENTANGLED, SlotState.FREE, "reset")
            else:
                self._record(time, index, SlotState.PHOTON_EMITTED, SlotState.FREE, "reset")
        outcome = RoundOutcome(len(pairs), tuple(pairs), wall_time=self.round_duration)
        self.round_start = self.round_end
        self._next_emit = 1
        self._messages = {}
        return (RoundComplete(outcome),)


class SrReceiverMachine(_MachineBase):
    """Receiver-side controller with the analyzer in the node.

    Each incoming transmission is latched into the next free memory qubit;
    a failed latch resets the qubit within one clock cycle, and once the
    memory is full every further transmission is rejected outright.
    """

    def __init__(
        self,
        n_receiver: int,
        n_transmissions: int,
        latch_probability: float,
        tau_clock: Duration,
        tau_link: Duration,
        rng,
        node: str = "bob",
        trace: list | None = None,
    ):
        super().__init__(node, trace)
        if n_receiver < 0 or n_transmissions < 0:
            raise ConfigurationError("counts must be non-negative")
        self.n_receiver = n_receiver
        self.n_transmissions = n_transmissions
        self.latch_probability = validate_probability(latch_probability, "latch_probability")
        self.tau_clock = tau_clock
        self.tau_link = tau_link
        self.round_duration = 2 * tau_link + n_transmissions * tau_clock
        self.rng = rng
        self.round_start = Duration(0)
        self._next_index = 1
        self._next_slot = 1
        self._latches: list[tuple[int, int]] = []

    @property
    def round_end(self) -> Duration:
        return self.round_start + self.round_duration

    def step(self, event):
        if isinstance(event, PhotonArrival):
            return self._on_photon(event)
        if isinstance(event, Tick):
            return self._on_tick(event)
        raise ProtocolViolation(f"{self.node}: unsupported event {event!r}")

    def _on_photon(self, event: PhotonArrival):
        self._advance(event.time)
        if event.index != self._next_index:
            raise ProtocolViolation(
                f"{self.node}: expected transmission {self._next_index}, got {event.index}"
            )
        self._next_index += 1
        if self._next_slot > self.n_receiver:
            # memory full: no latch attempt, reject outright
            self._record(event.time, None, SlotState.REJECTING, SlotState.REJECTING, "reject")
            return (SendMessage(BsaMessage(event.index, Verdict.FAILURE)),)
        verdict = sample_bsa(self.rng, event.photon_present, True, self.latch_probability)
        if verdict is Verdict.SUCCESS:
            slot = self._next_slot
            self._next_slot += 1
            self._latches.append((slot, event.index))
            self._record(event.time, slot, SlotState.FREE, SlotState.LATCHED, "latch")
            return (SendMessage(BsaMessage(event.index, Verdict.SUCCESS, receiver_slot=slot)),)
        self._record(event.time, self._next_slot, SlotState.FREE, SlotState.FREE, "latch_failed")
        return (SendMessage(BsaMessage(event.index, Verdict.FAILURE)),)

    def _on_tick(self, event: Tick):
        self._advance(event.time)
        if event.time != self.round_end:
            raise ProtocolViolation(f"{self.node}: unexpected tick at {event.time.ps} ps")
        if self._next_index != self.n_transmissions + 1:
            raise ProtocolViolation(
                f"{self.node}: round ended after {self._next_index - 1} of "
                f"{self.n_transmissions} transmissions"
            )
        for slot, _ in self._latches:
            self._record(event.time, slot, SlotState.LATCHED, SlotState.CONFIRMED_ENTANGLED, "confirm")
            self._record(event.time, slot, SlotState.CONFIRMED_ENTANGLED, SlotState.FREE, "reset")
        outcome = RoundOutcome(len(self._latches), tuple(self._latches), self.round_duration)
        self.round_start = self.round_end
        self._next_index = 1
        self._next_slot = 1
        self._latches = []
        return (RoundComplete(outcome),)


class MpsReceiverMachine(_MachineBase):
    """Receiver controller for the midpoint-source protocol.

    Bin ``i`` owns memory qubit ``i``. Within a bin the machine latches the
    first photon it can and rejects the rest until the bin ends; after all
    bins it waits one signalling delay for the remote latch report and
    confirms exactly the bins where both sides latched the same pair id.
    """

    def __init__(
        self,
        n_bins: int,
        k_attempts: int,
        latch_probability: float,
        tau_clock: Duration,
        tau_link: Duration,
        rng,
        node: str = "left",
        trace: list | None = None,
    ):
        super().__init__(node, trace)
        if n_bins < 0 or k_attempts < 1:
            raise ConfigurationError("need n_bins >= 0 and k_attempts >= 1")
        self.n_bins = n_bins
        self.k_attempts = k_attempts
        self.latch_probability = validate_probability(latch_probability, "latch_probability")
        self.tau_clock = tau_clock
        self.tau_link = tau_link
        self.round_duration = tau_link + n_bins * k_attempts * tau_clock
        self.rng = rng
        self.round_start = Duration(0)
        self._latched: dict[int, int] = {}
        self._last_pulse = (0, k_attempts)
        self._remote: dict[int, int] | None = None

    @property
    def round_end(self) -> Duration:
        return self.round_start + self.round_duration

    def latched_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._latched.items()))

    def step(self, event):
        if isinstance(event, SourcePulse):
            return self._on_pulse(event)
        if isinstance(event, RemoteLatchReport):
            self._advance(event.time)
            self._remote = dict(event.latches)
            return ()
        if isinstance(event, Tick):
            return self._on_tick(event)
        raise ProtocolViolation(f"{self.node}: unsupported event {event!r}")

    def _on_pulse(self, event: SourcePulse):
        self._advance(event.time)
        if not 1 <= event.bin_index <= self.n_bins:
            raise ProtocolViolation(f"{self.node}: bin {event.bin_index} out of range")
        if not 1 <= event.pair_id <= self.k_attempts:
            raise ProtocolViolation(
                f"{self.node}: pair id {event.pair_id} exceeds the {self.k_attempts} "
                "attempts scheduled per bin"
            )
        if (event.bin_index, event.pair_id) <= self._last_pulse:
            raise ProtocolViolation(
                f"{self.node}: pulse ({event.bin_index}, {event.pair_id}) out of order"
            )
        self._last_pulse = (event.bin_index, event.pair_id)
        if not event.pair_emitted:
            return ()
        bin_index, pair_id = event.bin_index, event.pair_id
        if bin_index in self._latched:
            self._record(event.time, bin_index, SlotState.REJECTING, SlotState.REJECTING, "reject")
            return (SendMessage(BsaMessage(bin_index, Verdict.FAILURE, pair_id=pair_id)),)
        verdict = sample_bsa(self.rng, True, True, self.latch_probability)
        if verdict is Verdict.SUCCESS:
            self._latched[bin_index] = pair_id
            self._record(event.time, bin_index, SlotState.FREE, SlotState.LATCHED, "latch")
            return (SendMessage(BsaMessage(bin_index, Verdict.SUCCESS, pair_id=pair_id)),)
        self._record(event.time, bin_index, SlotState.FREE, SlotState.FREE, "latch_failed")
        return (SendMessage(BsaMessage(bin_index, Verdict.FAILURE, pair_id=pair_id)),)

    def _on_tick(self, event: Tick):
        self._advance(event.time)
        if event.time != self.round_end:
            raise ProtocolViolation(f"{self.node}: unexpected tick at {event.time.ps} ps")
        if self._remote is None:
            raise ProtocolViolation(f"{self.node}: cannot confirm without the remote latch report")
        matched = []
        for bin_index in range(1, self.n_bins + 1):
            local = self._latched.get(bin_index)
            if local is None:
                continue
            if self._remote.get(bin_index) == local:
                matched.append((bin_index, bin_index))
                self._record(
                    event.time, bin_index, SlotState.LATCHED, SlotState.CONFIRMED_ENTANGLED, "confirm"
                )
                self._record(
                    event.time, bin_index, SlotState.CONFIRMED_ENTANGLED, SlotState.FREE, "reset"
                )
            else:
                self._record(event.time, bin_index, SlotState.LATCHED, SlotState.FREE, "discard")
        outcome = RoundOutcome(len(matched), tuple(matched), self.round_duration)
        self.round_start = self.round_end
        self._latched = {}
        self._last_pulse = (0, self.k_attempts)
        self._remote = None
        return (RoundComplete(outcome),)


# -- stepped-round drivers ----------------------------------------------


def _collect_outcome(actions) -> RoundOutcome | None:
    for action in actions:
        if isinstance(action, RoundComplete):
            return action.outcome
    return None


def step_mitm_round(
    rng,
    n: int,
    p: float,
    tau_link: Duration,
    tau_clock: Duration,
    machine: MitmMachine | None = None,
    verdicts=None,
    trace: list | None = None,
) -> RoundOutcome:
    """Drive one meet-in-the-middle round through the state machine.

    Verdicts are drawn per transmission in emission order (or taken from
    ``verdicts``), and delivered as messages one link delay after each
    emission; messages sort ahead of ticks at equal timestamps.
    """
    if machine is None:
        machine = MitmMachine(n, tau_clock, tau_link + n * tau_clock, trace=trace)
    # tie-break simultaneous events by slot index, then kind (emission
    # before its own verdict; earlier slots' messages before later emissions)
    events = []
    for i in range(1, machine.n_slots + 1):
        t_emit = machine.emission_time(i)
        events.append((t_emit.ps, i, 0, Tick(t_emit)))
        if verdicts is not None:
            verdict = verdicts[i - 1]
        else:
            verdict = sample_bsa(rng, True, True, p)
        t_msg = t_emit + tau_link
        events.append((t_msg.ps, i, 1, MessageArrival(t_msg, BsaMessage(i, verdict))))
    events.append((machine.round_end.ps, machine.n_slots + 1, 0, Tick(machine.round_end)))
    events.sort(key=lambda item: item[:3])
    outcome = None
    for _, _, _, event in events:
        outcome = _collect_outcome(machine.step(event)) or outcome
    return outcome


def step_sr_round(
    rng,
    n_a: int,
    n_b: int,
    p: float,
    tau_link: Duration,
    tau_clock: Duration,
    receiver: SrReceiverMachine | None = None,
    sender: MitmMachine | None = None,
    trace: list | None = None,
) -> RoundOutcome:
    """Drive one sender-receiver round through both machines.

    The sender reuses the meet-in-the-middle control with the doubled
    round; the receiver draws one latch per arriving transmission. Returns
    the receiver's outcome after checking both sides agree.
    """
    if receiver is None:
        receiver = SrReceiverMachine(n_b, n_a, p, tau_clock, tau_link, rng, trace=trace)
    if sender is None:
        sender = MitmMachine(n_a, tau_clock, receiver.round_duration, node="alice")

    # tie-break key: (time, node, slot, kind, seq) so that a slot's own
    # emission precedes its verdict and messages precede later arrivals
    seq = 0
    heap: list = []

    def push(time: Duration, node: str, slot: int, kind: int, event):
        nonlocal seq
        heapq.heappush(heap, (time.ps, node, slot, kind, seq, event))
        seq += 1

    for i in range(1, n_a + 1):
        push(sender.emission_time(i), "alice", i, 0, Tick(sender.emission_time(i)))
        t_arrival = receiver.round_start + tau_link + (i - 1) * tau_clock
        push(t_arrival, "bob", i, 0, PhotonArrival(t_arrival, i, True))
    push(sender.round_end, "alice", n_a + 1, 0, Tick(sender.round_end))
    push(receiver.round_end, "bob", n_a + 1, 0, Tick(receiver.round_end))

    sender_outcome = receiver_outcome = None
    while heap:
        _, node, _, _, _, event = heapq.heappop(heap)
        if node == "bob":
            actions = receiver.step(event)
            for action in actions:
                if isinstance(action, SendMessage):
                    t_msg = event.time + tau_link
                    push(t_msg, "alice", action.message.transmission_index, 1,
                         MessageArrival(t_msg, action.message))
            receiver_outcome = _collect_outcome(actions) or receiver_outcome
        else:
            sender_outcome = _collect_outcome(sender.step(event)) or sender_outcome

    if sender_outcome.entangled_pairs != receiver_outcome.entangled_pairs:
        raise ProtocolViolation("sender and receiver disagree on the confirmed pair count")
    if sorted((b, a) for a, b in sender_outcome.slot_map) != sorted(receiver_outcome.slot_map):
        raise ProtocolViolation("sender and receiver disagree on the confirmed slot map")
    return receiver_outcome


def step_mps_round(
    rng,
    n_bins: int,
    k: int,
    p_mid: float,
    p_left: float,
    p_right: float,
    tau_link: Duration,
    tau_clock: Duration,
    left: MpsReceiverMachine | None = None,
    right: MpsReceiverMachine | None = None,
    trace: list | None = None,
) -> RoundOutcome:
    """Drive one midpoint-source round through both receiver machines.

    Per attempt the driver draws pair generation, then lets the left and
    right machines draw their latches from the shared generator, matching
    the sampler's draw order exactly.
    """
    validate_probability(p_mid, "p_mid")
    if left is None:
        left = MpsReceiverMachine(n_bins, k, p_left, tau_clock, tau_link, rng, node="left", trace=trace)
    if right is None:
        right = MpsReceiverMachine(n_bins, k, p_right, tau_clock, tau_link, rng, node="right", trace=trace)
    half_link = Duration(tau_link.ps // 2)
    for bin_index in range(1, n_bins + 1):
        for attempt in range(1, k + 1):
            t_source = left.round_start + ((bin_index - 1) * k + attempt - 1) * tau_clock
            t_arrival = t_source + half_link
            emitted = bool(rng.random() < p_mid)
            left.step(SourcePulse(t_arrival, bin_index, attempt, emitted))
            right.step(SourcePulse(t_arrival, bin_index, attempt, emitted))
    left_latches = left.latched_pairs()
    right_latches = right.latched_pairs()
    left.step(RemoteLatchReport(left.round_end, right_latches))
    right.step(RemoteLatchReport(right.round_end, left_latches))
    left_outcome = _collect_outcome(left.step(Tick(left.round_end)))
    right_outcome = _collect_outcome(right.step(Tick(right.round_end)))
    if left_outcome != right_outcome:
        raise ProtocolViolation("the two receivers disagree on the confirmed bins")
    return left_outcome

