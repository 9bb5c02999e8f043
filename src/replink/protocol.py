"""Executable control machines for the three link protocols.

Each machine consumes timestamped events (clock ticks, analyzer messages,
photon arrivals) and returns the actions a real controller would take.
The machines share one skeleton, ``_MachineBase``: the round clock, a
``step`` that dispatches on the event type, the confirm-then-reset trace
pair and round completion. The stepped-round drivers time events in
integer picoseconds from the stepped machine's clock, and every sender
runs on one schedule, ``_run_sender``. A sender-receiver round steps the
receiver's whole round first: nothing the sender does reaches the
receiver, which alone draws randomness and writes the trace.

The tests keep a round-level reference sampler
(``tests/protocol_reference.py``) that draws the same random variates in
the same order, so a machine and that sampler produce identical outcomes
from identical generator seeds.

Loss heralding is baked into ``sample_bsa``: a missing photon can never
produce a success verdict, so no path confirms entanglement for a lost
transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .params import ConfigurationError, Duration, validate_probability

__all__ = [
    "Verdict",
    "SlotState",
    "BsaMessage",
    "RoundOutcome",
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
    """The skeleton every machine shares. A subclass maps event types to
    handlers in ``_handlers``, resets its per-round state in ``_new_round``
    and returns the round's confirmed pairs from ``_confirm_round``.
    """

    def __init__(self, node: str, trace: list | None, round_duration: Duration):
        self.node = node
        self.trace = trace
        self.round_duration = round_duration
        self.round_start = Duration(0)
        self._last_ps = -1
        self._new_round()

    @property
    def round_end(self) -> Duration:
        return self.round_start + self.round_duration

    def step(self, event):
        handler = self._handlers.get(type(event))
        if handler is None:
            raise ProtocolViolation(f"{self.node}: unsupported event {event!r}")
        self._advance(event.time)
        return handler(self, event)

    def _advance(self, time: Duration):
        if time.ps < self._last_ps:
            raise ProtocolViolation(
                f"{self.node}: event at {time.ps} ps arrived after {self._last_ps} ps"
            )
        self._last_ps = time.ps

    def _record(self, time: Duration, slot, old: SlotState, new: SlotState, trigger: str):
        if self.trace is not None:
            self.trace.append((time.ps, self.node, slot, old.value, new.value, trigger))

    def _confirm(self, time: Duration, slot: int, held: SlotState):
        self._record(time, slot, held, SlotState.CONFIRMED_ENTANGLED, "confirm")
        self._record(time, slot, SlotState.CONFIRMED_ENTANGLED, SlotState.FREE, "reset")

    def _on_tick(self, event: Tick):
        if event.time != self.round_end:
            raise ProtocolViolation(f"{self.node}: unexpected tick at {event.time.ps} ps")
        return self._complete_round(event.time)

    def _complete_round(self, time: Duration):
        pairs = self._confirm_round(time)
        outcome = RoundOutcome(len(pairs), tuple(pairs), self.round_duration)
        self.round_start = self.round_end
        self._new_round()
        return (RoundComplete(outcome),)


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
        if n_slots < 0:
            raise ConfigurationError("slot count must be non-negative")
        self.n_slots = n_slots
        self.tau_clock = tau_clock
        super().__init__(node, trace, round_duration)

    def _new_round(self):
        self._next_emit = 1
        self._messages: dict[int, BsaMessage] = {}

    def emission_time(self, index: int) -> Duration:
        return self.round_start + (index - 1) * self.tau_clock

    def _on_tick(self, event: Tick):
        if self._next_emit <= self.n_slots and event.time == self.emission_time(self._next_emit):
            slot = self._next_emit
            self._next_emit += 1
            self._record(event.time, slot, SlotState.FREE, SlotState.PHOTON_EMITTED, "emit")
            return (EmitPhoton(slot=slot),)
        if event.time == self.round_end:
            return self._complete_round(event.time)
        raise ProtocolViolation(
            f"{self.node}: tick at {event.time.ps} ps does not match the emission "
            "schedule or the round boundary"
        )

    def _on_message(self, event: MessageArrival):
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

    def _confirm_round(self, time: Duration):
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
                self._confirm(time, index, SlotState.PHOTON_EMITTED)
            else:
                self._record(time, index, SlotState.PHOTON_EMITTED, SlotState.FREE, "reset")
        return pairs

    _handlers = {Tick: _on_tick, MessageArrival: _on_message}


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
        if n_receiver < 0 or n_transmissions < 0:
            raise ConfigurationError("counts must be non-negative")
        self.n_receiver = n_receiver
        self.n_transmissions = n_transmissions
        self.latch_probability = validate_probability(latch_probability, "latch_probability")
        self.tau_clock = tau_clock
        self.tau_link = tau_link
        self.rng = rng
        super().__init__(node, trace, 2 * tau_link + n_transmissions * tau_clock)

    def _new_round(self):
        self._next_index = 1
        self._next_slot = 1
        self._latches: list[tuple[int, int]] = []

    def _on_photon(self, event: PhotonArrival):
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

    def _confirm_round(self, time: Duration):
        if self._next_index != self.n_transmissions + 1:
            raise ProtocolViolation(
                f"{self.node}: round ended after {self._next_index - 1} of "
                f"{self.n_transmissions} transmissions"
            )
        for slot, _ in self._latches:
            self._confirm(time, slot, SlotState.LATCHED)
        return self._latches

    _handlers = {PhotonArrival: _on_photon, Tick: _MachineBase._on_tick}


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
        if n_bins < 0 or k_attempts < 1:
            raise ConfigurationError("need n_bins >= 0 and k_attempts >= 1")
        self.n_bins = n_bins
        self.k_attempts = k_attempts
        self.latch_probability = validate_probability(latch_probability, "latch_probability")
        self.tau_clock = tau_clock
        self.tau_link = tau_link
        self.rng = rng
        super().__init__(node, trace, tau_link + n_bins * k_attempts * tau_clock)

    def _new_round(self):
        self._latched: dict[int, int] = {}
        self._last_pulse = (0, self.k_attempts)
        self._remote: dict[int, int] | None = None

    def latched_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._latched.items()))

    def _on_pulse(self, event: SourcePulse):
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

    def _on_report(self, event: RemoteLatchReport):
        self._remote = dict(event.latches)
        return ()

    def _confirm_round(self, time: Duration):
        if self._remote is None:
            raise ProtocolViolation(f"{self.node}: cannot confirm without the remote latch report")
        matched = []
        for bin_index in range(1, self.n_bins + 1):
            local = self._latched.get(bin_index)
            if local is None:
                continue
            if self._remote.get(bin_index) == local:
                matched.append((bin_index, bin_index))
                self._confirm(time, bin_index, SlotState.LATCHED)
            else:
                self._record(time, bin_index, SlotState.LATCHED, SlotState.FREE, "discard")
        return matched

    _handlers = {SourcePulse: _on_pulse, RemoteLatchReport: _on_report, Tick: _MachineBase._on_tick}


# -- stepped-round drivers ----------------------------------------------


def _run_sender(sender: MitmMachine, messages) -> RoundOutcome:
    """Step the sender's emissions, its analyzer messages, given as (arrival
    ps, message) pairs, and its round-end tick in (time, slot, kind) order:
    at one picosecond a slot's emission precedes its own message, and
    earlier slots' messages precede later emissions.
    """
    start, clock = sender.round_start.ps, sender.tau_clock.ps
    events = [(start + (i - 1) * clock, i, 0, None) for i in range(1, sender.n_slots + 1)]
    events += [(t, message.transmission_index, 1, message) for t, message in messages]
    events.append((sender.round_end.ps, sender.n_slots + 1, 0, None))
    events.sort(key=lambda item: item[:3])
    for t, _, kind, message in events:
        time = Duration(t)
        actions = sender.step(MessageArrival(time, message) if kind else Tick(time))
    # a round that completes has stepped its round-end tick last
    (done,) = actions
    return done.outcome


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
    emission, in ``_run_sender``'s order.
    """
    if machine is None:
        machine = MitmMachine(n, tau_clock, tau_link + n * tau_clock, trace=trace)
    start, clock = machine.round_start.ps + tau_link.ps, machine.tau_clock.ps
    messages = []
    for i in range(1, machine.n_slots + 1):
        verdict = verdicts[i - 1] if verdicts is not None else sample_bsa(rng, True, True, p)
        messages.append((start + (i - 1) * clock, BsaMessage(i, verdict)))
    return _run_sender(machine, messages)


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
    link = tau_link.ps
    start, clock = receiver.round_start.ps + link, tau_clock.ps
    messages = []
    for i in range(1, n_a + 1):
        t_arrival = start + (i - 1) * clock
        (send,) = receiver.step(PhotonArrival(Duration(t_arrival), i, True))
        messages.append((t_arrival + link, send.message))
    (done,) = receiver.step(Tick(receiver.round_end))
    receiver_outcome = done.outcome
    sender_outcome = _run_sender(sender, messages)
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
    p_side: float,
    tau_link: Duration,
    tau_clock: Duration,
    left: MpsReceiverMachine | None = None,
    right: MpsReceiverMachine | None = None,
    trace: list | None = None,
) -> RoundOutcome:
    """Drive one midpoint-source round through both receiver machines.

    Per attempt the driver draws pair generation, then lets the left and
    right machines, each latching with probability ``p_side``, draw their
    latches from the shared generator, matching the sampler's draw order
    exactly.
    """
    validate_probability(p_mid, "p_mid")
    if left is None:
        left = MpsReceiverMachine(n_bins, k, p_side, tau_clock, tau_link, rng, node="left", trace=trace)
    if right is None:
        right = MpsReceiverMachine(n_bins, k, p_side, tau_clock, tau_link, rng, node="right", trace=trace)
    start, clock = left.round_start.ps + tau_link.ps // 2, tau_clock.ps
    for bin_index in range(1, n_bins + 1):
        for attempt in range(1, k + 1):
            t_arrival = Duration(start + ((bin_index - 1) * k + attempt - 1) * clock)
            pulse = SourcePulse(t_arrival, bin_index, attempt, bool(rng.random() < p_mid))
            left.step(pulse)
            right.step(pulse)
    # a report changes no latch, so each side reads the other's directly
    left.step(RemoteLatchReport(left.round_end, right.latched_pairs()))
    right.step(RemoteLatchReport(right.round_end, left.latched_pairs()))
    (left_done,) = left.step(Tick(left.round_end))
    (right_done,) = right.step(Tick(right.round_end))
    if left_done.outcome != right_done.outcome:
        raise ProtocolViolation("the two receivers disagree on the confirmed bins")
    return left_done.outcome
