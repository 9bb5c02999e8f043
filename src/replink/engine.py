"""Monte Carlo trial runners for single links and repeater chains.

A trial is deterministic and single-threaded. A sweep cell, single-link
or chain, draws its trials one after another from the one stream
``default_rng([seed, 0])`` of its base seed, so distinct seeds give
independent cells, equal seeds byte-identical ones, and a cell's first k
trials are its k-trial cell. A sweep reuses its base seed at every
distance, so one reused generator is set to that seed's cached state:
about 2 us, against 20 us to build a generator.

Every protocol's round confirms min(Binomial(slots, p), cap) pairs. The
two-sender protocols try each sending qubit once with the per-attempt
success probability (sender-receiver caps the count at the receiver
memory). Each midpoint-source bin is one Bernoulli trial with
``analytic.mps_entanglement``'s closed-form per-bin probability, the same
per-attempt process that the tests' reference sampler
(``tests/protocol_reference.py``) iterates explicitly; the tests check the
two agree.

A round count is drawn by inversion: one uniform u from ``rng.random``,
and the smallest count whose cdf exceeds u. A model builds its law's table
once, at its first draw (``LinkModel.round_table``), from the exact pmf of
``analytic.round_pmf``, over the counts a uniform in [0, 1) can reach. A
guide of about eight buckets per count starts each u on the first count
its bucket can hold; one vectorised comparison finds the few uniforms
that lie past that count, and a binary search places them. So n counts
take exactly n uniforms, and drawing link by link or all links in one
call gives equal values.

A single-link trial needs only its total. Where the cap cannot bind
(mitm, mps, and sender-receiver with N_B >= N_A), the sum of the rounds'
counts is itself Binomial(rounds * slots, p), one ``rng.binomial`` draw; a
capped sender-receiver trial sums one table draw per round. A sweep cell's
trials share the rounds, law and elapsed time, so where the cap cannot bind
the whole cell is one vector draw. A chain trial of L links and R rounds
takes L * R uniforms for its round counts, link 0's rounds first, and then
one uniform per purification group.

A chain model derives its purification bounds and its freshness horizon
in whole rounds once, so a trial pays only for its own rounds. A chain
trial runs without an event loop. All links share one round time, so the
rounds that form groups are merged in the order of a (time, insertion)
event queue: round by round, and within a round in link order. One dense
pass over the rounds x links array gives each link's groups from its
running pair total. A link on which a stashed raw pair could outwait the
horizon, where some window of ``lag`` rounds brings it fewer than six
pairs, also steps its stash, the newest 0-6 of its pairs, through its
non-empty rounds as an integer recurrence, and its groups replace the
running total's. One vector of uniforms decides every purification in
event order, a Python pass over the rounds with a success applies the
buffer cap and the swaps, and a check that every link's pairs balance
ends the trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import analytic
from .params import ConfigurationError, Duration, ProtocolConfig, ProtocolKind, validate_probability

__all__ = [
    "LinkModel",
    "ChainModel",
    "PurificationPolicy",
    "ChainTrialStats",
    "SummaryStats",
    "PAIRS_PER_PURIFICATION",
    "sample_round_counts",
    "round_count",
    "run_link_trial",
    "run_link_trials",
    "run_chain_trial",
    "run_chain_trials",
    "summarize",
]

PAIRS_PER_PURIFICATION = 7
_STASH_MAX = PAIRS_PER_PURIFICATION - 1  # raw pairs a link can hold short of a group


@dataclass(frozen=True)
class LinkModel:
    """Everything needed to simulate one link: protocol, probabilities, delays.

    ``p`` is the success probability of a two-photon herald (mitm, sr) or
    of one side's latch (mps), the same for both sides. ``p_mid``, the
    midpoint source's pair-generation probability, and ``k_attempts``, its
    K latch attempts per time bin, are given for mps links and only for
    them. A sweep distance's Monte Carlo rows and analytic row read one
    model.
    """

    config: ProtocolConfig
    p: float
    tau_link: Duration
    tau_clock: Duration
    p_mid: float | None = None
    k_attempts: int | None = None

    def __post_init__(self):
        validate_probability(self.p, "p")
        kind = self.config.kind
        for name in ("p_mid", "k_attempts"):
            value = getattr(self, name)
            if (kind is ProtocolKind.MPS) != (value is not None):
                raise ConfigurationError(
                    f"{name} goes with mps links and only with them, got {value!r} for {kind.value}"
                )
        if kind is ProtocolKind.MPS:
            validate_probability(self.p_mid, "p_mid")
            if self.k_attempts < 1:
                raise ConfigurationError(
                    f"an mps link needs k_attempts >= 1 attempts per bin, got {self.k_attempts}"
                )

    @cached_property
    def round_time(self) -> Duration:
        """The round of ``round_law``'s slots; a configuration error if it is empty."""
        return analytic.round_time(
            self.config.kind, self.round_law[0], self.tau_link, self.tau_clock,
            self.k_attempts or 1,
        )

    @cached_property
    def mps_entanglement(self) -> analytic.MpsEntanglement:
        """The midpoint source's per-bin law (mps links only), derived at its
        first use: many models are built and never sampled."""
        return analytic.mps_entanglement(self.p, self.p_mid, k=self.k_attempts)

    @cached_property
    def round_law(self) -> tuple[int, float, int]:
        """(slots, p, cap): each round confirms min(Binomial(slots, p), cap) pairs.
        The one reader of the config's memory split."""
        memory = self.config.memory
        if self.config.kind is ProtocolKind.SR:
            return memory.n_sender, self.p, memory.n_receiver
        if self.config.kind is ProtocolKind.MITM:
            return memory.n_per_side, self.p, memory.n_per_side
        return memory.n_per_side, self.mps_entanglement.p_ent_sum, memory.n_per_side

    @cached_property
    def round_table(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(offset, cdf, guide): the round law's inverse-CDF table, built at
        the first draw. ``cdf[i]`` is P(count <= offset + i), up to the first
        count where it rounds to 1 (no uniform in [0, 1) reaches a later one),
        and ``guide[j]`` the smallest i with ``cdf[i] > j / len(guide)``."""
        offset, pmf = analytic.round_pmf(*self.round_law)
        cdf = np.cumsum(pmf)
        cdf /= cdf[-1]
        cdf = cdf[: np.argmax(cdf >= 1.0) + 1]
        # about eight buckets per count, so most draws start on their count
        buckets = 1 << (8 * len(cdf) - 1).bit_length()
        guide = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right")
        return offset, cdf, guide


@dataclass(frozen=True)
class PurificationPolicy:
    """Link-level purification settings for chain trials.

    ``raw_pair_lifetime`` is the freshness horizon for raw pairs waiting
    to form a group of seven: pairs older than this are discarded, which
    models the bounded hold time of repeater memory. ``None`` disables the
    horizon entirely.
    """

    epsilon_in: float
    buffer_capacity: int
    raw_pair_lifetime: Duration | None

    def __post_init__(self):
        if self.buffer_capacity < 0:
            raise ConfigurationError(
                f"buffer_capacity must be non-negative, got {self.buffer_capacity}"
            )


@dataclass(frozen=True)
class ChainModel:
    """A linear chain of ``link_count`` links that all follow ``link`` and
    purify by ``purification``."""

    link: LinkModel
    link_count: int
    purification: PurificationPolicy

    def __post_init__(self):
        if self.link_count < 1:
            raise ConfigurationError("a chain needs at least one link")
        if self.bounds.p_success <= 0.0:
            raise ConfigurationError(
                "purification is impossible when (1 - epsilon_in)^7 = 0 "
                f"(epsilon_in = {self.purification.epsilon_in:g})"
            )

    @cached_property
    def bounds(self) -> analytic.PurificationBounds:
        """Every link's purification success and the chain's ebit error."""
        return analytic.purification_bounds(self.purification.epsilon_in, self.link_count)

    @cached_property
    def lag(self) -> int | None:
        """Whole rounds a raw pair stays fresh (None without a lifetime): a
        pair from round r is fresh at the end of round q iff r >= q - lag."""
        lifetime = self.purification.raw_pair_lifetime
        return None if lifetime is None else lifetime.ps // self.link.round_time.ps

    @property
    def links(self) -> tuple[LinkModel, ...]:  # for readers that walk the links one by one
        return (self.link,) * self.link_count


@dataclass(frozen=True)
class ChainTrialStats:
    """One chain trial's counts: the end-to-end ebits, and the rest per link."""

    end_to_end_ebits: int
    per_link_purified_counts: tuple[int, ...]
    raw_pairs: tuple[int, ...]
    purify_attempts: tuple[int, ...]
    raw_expired: tuple[int, ...]
    raw_pending: tuple[int, ...]
    purified_discarded: tuple[int, ...]
    purified_pending: tuple[int, ...]


@dataclass(frozen=True)
class SummaryStats:
    """Mean with an empirical 5th-95th percentile interval.

    The mean usually falls inside the interval, but extreme zero-inflation
    (under ~5% of trials nonzero) legitimately pushes it above the 95th
    percentile, so only the interval ordering is enforced.
    """

    mean: float
    ci90_low: float
    ci90_high: float

    def __post_init__(self):
        if not self.ci90_low <= self.ci90_high:
            raise ValueError("interval endpoints out of order")


def sample_round_counts(rng, link: LinkModel, n_rounds: int) -> np.ndarray:
    """Confirmed pair counts for ``n_rounds`` consecutive rounds, one uniform
    u each: the smallest count whose cdf exceeds u."""
    offset, cdf, guide = link.round_table
    u = rng.random(n_rounds)
    counts = guide[(u * len(guide)).astype(np.intp)]
    late = np.flatnonzero(u >= cdf[counts])  # u lies past its bucket's first count
    counts[late] = np.searchsorted(cdf, u[late], side="right")
    if offset:
        counts += offset
    return counts


_GENERATOR = np.random.Generator(np.random.PCG64())


@lru_cache(maxsize=1)  # a sweep runs every cell at one base seed
def _seeded_state(seed: int) -> dict:
    """The seeded state, shared by every hit: only the state setter reads it."""
    return np.random.PCG64([seed, 0]).state


def _cell_rng(seed: int) -> np.random.Generator:
    """The engine's one generator, set to the start of ``default_rng([seed, 0])``.

    It is valid only until the next call: every caller draws a whole cell
    from it at once, and the engine is single-threaded.
    """
    _GENERATOR.bit_generator.state = _seeded_state(seed)
    return _GENERATOR


def round_count(link: LinkModel, duration: Duration, name: str) -> int:
    """Whole rounds of ``link`` that fit in ``duration``; a configuration
    error that names the link as ``name`` if not even one fits."""
    round_ps = link.round_time.ps
    if duration.ps < round_ps:
        raise ConfigurationError(
            f"duration {duration.ps} ps is shorter than one round of {name} ({round_ps} ps)"
        )
    return duration.ps // round_ps


def run_link_trials(
    link: LinkModel, duration: Duration, seed: int, trials: int
) -> tuple[np.ndarray, Duration]:
    """Pair counts of a sweep cell's ``trials`` trials, each of whole rounds
    until the next would overrun, and the trials' elapsed time. Trial t is
    the (t+1)-th draw from the cell's one stream ``default_rng([seed, 0])``:
    one Binomial(rounds * slots, p) unless the sender-receiver cap can bind,
    in which case the trial's capped per-round counts are summed.
    Deterministic for a fixed (link, duration, seed), and the first k trials
    of a cell are its k-trial cell."""
    n_rounds = round_count(link, duration, "the link")
    slots, p, cap = link.round_law
    rng = _cell_rng(seed)
    if cap >= slots:
        events = rng.binomial(n_rounds * slots, p, size=trials)
    else:
        events = np.empty(trials, dtype=np.int64)
        for index in range(trials):  # one trial's rounds at a time
            events[index] = sample_round_counts(rng, link, n_rounds).sum()
    return events, n_rounds * link.round_time


def run_link_trial(link: LinkModel, duration: Duration, seed: int) -> tuple[int, Duration]:
    """The one-trial case of ``run_link_trials``: its pair count and elapsed time."""
    (events,), elapsed = run_link_trials(link, duration, seed, 1)
    return int(events), elapsed


def _stash_recurrence(fresh, arrivals):
    """One chain link's groups of seven per round, and its pairs expired and
    left stashed after the last round. The stash is the link's newest ``held``
    pairs (at most six), so a round keeps min(held, fresh[k]) of them, where
    ``fresh[k]`` counts the link's earlier pairs still inside the horizon.
    """
    formed = [0] * len(arrivals)
    held = expired = 0
    for k, (kept, count) in enumerate(zip(fresh, arrivals)):
        if held > kept:
            expired += held - kept
            held = kept
        held += count
        if held >= PAIRS_PER_PURIFICATION:
            formed[k], held = divmod(held, PAIRS_PER_PURIFICATION)
    return formed, expired, held


def _check_conservation(stats: ChainTrialStats) -> None:
    """Raise unless every link's raw and purified pairs are all accounted for."""
    rows = zip(
        stats.raw_pairs, stats.purify_attempts, stats.raw_expired, stats.raw_pending,
        stats.per_link_purified_counts, stats.purified_discarded, stats.purified_pending,
    )
    for index, (raw, attempts, expired, raw_pending, successes, discarded, held) in enumerate(rows):
        if (
            raw != PAIRS_PER_PURIFICATION * attempts + expired + raw_pending
            or successes != stats.end_to_end_ebits + discarded + held
        ):
            raise RuntimeError(
                f"chain link {index} does not conserve pairs: raw {raw}, attempts {attempts}, "
                f"expired {expired}, raw pending {raw_pending}; purified {successes}, "
                f"ebits {stats.end_to_end_ebits}, discarded {discarded}, held {held}"
            )


def _queued_groups(counts, raw, lag):
    """Link and group count of each round that forms groups of seven, in event
    queue order, and each link's raw pairs expired and left pending. Row i of
    ``counts`` holds link i's round counts, ``raw`` their sums; a pair from
    round r is fresh at the end of round q iff r >= q - ``lag`` (always, if
    ``lag`` is None).

    Each link's groups follow from its running pair total unless a stashed
    pair expires. None can where ``lag`` is None, where
    ``lag >= n_rounds - 1``, or where every window of ``lag`` rounds after a
    round r <= n_rounds - 2 - lag brings the link at least six pairs. Proof
    of the last: a link groups its pairs in arrival order, so a pair that
    round r leaves stashed completes its group within the link's next six
    pairs, which rounds r+1..r+lag bring; the group forms by round r+lag,
    while the pair is fresh. A pair from round n_rounds-1-lag or later is
    fresh at the trial's end whatever follows it, so the windows after
    earlier rounds are all that count; with ``lag == 0`` each is empty.
    Only a link with a short window walks its non-empty rounds through
    ``_stash_recurrence``, whose groups replace its running total's in the
    same array. The recurrence is exact, so a walked link that expires
    nothing changes none.
    """
    n_links, n_rounds = counts.shape
    # each link's pairs so far, a row per round: rows in the order of a (time,
    # insertion) event queue, round by round and within a round link by link
    total = np.cumsum(counts.T, axis=0, out=np.empty((n_rounds, n_links), np.int64))
    walking = []
    if lag is not None and lag < n_rounds - 1:
        last = n_rounds - 1 - lag  # pairs from this round on are fresh at the end
        walking = np.flatnonzero((total[lag:-1] - total[:last]).min(axis=0) < _STASH_MAX).tolist()
    expired = [0] * n_links
    pending = (raw % PAIRS_PER_PURIFICATION).tolist()
    if walking:
        # a link's pairs before each round, less those more than lag rounds older
        fresh = total - counts.T
        fresh[lag + 1:] -= total[:last]
        ends = (raw - total[last - 1]).tolist()  # fresh pairs at the trial's end
    total //= PAIRS_PER_PURIFICATION  # groups each link has formed so far
    # a round forms at most (6 + slots) / 7 groups, which int32 holds
    formed = np.empty(total.shape, np.int32)
    formed[0] = total[0]
    np.subtract(total[1:], total[:-1], out=formed[1:])
    del total
    if walking:
        nonempty = counts > 0
        for i in walking:
            rounds = nonempty[i].nonzero()[0]
            made, expired[i], pending[i] = _stash_recurrence(
                fresh[:, i][rounds].tolist() + [ends[i]], counts[i][rounds].tolist() + [0]
            )
            formed[:, i][rounds] = made[:-1]
    made = np.flatnonzero(formed != 0)
    groups = formed.ravel()[made]
    del formed
    # each one's link, made % n_links, by a floor division: numpy divides by
    # one integer through a multiplication, several times faster than its %
    link_of = made // n_links
    link_of *= -n_links
    link_of += made
    return link_of, groups, expired, pending


def run_chain_trials(chain: ChainModel, duration: Duration, seed: int, trials: int) -> list:
    """A sweep cell's chain trials, one after another from its one stream
    ``default_rng([seed, 0])``: the first k trials are its k-trial cell."""
    rng = _cell_rng(seed)
    return [run_chain_trial(chain, duration, rng) for _ in range(trials)]


def run_chain_trial(chain: ChainModel, duration: Duration, rng) -> ChainTrialStats:
    """Run a linear chain for ``duration`` on ``rng``, reporting end-to-end ebits.

    Each link runs its protocol rounds independently; confirmed pairs
    become available at their round's completion. Every seven fresh raw
    pairs on a link are consumed by one purification attempt; purified
    pairs wait in the link's reserved buffer (overflow drops the oldest).
    Whenever every link holds a purified pair, one pair per link is
    consumed by deterministic swapping at the intermediate nodes and one
    end-to-end ebit is counted.
    """
    link, n_links, policy = chain.link, chain.link_count, chain.purification
    n_rounds = round_count(link, duration, "a chain link")
    # link i's round counts in row i
    counts = sample_round_counts(rng, link, n_links * n_rounds).reshape(n_links, n_rounds)
    raw = counts.sum(axis=1)
    link_of, groups, expired, pending = _queued_groups(counts, raw, chain.lag)
    # freed before the purification draw: with the grouping stage's narrow,
    # in-place arrays, this lowers the trial's heap peak, so fewer pages go back
    # to the OS at glibc's default trim threshold and fault in again next trial
    del counts
    n_groups = int(groups.sum())
    succeeded = np.zeros(n_groups + 1, np.int64)  # successes before each group
    np.cumsum(rng.random(n_groups) < chain.bounds.p_success, out=succeeded[1:])
    ends = np.cumsum(groups)
    wins = succeeded[ends]
    ends -= groups
    wins -= succeeded[ends]
    won = wins > 0

    capacity = policy.buffer_capacity
    accepted = [0] * n_links  # purified pairs each link has kept, swapped ones included
    discarded = [0] * n_links
    # link i holds accepted[i] - floor pairs: a swap raises the floor, not every link
    floor, cap = 0, capacity
    empty = n_links  # links holding no purified pair
    for i, count in zip(link_of[won].tolist(), wins[won].tolist()):
        was = accepted[i]
        held = was + count
        if held > cap:
            # the oldest purified pairs are displaced
            discarded[i] += held - cap
            held = cap
        accepted[i] = held
        # after every swap some link is empty, so only filling one enables the next
        if was == floor < held:
            empty -= 1
            if not empty:
                floor = min(accepted)
                cap = floor + capacity
                empty = accepted.count(floor)

    attempts, successes = (
        tuple(np.bincount(link_of, weights=w, minlength=n_links).astype(np.int64).tolist())
        for w in (groups, wins)
    )
    stats = ChainTrialStats(
        end_to_end_ebits=floor, per_link_purified_counts=successes, raw_pairs=tuple(raw.tolist()),
        purify_attempts=attempts, raw_expired=tuple(expired), raw_pending=tuple(pending),
        purified_discarded=tuple(discarded), purified_pending=tuple(a - floor for a in accepted),
    )
    _check_conservation(stats)
    return stats


def _percentile(ordered: list, q: float) -> float:
    """numpy's default ('linear') percentile of sorted finite floats at ``q``
    in [0, 1], bit for bit (of a tie of 0.0 and -0.0 numpy may pick either)."""
    virtual = (len(ordered) - 1) * q
    # at the last value numpy interpolates from index -1 to itself, as here for one sample
    low = min(math.floor(virtual), len(ordered) - 2)
    a, b = ordered[low], ordered[low + 1]
    gamma = virtual - low
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def summarize(samples) -> SummaryStats:
    """Mean and empirical 90% interval (5th and 95th percentiles).

    Percentiles interpolate linearly between order statistics, which stays
    meaningful for the skewed, zero-inflated rate distributions that show
    up near the edge of a protocol's reach.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample set")
    ordered = np.sort(data).tolist()  # a NaN sorts last
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        raise ValueError(f"cannot summarize non-finite samples, from {ordered[0]} to {ordered[-1]}")
    return SummaryStats(
        mean=float(np.mean(data)),
        ci90_low=_percentile(ordered, 0.05),
        ci90_high=_percentile(ordered, 0.95),
    )
