"""Reference chain trial: the per-event heap loop the engine once used.

``engine.run_chain_trial`` skips empty rounds and works on whole arrays;
this module keeps the straightforward event loop it replaced, so the
tests can require the two to return equal ``ChainTrialStats`` for every
trial of a (chain, duration, seed, trials) cell. A cell's trials draw one
after another from its one stream ``default_rng([seed, 0])``: a trial of
L links and R rounds draws each link's round counts through
``engine.sample_round_counts``, link by link, one uniform per count (L * R
uniforms), and then one purification uniform per group of seven in event
order. This module builds that generator itself, so the tests also check
the engine's cached seeding, and its link-by-link draws check that the
engine's one draw for all links takes the same uniforms in the same order.

Every round of every link is an event, popped from a min-heap in
(time, insertion sequence) order. At each event the link first drops raw
pairs older than the freshness horizon, then stashes the round's pairs,
purifies every complete group of seven (a success goes to the link's
buffer; overflow drops the oldest purified pair), and finally every link
swaps away as many purified pairs as the emptiest link holds.

``walk_stash`` keeps one link's stash as a list of arrival times, the walk
the engine ran for a link whose pairs expire before its integer
recurrence replaced it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from replink import analytic, engine
from replink.engine import PAIRS_PER_PURIFICATION, ChainModel, ChainTrialStats
from replink.params import ConfigurationError, Duration


class EventQueue:
    """Min-heap of (timestamp, insertion sequence, payload).

    Pops come back in non-decreasing (timestamp, sequence) order; the
    sequence is assigned at insertion and unique, so ties resolve in
    insertion order.
    """

    def __init__(self):
        self._heap: list = []
        self._sequence = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time_ps: int, payload) -> None:
        heapq.heappush(self._heap, (time_ps, next(self._sequence), payload))

    def pop(self) -> tuple[int, int, object]:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)


@dataclass(frozen=True)
class PurifiedPair:
    error: float


def purify(pairs, epsilon_in: float, rng, bounds=None) -> PurifiedPair | None:
    """Consume seven same-link pairs; maybe return one lower-error pair.

    Succeeds with probability (1-epsilon_in)^7; on failure all seven pairs
    are lost. ``bounds`` may carry a precomputed
    :func:`analytic.purification_bounds` result.
    """
    if len(pairs) != PAIRS_PER_PURIFICATION:
        raise ConfigurationError(
            f"purification consumes exactly {PAIRS_PER_PURIFICATION} pairs, got {len(pairs)}"
        )
    if bounds is None:
        bounds = analytic.purification_bounds(epsilon_in, 1)
    if rng.random() < bounds.p_success:
        return PurifiedPair(error=bounds.epsilon_out)
    return None


def walk_stash(times, arrivals, end_ps: int, lifetime_ps: int):
    """One link's groups of seven, walked over its non-empty rounds.

    ``times`` and ``arrivals`` are the end times and pair counts of the
    link's non-empty rounds. Returns the groups each round formed, and the
    raw pairs expired and left stashed at ``end_ps``.
    """
    formed = []
    pending: list[int] = []  # arrival times of stashed pairs, oldest first (at most six)
    expired = 0
    for now, count in zip(times, arrivals):
        stale = bisect.bisect_left(pending, now - lifetime_ps)
        expired += stale
        total = len(pending) - stale + count
        formed.append(total // PAIRS_PER_PURIFICATION)
        keep = total % PAIRS_PER_PURIFICATION
        # the newest pairs stay, so stale ones never survive this slice
        fresh = min(keep, count)
        pending = pending[len(pending) - keep + fresh:] + [now] * fresh
    stale = bisect.bisect_left(pending, end_ps - lifetime_ps)
    return formed, expired + stale, len(pending) - stale


class _LinkPipeline:
    """Raw-pair stash and purified buffer for one link of a chain trial."""

    __slots__ = (
        "stash", "stash_total", "raw", "attempts", "successes",
        "expired", "discarded",
    )

    def __init__(self):
        self.stash: deque = deque()  # (timestamp_ps, count) in arrival order
        self.stash_total = 0
        self.raw = 0
        self.attempts = 0
        self.successes = 0
        self.expired = 0
        self.discarded = 0

    def expire(self, now_ps: int, lifetime_ps: int) -> None:
        while self.stash and now_ps - self.stash[0][0] > lifetime_ps:
            _, count = self.stash.popleft()
            self.stash_total -= count
            self.expired += count

    def add(self, now_ps: int, count: int) -> None:
        self.raw += count
        self.stash.append((now_ps, count))
        self.stash_total += count

    def take_group(self) -> tuple[int, ...]:
        taken = []
        need = PAIRS_PER_PURIFICATION
        while need:
            ts, count = self.stash[0]
            grab = min(count, need)
            taken.extend([ts] * grab)
            need -= grab
            if grab == count:
                self.stash.popleft()
            else:
                self.stash[0] = (ts, count - grab)
        self.stash_total -= PAIRS_PER_PURIFICATION
        return tuple(taken)


def run_chain_trials(chain: ChainModel, duration: Duration, seed: int, trials: int) -> list:
    """A cell's trials from its one stream; the oracle for ``engine.run_chain_trials``."""
    rng = np.random.default_rng([seed, 0])
    return [run_chain_trial(chain, duration, rng) for _ in range(trials)]


def run_chain_trial(chain: ChainModel, duration: Duration, rng) -> ChainTrialStats:
    """Event-by-event chain trial on ``rng``; the oracle for ``engine.run_chain_trial``."""
    links = chain.links
    policy = chain.purification
    counts = []
    round_ps = []
    n_rounds = []
    for index, link in enumerate(links):
        rt = link.round_time
        if rt.ps <= 0:
            raise ConfigurationError("the round time must be positive")
        rounds = duration // rt
        if rounds < 1:
            raise ConfigurationError(
                f"duration {duration.ps} ps is shorter than one round of link {index}"
            )
        counts.append(engine.sample_round_counts(rng, link, rounds))
        round_ps.append(rt.ps)
        n_rounds.append(rounds)

    bounds = analytic.purification_bounds(policy.epsilon_in, len(links))
    lifetime_ps = None if policy.raw_pair_lifetime is None else policy.raw_pair_lifetime.ps

    pipelines = [_LinkPipeline() for _ in links]
    ready = [0] * len(links)  # purified pairs
    ebits = 0

    queue = EventQueue()
    for index in range(len(links)):
        queue.push(round_ps[index], (index, 0))

    while len(queue):
        now_ps, _, (index, round_idx) = queue.pop()
        new_pairs = int(counts[index][round_idx])
        pipe = pipelines[index]
        if lifetime_ps is not None:
            pipe.expire(now_ps, lifetime_ps)
        if new_pairs:
            pipe.add(now_ps, new_pairs)
            while pipe.stash_total >= PAIRS_PER_PURIFICATION:
                group = pipe.take_group()
                pipe.attempts += 1
                if purify(group, policy.epsilon_in, rng, bounds=bounds) is not None:
                    pipe.successes += 1
                    ready[index] += 1
                    if ready[index] > policy.buffer_capacity:
                        # the oldest purified pair is displaced
                        ready[index] = policy.buffer_capacity
                        pipe.discarded += 1
        swappable = min(ready)
        if swappable:
            ebits += swappable
            for i in range(len(ready)):
                ready[i] -= swappable
        if round_idx + 1 < n_rounds[index]:
            queue.push(now_ps + round_ps[index], (index, round_idx + 1))

    return ChainTrialStats(
        end_to_end_ebits=ebits,
        elapsed=duration,
        rate_per_s=ebits / duration.seconds,
        per_link_purified_counts=tuple(p.successes for p in pipelines),
        ebit_error=bounds.epsilon_total,
        raw_pairs=tuple(p.raw for p in pipelines),
        purify_attempts=tuple(p.attempts for p in pipelines),
        raw_expired=tuple(p.expired for p in pipelines),
        raw_pending=tuple(p.stash_total for p in pipelines),
        purified_discarded=tuple(p.discarded for p in pipelines),
        purified_pending=tuple(ready),
    )
