"""Closed-form rate, utilization, and purification formulas.

These are the deterministic oracles the Monte Carlo engine is validated
against. They take plain counts. ``round_time`` gives every protocol's
round, one-way signalling delays plus clocked transmission slots; rates
are expected entangled pairs per round divided by the round duration.

Protocol conventions, with tau_l the one-way link delay and tau_c the
hardware cycle time:

* meet-in-the-middle: round tau_l + N*tau_c, rate N*p / round.
* sender-receiver:    round 2*tau_l + N_A*tau_c, expected pairs per round
  E[min(X, N_B)] with X ~ Binomial(N_A, p) because the receiver rejects
  photons once its memory is full (one binomial tail, over the same
  ``round_pmf`` law the sampler draws from).
* midpoint-source:    round tau_l + N*K*tau_c where K latch attempts fill
  one time bin; the per-bin entanglement probability accounts for each
  receiver locking onto its first latched photon and pairs matching only
  when both sides latched the same attempt index. The source sits at the
  middle of a link between identical nodes, so both sides latch with one
  probability. The sum over the K attempts is a finite geometric series,
  evaluated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unused here, and it loads no submodule (about 10 ms): the benchmark
# reads sys.modules["scipy"].__version__ (perfbench/campaign.py:217) until
# ROADMAP item 1 makes that lookup optional.
import scipy  # noqa: F401

from .params import ConfigurationError, Duration, ProtocolKind, validate_probability

__all__ = [
    "RateBundle",
    "MpsEntanglement",
    "PurificationBounds",
    "FastClockEstimates",
    "round_time",
    "mitm_rate",
    "sr_rate",
    "sr_expected_pairs_per_round",
    "sr_receiver_allocation",
    "round_pmf",
    "mps_attempts_per_bin",
    "mps_entanglement",
    "mps_bin_utilization",
    "mps_rate",
    "fast_clock_estimates",
    "purification_bounds",
]


@dataclass(frozen=True)
class RateBundle:
    """A protocol's analytic rate with its utilization and ceiling."""

    rate_per_s: float
    utilization: float
    upper_bound_per_s: float

    def __post_init__(self):
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError(f"utilization out of range: {self.utilization}")
        if self.rate_per_s > self.upper_bound_per_s:
            raise ValueError(
                f"rate {self.rate_per_s} exceeds its upper bound {self.upper_bound_per_s}"
            )


@dataclass(frozen=True)
class MpsEntanglement:
    """Per-bin entanglement probability for the midpoint-source protocol.

    ``p_ent_sum`` is the sum over the K attempts and ``p_ent_closed`` the
    closed form in p_side, evaluated independently. The bounds bracket both
    whenever K is chosen to make latching near-certain.
    """

    k_attempts: int
    p_latch: float
    p_ent_sum: float
    p_ent_closed: float
    lower_bound: float
    upper_bound: float
    p_side: float
    p_mid: float


@dataclass(frozen=True)
class PurificationBounds:
    """Error and success numbers for the 7-to-1 code-based purification."""

    epsilon_out: float
    p_success: float
    epsilon_total: float


@dataclass(frozen=True)
class FastClockEstimates:
    """Rate approximations in the regime where clocking cost is negligible."""

    r_mitm: float
    r_mps: float
    ratio: float


def round_time(
    kind: ProtocolKind, slots: int, tau_link: Duration, tau_clock: Duration, k_attempts: int = 1
) -> Duration:
    """Duration of one round of ``slots`` memory slots (N for mitm and mps,
    N_A for sr): one link delay, two for sr, plus ``slots * k_attempts``
    clock cycles. A negative slot count or a round of zero length, in which
    nothing can be scheduled, is refused."""
    if slots < 0:
        raise ConfigurationError(f"memory count must be non-negative, got {slots}")
    delays = 2 if kind is ProtocolKind.SR else 1
    tau_round = delays * tau_link + slots * k_attempts * tau_clock
    if not tau_round:
        raise ConfigurationError("round time is zero; nothing can be scheduled")
    return tau_round


def mitm_rate(n: int, p: float, tau_link: Duration, tau_clock: Duration) -> RateBundle:
    """Meet-in-the-middle rate N*p/round, with F = N*tau_clock/round.

    The identity rate == utilization * upper_bound holds exactly: the rate
    is computed as that product.
    """
    validate_probability(p, "p")
    tau_round = round_time(ProtocolKind.MITM, n, tau_link, tau_clock)
    utilization = (n * tau_clock.ps) / tau_round.ps
    upper = p / tau_clock.seconds
    return RateBundle(
        rate_per_s=utilization * upper,
        utilization=utilization,
        upper_bound_per_s=upper,
    )


def sr_expected_pairs_per_round(n_a: int, n_b: int, p: float) -> float:
    """E[min(X, N_B)] for X ~ Binomial(N_A, p), within [0, min(N_A*p, N_B)].

    Below the mean it is N_B less sum_{x < N_B} (N_B - x) P(X = x), else
    N_A*p less sum_{x > N_B} (x - N_B) P(X = x): the larger part less one
    tail, whose terms ``math.fsum`` adds with P(X = x) from the uncapped
    ``round_pmf(N_A, p, N_A)``, the law the sampler's table is built from.
    """
    validate_probability(p, "p")
    if min(n_a, n_b) < 0:
        raise ConfigurationError(f"memory counts must be non-negative, got ({n_a}, {n_b})")
    if n_b >= n_a:
        return n_a * p
    lo, pmf = round_pmf(n_a, p, n_a)
    x = lo + np.arange(len(pmf))
    if n_b < n_a * p:
        tail = x < n_b
        terms = [float(n_b)] + ((x[tail] - n_b) * pmf[tail]).tolist()
    else:
        tail = x > n_b
        terms = [n_a * p] + ((n_b - x[tail]) * pmf[tail]).tolist()
    return min(max(math.fsum(terms), 0.0), float(n_b))


# e^-746 is under half the smallest subnormal double, so it rounds to zero
_UNDERFLOW_EXPONENT = 746.0


def round_pmf(slots: int, p: float, cap: int) -> tuple[int, np.ndarray]:
    """(lo, pmf): the law of min(Binomial(slots, p), cap), with pmf[i] the
    probability of lo + i, over the counts whose probability does not round
    to zero.

    By Bernstein's inequality each tail beyond t from the mean,
    P(X - slots*p >= t) or P(slots*p - X >= t), is at most
    exp(-t^2 / (2 (var + t/3))), which is e^-746 at t = L/3 + sqrt(L^2/9 + 2 L var)
    with L = 746. So only counts nearer the mean than t are kept, and the
    work and the array grow with the law's spread, sqrt(slots p (1 - p)),
    and not with slots. Inside that window each probability is the product
    of the pmf ratios (slots - k) p / ((k + 1) (1 - p)) outward from the
    mode, normalised by their sum: the relative error grows by a few ulps
    per count away from the mode, and no gamma function is needed.
    """
    validate_probability(p, "p")
    top = min(slots, cap)
    if top < 0:
        raise ConfigurationError(f"slot and cap counts must be non-negative, got ({slots}, {cap})")
    if p == 0.0 or top == 0:
        return 0, np.ones(1)
    if p == 1.0:
        return top, np.ones(1)
    variance = slots * p * (1.0 - p)
    reach = _UNDERFLOW_EXPONENT / 3.0
    reach += math.sqrt(reach * reach + 2.0 * _UNDERFLOW_EXPONENT * variance)
    lo, hi = max(0, math.ceil(slots * p - reach)), min(slots, math.floor(slots * p + reach))
    if top < lo:  # the cap binds in every round that can happen
        return top, np.ones(1)
    mode = min(math.floor((slots + 1) * p), hi)
    odds = p / (1.0 - p)
    up = np.arange(mode, hi)
    down = np.arange(mode - 1, lo - 1, -1)
    weights = np.concatenate((
        np.cumprod((down + 1) / (slots - down) / odds)[::-1],
        [1.0],
        np.cumprod((slots - up) / (up + 1) * odds),
    ))
    pmf = weights / weights.sum()
    if top < hi:  # every count above the cap confirms cap pairs
        pmf[top - lo] = pmf[top - lo:].sum()
        pmf = pmf[: top - lo + 1]
    kept = np.flatnonzero(pmf)
    return lo + int(kept[0]), pmf[kept[0]: kept[-1] + 1]


def sr_rate(n_a: int, n_b: int, p: float, tau_link: Duration, tau_clock: Duration) -> RateBundle:
    """Sender-receiver rate: expected latched pairs per round / round time.

    Utilization is the sender's inner-loop fraction N_A*tau_clock/round;
    the receiver tracks it closely since it attempts every transmission
    until full, but has no closed form of its own.
    """
    if not n_a >= n_b >= 0:
        raise ConfigurationError(f"need n_sender >= n_receiver >= 0, got ({n_a}, {n_b})")
    tau_round = round_time(ProtocolKind.SR, n_a, tau_link, tau_clock)
    pairs = sr_expected_pairs_per_round(n_a, n_b, p)
    return RateBundle(
        rate_per_s=pairs / tau_round.seconds,
        utilization=(n_a * tau_clock.ps) / tau_round.ps,
        upper_bound_per_s=(n_a * p) / tau_round.seconds,
    )


def sr_receiver_allocation(n: int, p: float) -> tuple[int, int]:
    """Split a 2N-qubit link budget into (sender, receiver) shares.

    The receiver gets 6 + ceil(2*N*p/(p+1)) qubits so that, with
    purification consuming seven pairs at a time, it can hold roughly the
    number of latches the sender's transmissions produce per round. A
    budget that leaves the sender fewer qubits than the receiver is refused,
    as ``sr_rate`` refuses such a split.
    """
    if n < 0:
        raise ConfigurationError("memory count must be non-negative")
    validate_probability(p, "p")
    n_receiver = 6 + math.ceil(2 * n * p / (p + 1))
    n_sender = 2 * n - n_receiver
    if n_sender < n_receiver:
        raise ConfigurationError(
            f"memory budget too small for the allocation rule: of 2N = {2 * n} qubits it "
            f"gives the receiver {n_receiver} and leaves the sender {n_sender}, and the "
            "sender needs at least as many as the receiver"
        )
    return n_sender, n_receiver


def mps_attempts_per_bin(p_l: float, p_m: float) -> int:
    """Latch attempts per time bin: K = ceil(3 / (p_l * p_m)).

    The numerator 3 makes the per-bin latch probability exceed 0.95.
    """
    validate_probability(p_l, "p_l")
    validate_probability(p_m, "p_m")
    product = p_l * p_m
    attempts = 3.0 / product if product > 0.0 else math.inf
    if attempts == math.inf:
        raise ConfigurationError(
            f"latching is impossible or too rare: 3 / (p_l * p_m) is infinite for {product:g}"
        )
    return math.ceil(attempts)


def mps_entanglement(p_l: float, p_m: float, k: int) -> MpsEntanglement:
    """Per-bin entanglement probability after K latch attempts.

    Each attempt generates a photon pair with probability p_m; each side
    latches its photon with probability p_l and then rejects further
    photons. A bin yields entanglement only if both sides latch the same
    attempt, so the probability is the sum over the attempt index of
    p'' * (no earlier latch on either side)^(attempts so far), with
    p'' = p_l * p_m * p_l.

    The sum is the geometric series p'' * (1 - s^K) / (1 - s), where
    1 - s = p_m * (p_l + p_l * (1 - p_l)) is the chance that either side
    latches; that form has no cancellation, and ``log1p``/``expm1`` keep
    1 - s^K accurate when s is within rounding of one.
    """
    validate_probability(p_l, "p_l")
    validate_probability(p_m, "p_m")
    if k < 1:
        raise ConfigurationError("at least one latch attempt per bin is required")

    p_joint = p_l * p_m * p_l
    p_any = p_m * (p_l + p_l * (1.0 - p_l))  # either side latches this attempt
    p_latch = 1.0 - (1.0 - p_l * p_m) ** k
    if p_joint == 0.0:
        p_sum = limit = 0.0
    elif p_any >= 1.0:  # the first attempt decides the bin; log1p(-1) would raise
        p_sum = limit = p_joint
    else:
        limit = p_joint / p_any  # the sum's K -> infinity limit, rounded as the sum is
        p_sum = p_joint * -math.expm1(k * math.log1p(-p_any)) / p_any

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
        # the sum's limit and p_l / (2 - p_l) round the same real number two
        # ways; the larger bounds both p_ent_sum and p_ent_closed
        upper_bound=max(limit, p_l / (2.0 - p_l)),
        p_side=p_l,
        p_mid=p_m,
    )


def mps_bin_utilization(p_l: float, p_m: float, k: int) -> float:
    """In-bin active fraction (1/K) * sum_j j*y*(1-y)^j, j = 1..K, with y = p_l*p_m.

    The sum is (1-y) * (1 - (1-y)^K * (1 + K*y)) / y, taking (1-y)^K from
    ``log1p``. That difference cancels when K*y is small, so below K*y = 1
    the sum comes from the binomial expansion of (1-y)^j instead:
    sum_m (-y)^m * ((m+1)*C(K+1, m+2) + m*C(K+1, m+1)), whose terms fall
    like (K*y)^m / m!. Either way the cost does not grow with K.
    """
    validate_probability(p_l, "p_l")
    validate_probability(p_m, "p_m")
    if k < 1:
        raise ConfigurationError("at least one latch attempt per bin is required")
    y = p_l * p_m
    if y == 0.0 or y >= 1.0:  # nothing latches, or the first attempt always does
        return 0.0
    x = k * y
    if x >= 1.0:
        log_q_k = k * math.log1p(-y)
        return (1.0 - y) * (-math.expm1(log_q_k) - x * math.exp(log_q_k)) / x
    total = 0.0
    m, binom = 0, k + 1.0  # binom = C(K+1, m+1) * y^m
    while binom:
        term = binom * ((m + 1) * (k - m) / (m + 2) + m)
        total += -term if m % 2 else term
        if term <= 1e-17 * total:
            break
        binom *= y * (k - m) / (m + 2)
        m += 1
    return y * total / k


def mps_rate(n: int, ent: MpsEntanglement, tau_link: Duration, tau_clock: Duration) -> RateBundle:
    """Midpoint-source rate N*p_ent/round over a round of N bins of K attempts."""
    tau_round = round_time(ProtocolKind.MPS, n, tau_link, tau_clock, ent.k_attempts)
    tau_bin = ent.k_attempts * tau_clock
    f_bin = mps_bin_utilization(ent.p_side, ent.p_mid, ent.k_attempts)
    utilization = n * f_bin * (tau_bin.ps / tau_round.ps)
    bound_prob = ent.upper_bound if ent.upper_bound > 0 else 1.0
    return RateBundle(
        rate_per_s=(n * ent.p_ent_sum) / tau_round.seconds,
        utilization=utilization,
        upper_bound_per_s=(n * bound_prob) / tau_round.seconds,
    )


def fast_clock_estimates(
    n: int, p_bsa: float, p_optical: float, tau_link: Duration
) -> FastClockEstimates:
    """Rates when clocking time is negligible against the signalling delay.

    The two-sender arrangement pays the optical transmission twice per
    attempt, the midpoint source only once per side, so their ratio is
    1/(2*p_optical) independent of everything else.
    """
    validate_probability(p_bsa, "p_bsa")
    validate_probability(p_optical, "p_optical")
    if n < 0:
        raise ConfigurationError(f"memory count must be non-negative, got {n}")
    if tau_link.ps == 0:
        raise ConfigurationError("fast-clock estimates need a nonzero link delay")
    seconds = tau_link.seconds
    r_mitm = n * p_bsa * p_optical * p_optical / seconds
    r_mps = n * p_bsa * p_optical / (2.0 * seconds)
    ratio = math.inf if p_optical == 0.0 else 1.0 / (2.0 * p_optical)
    return FastClockEstimates(r_mitm=r_mitm, r_mps=r_mps, ratio=ratio)


def purification_bounds(epsilon_in: float, link_count: int) -> PurificationBounds:
    """Output error and success probability of 7-to-1 purification.

    With i.i.d. input error eps, decoding succeeds with probability
    (1-eps)^7 and the surviving pair has error at most
    7*eps^3*(1-eps)^4 + eps^7; a chain of links multiplies the output
    error by the link count.
    """
    eps = validate_probability(epsilon_in, "epsilon_in")
    if link_count < 0:
        raise ConfigurationError("link count must be non-negative")
    epsilon_out = 7.0 * eps**3 * (1.0 - eps) ** 4 + eps**7
    return PurificationBounds(
        epsilon_out=epsilon_out, p_success=(1.0 - eps) ** 7, epsilon_total=link_count * epsilon_out
    )
