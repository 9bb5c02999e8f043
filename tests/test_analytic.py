import decimal
import itertools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import mps_reference
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

from replink import analytic, cli
from replink.params import ConfigurationError, Duration, ProtocolKind

US = Duration.from_us
NS = Duration.from_ns


def traced_peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def exact_bin_law(p_l, p_m, k):
    """p''(1 - s^K)/(1 - s) at 80 digits from the exact input floats."""
    with decimal.localcontext() as context:
        context.prec = 80
        side, mid = Decimal(p_l), Decimal(p_m)
        p_joint = side * mid * side
        if p_joint == 0:
            return p_joint
        p_any = mid * (side + side - side * side)
        return p_joint * (1 - (1 - p_any) ** k) / p_any


def exact_bin_utilization(y, k):
    """(1/K) * sum_j j*y*(1-y)^j in closed form at 80 digits from the exact float y."""
    with decimal.localcontext() as context:
        context.prec = 80
        y = Decimal(y)
        q = 1 - y
        return q * (1 - q**k * (1 + k * y)) / (y * k)


def assert_near_exact_bin_law(p_l, p_m, k):
    exact = exact_bin_law(p_l, p_m, k)
    got = Decimal(analytic.mps_entanglement(p_l, p_m, k).p_ent_sum)
    assert abs(got - exact) <= Decimal(1e-14) * exact


def brute_force_sr_numerator(n_a, n_b, p):
    """Expected latched pairs per round by exhaustive outcome enumeration."""
    p = Fraction(p)
    total = Fraction(0)
    for outcome in itertools.product([0, 1], repeat=n_a):
        weight = Fraction(1)
        for hit in outcome:
            weight *= p if hit else (1 - p)
        total += weight * min(sum(outcome), n_b)
    return total


def exact_sr_pairs(n_a, n_b, p):
    """E[min(X, N_B)] as an exact fraction, with p at its exact binary value."""
    p = Fraction(p)
    return sum(
        min(x, n_b) * math.comb(n_a, x) * p**x * (1 - p) ** (n_a - x) for x in range(n_a + 1)
    )


def decimal_sr_pairs(n_a, n_b, p):
    """E[min(X, N_B)] = N_B - sum_{x < N_B} (N_B - x) P(X = x) in 60-digit decimal,
    the pmf stepped from (1 - p)^N_A by its ratio."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = Decimal(p)
        pmf, total = ((1 - p).ln() * n_a).exp(), Decimal(0)
        for x in range(n_b):
            total += (n_b - x) * pmf
            pmf *= (n_a - x) * p / ((x + 1) * (1 - p))
        return n_b - total


def betainc_sr_pairs(n_a, n_b, p):
    """The sender-receiver sum as replink once took it: survival terms
    I_p(k + 1, N_A - k) from ``scipy.special.betainc``, added by ``math.fsum``."""
    if n_b >= n_a:
        return n_a * p
    below = n_b < n_a * p
    k = np.arange(n_b) if below else np.arange(n_b, n_a)
    survival = math.fsum(special.betainc(k + 1, n_a - k, p).tolist())
    return min(max(survival if below else n_a * p - survival, 0.0), float(n_b))


def sr_laws(max_sender):
    """(N_A, N_B, p) with N_B < N_A <= max_sender and p anywhere in [0, 1]."""
    return st.integers(min_value=1, max_value=max_sender).flatmap(
        lambda n_a: st.tuples(
            st.just(n_a),
            st.integers(min_value=0, max_value=n_a - 1),
            st.floats(min_value=0.0, max_value=1.0),
        )
    )


def sr_preset_cells():
    """(N_A, N_B, p) of every fig8/fig9 sender-receiver sweep distance."""
    cells = []
    for preset in ("fig8-optimistic", "fig9-pessimistic"):
        scenario, _ = cli.parse_scenario(["--preset", preset, "--protocol", "sr"])
        for distance in scenario.distances_km:
            link = cli.build_link_model(scenario, distance)
            cells.append((link.config.memory.n_sender, link.config.memory.n_receiver, link.p))
    return cells


def assert_sr_within_1e_15_of_the_exact_sum(n_a, n_b, p):
    exact = exact_sr_pairs(n_a, n_b, p)
    got = analytic.sr_expected_pairs_per_round(n_a, n_b, p)
    assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact


def assert_sr_equals_round_law_mean(n_a, n_b, p):
    """The sr sum is within 1e-15 of the mean of round_pmf(N_A, p, N_B), the
    capped law LinkModel.round_table draws from; the sum reads the uncapped
    law, so the two are computed apart."""
    lo, pmf = analytic.round_pmf(n_a, p, n_b)
    mean = math.fsum(((lo + np.arange(len(pmf))) * pmf).tolist())
    got = analytic.sr_expected_pairs_per_round(n_a, n_b, p)
    assert abs(got - mean) <= 1e-15 * mean, (n_a, n_b, p, got, mean)


class TestRoundTime:
    def test_mitm_example(self):
        assert analytic.round_time(ProtocolKind.MITM, 100, US(100), NS(1)).ps == 100_100_000

    def test_mitm_empty_round(self):
        assert analytic.round_time(ProtocolKind.MITM, 0, US(100), NS(1)) == US(100)

    def test_sr_example(self):
        assert analytic.round_time(ProtocolKind.SR, 184, US(100), NS(1)).ps == 200_184_000

    def test_mps_counts_bin_width(self):
        assert analytic.round_time(ProtocolKind.MPS, 3, US(100), NS(10), 6).ps == (
            100_000_000 + 3 * 6 * 10_000
        )

    def test_empty_round_is_refused(self):
        with pytest.raises(ConfigurationError, match="^round time is zero; nothing can be scheduled$"):
            analytic.round_time(ProtocolKind.MITM, 0, Duration(0), NS(1))

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_negative_slots_are_refused(self, kind):
        with pytest.raises(ConfigurationError, match="^memory count must be non-negative, got -1$"):
            analytic.round_time(kind, -1, US(100), NS(1))


class TestRateBundle:
    @pytest.mark.parametrize("utilization", [-0.1, 1.5, float("nan")])
    def test_utilization_outside_the_unit_interval_is_refused(self, utilization):
        with pytest.raises(ValueError, match="^utilization out of range: "):
            analytic.RateBundle(rate_per_s=0.0, utilization=utilization, upper_bound_per_s=1.0)

    def test_a_rate_above_its_bound_is_refused(self):
        with pytest.raises(ValueError, match="^rate 2.0 exceeds its upper bound 1.0$"):
            analytic.RateBundle(rate_per_s=2.0, utilization=1.0, upper_bound_per_s=1.0)


class TestMitmRate:
    def test_worked_example(self):
        bundle = analytic.mitm_rate(100, 0.05, US(100), NS(1))
        assert bundle.rate_per_s == pytest.approx(4.995e4, rel=1e-3)
        assert bundle.utilization == pytest.approx(9.99e-4, rel=1e-3)

    def test_no_successes(self):
        assert analytic.mitm_rate(100, 0.0, US(100), NS(1)).rate_per_s == 0.0

    def test_negative_memory_is_refused(self):
        with pytest.raises(ConfigurationError, match="^memory count must be non-negative"):
            analytic.mitm_rate(-1, 0.5, US(100), NS(1))

    def test_zero_link_delay_saturates_the_bound(self):
        bundle = analytic.mitm_rate(10, 0.3, Duration(0), NS(1))
        assert bundle.utilization == 1.0
        assert bundle.rate_per_s == bundle.upper_bound_per_s

    @given(
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_rate_is_exactly_utilization_times_bound(self, n, p, link_ps, clock_ps):
        if n == 0 and link_ps == 0:
            link_ps = 1  # a zero-length round is rejected outright
        bundle = analytic.mitm_rate(n, p, Duration(link_ps), Duration(clock_ps))
        assert bundle.rate_per_s == bundle.utilization * bundle.upper_bound_per_s
        assert 0.0 <= bundle.utilization <= 1.0


class TestSrRate:
    def test_small_case_against_brute_force(self):
        expected = brute_force_sr_numerator(2, 1, Fraction(1, 2))
        assert expected == Fraction(3, 4)
        assert analytic.sr_expected_pairs_per_round(2, 1, 0.5) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("n_a,n_b", [(3, 1), (5, 2), (8, 3), (10, 10), (7, 0)])
    @pytest.mark.parametrize("p", [0.1, 0.35, 0.9])
    def test_matches_exhaustive_enumeration(self, n_a, n_b, p):
        expected = float(brute_force_sr_numerator(n_a, n_b, Fraction(p).limit_denominator(10**9)))
        assert analytic.sr_expected_pairs_per_round(n_a, n_b, p) == pytest.approx(expected, abs=1e-10)

    # n_b = 0, n_b = n_a - 1, and n_b on both sides of the mean n_a * p = 10
    @pytest.mark.parametrize("n_a,n_b,p", [
        (40, 0, 0.25), (40, 1, 0.25), (40, 9, 0.25), (40, 10, 0.25), (40, 11, 0.25),
        (40, 39, 0.25), (40, 39, 0.97), (40, 3, 0.01), (7, 6, 0.5), (1, 0, 0.8),
        (25, 12, 0.48), (25, 12, 0.5), (25, 12, 0.52),
    ])
    def test_within_1e_15_of_the_exact_sum(self, n_a, n_b, p):
        assert_sr_within_1e_15_of_the_exact_sum(n_a, n_b, p)

    @given(sr_laws(max_sender=80))
    @settings(deadline=None)
    def test_within_1e_15_of_the_exact_sum_at_random_laws(self, law):
        assert_sr_within_1e_15_of_the_exact_sum(*law)

    def test_last_bits_stay_inside_the_range(self):
        # the earlier mean-less-excess form returned 1.0000000000000142 and 2.2e-15
        assert analytic.sr_expected_pairs_per_round(100, 1, 0.5) == 1.0
        assert analytic.sr_expected_pairs_per_round(10, 0, 0.3) == 0.0

    @pytest.mark.parametrize("n_a,n_b,p", [
        (100_000, 5000, 0.05), (100_000, 4950, 0.05), (200_000, 150, 0.001), (2_000_000, 1000, 0.001),
    ])
    def test_large_sender_within_1e_15_of_60_digit_decimal(self, n_a, n_b, p):
        reference = decimal_sr_pairs(n_a, n_b, p)
        got = Decimal(analytic.sr_expected_pairs_per_round(n_a, n_b, p))
        assert abs(got - reference) <= Decimal(1e-15) * reference

    @given(st.integers(min_value=1, max_value=2000), st.floats(min_value=0.0, max_value=1.0), st.data())
    def test_between_zero_and_the_smaller_of_mean_and_receiver(self, n_a, p, data):
        n_b = data.draw(st.integers(min_value=0, max_value=n_a - 1))
        assert 0.0 <= analytic.sr_expected_pairs_per_round(n_a, n_b, p) <= min(n_a * p, n_b)

    @given(
        st.integers(min_value=1, max_value=2000),
        st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0)),
        st.data(),
    )
    def test_within_1e_12_of_the_scipy_direct_sum(self, n_a, p, data):
        # scipy's pmf is itself off by up to about 2.6e-13 relative at p below
        # 1e-200 (where the exact answer is n_a * p), and it overflows at subnormal p
        n_b = data.draw(st.integers(min_value=0, max_value=n_a - 1))
        x = np.arange(n_a + 1)
        direct = math.fsum((np.minimum(x, n_b) * stats.binom.pmf(x, n_a, p)).tolist())
        got = analytic.sr_expected_pairs_per_round(n_a, n_b, p)
        assert got == pytest.approx(direct, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("preset", ["fig8-optimistic", "fig9-pessimistic"])
    def test_preset_cells_equal_the_betainc_sum_bit_for_bit(self, preset):
        scenario, _ = cli.parse_scenario(["--preset", preset, "--protocol", "sr"])
        assert len(scenario.distances_km) == 10
        for distance in scenario.distances_km:
            link = cli.build_link_model(scenario, distance)
            cell = (link.config.memory.n_sender, link.config.memory.n_receiver, link.p)
            assert analytic.sr_expected_pairs_per_round(*cell) == betainc_sr_pairs(*cell), cell

    def test_preset_cells_equal_the_mean_of_the_sampled_round_law(self):
        for cell in sr_preset_cells():
            assert_sr_equals_round_law_mean(*cell)

    @given(sr_laws(max_sender=2 * 10**5))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_mean_of_the_sampled_round_law(self, law):
        assert_sr_equals_round_law_mean(*law)

    def test_certain_outcomes(self):
        assert analytic.sr_expected_pairs_per_round(40, 7, 0.0) == 0.0
        assert analytic.sr_expected_pairs_per_round(40, 7, 1.0) == 7.0

    def test_uncapped_receiver_gives_exact_binomial_mean(self):
        assert analytic.sr_expected_pairs_per_round(40, 40, 0.37) == 40 * 0.37

    def test_zero_probability(self):
        assert analytic.sr_rate(4, 2, 0.0, US(100), NS(1)).rate_per_s == 0.0

    def test_large_sender_is_finite_and_bounded(self):
        bundle = analytic.sr_rate(5000, 100, 0.02, US(100), NS(1))
        assert 0.0 < bundle.rate_per_s <= bundle.upper_bound_per_s

    def test_requires_sender_at_least_receiver(self):
        with pytest.raises(ConfigurationError):
            analytic.sr_rate(2, 3, 0.5, US(100), NS(1))

    @pytest.mark.parametrize("n_a,n_b", [(5, -1), (-5, -6), (-1, 3)])
    def test_negative_counts_are_refused(self, n_a, n_b):
        with pytest.raises(ConfigurationError, match="^memory counts must be non-negative"):
            analytic.sr_expected_pairs_per_round(n_a, n_b, 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_probability_outside_the_unit_interval_is_refused(self, p):
        with pytest.raises(ConfigurationError, match=r"^p must lie in \[0, 1\]"):
            analytic.sr_expected_pairs_per_round(5, 3, p)

    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=1e-6, max_value=1.0),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=100, max_value=10**6),
        st.data(),
    )
    @settings(max_examples=60)
    def test_lower_rate_than_mitm_at_equal_budget(self, n, p, link_ps, clock_ps, data):
        # fixed budget 2N split so the sender has fewer than all 2N qubits
        n_a = data.draw(st.integers(min_value=n, max_value=2 * n - 1))
        n_b = 2 * n - n_a
        tau_link, tau_clock = Duration(link_ps), Duration(clock_ps)
        sr = analytic.sr_rate(n_a, n_b, p, tau_link, tau_clock)
        mitm = analytic.mitm_rate(n, p, tau_link, tau_clock)
        assert sr.rate_per_s < mitm.rate_per_s


class TestRoundPmf:
    """The round law min(Binomial(slots, p), cap) that the engine's table reads."""

    @given(
        st.integers(min_value=1, max_value=2 * 10**6),
        st.one_of(
            st.sampled_from([0.0, 1.0, 1e-300, 0.5, 1 - 1e-12]),
            st.floats(min_value=1e-300, max_value=1.0),
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_on_every_representable_count(self, slots, p, data):
        cap = data.draw(st.integers(min_value=0, max_value=slots + 2))
        lo, pmf = analytic.round_pmf(slots, p, cap)
        top = min(slots, cap)
        x = np.arange(lo, lo + len(pmf))
        assert 0 <= lo and x[-1] <= top and pmf.min() > 0.0
        exact = stats.binom.pmf(x, slots, p)
        if x[-1] == top:
            exact[-1] = stats.binom.sf(top - 1, slots, p)
        # scipy's own pmf loses digits where it nears the smallest doubles
        sure = exact > 1e-280
        np.testing.assert_allclose(pmf[sure], exact[sure], rtol=1e-9, atol=0.0)
        assert math.fsum(pmf.tolist()) == pytest.approx(1.0, abs=1e-12)
        # the counts left out have probabilities that round to zero
        for outside in (lo - 1, lo + len(pmf)):
            if 0 <= outside <= top:
                tail = stats.binom.pmf(outside, slots, p)
                if outside == top:
                    tail = stats.binom.sf(top - 1, slots, p)
                assert tail < 1e-300

    @pytest.mark.parametrize("slots,cap", [(-3, 2), (3, -1)])
    def test_negative_counts_are_refused(self, slots, cap):
        with pytest.raises(ConfigurationError, match="^slot and cap counts must be non-negative"):
            analytic.round_pmf(slots, 0.5, cap)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_probability_outside_the_unit_interval_is_refused(self, p):
        with pytest.raises(ConfigurationError, match=r"^p must lie in \[0, 1\]"):
            analytic.round_pmf(3, p, 3)

    def test_spread_not_slots_sets_the_length(self):
        # a million slots at p = 1e-5 have the spread of a Poisson law of mean 10
        lo, pmf = analytic.round_pmf(10**6, 1e-5, 10**6)
        assert lo == 0 and len(pmf) < 400
        assert analytic.round_pmf(10**6, 0.5, 10**6)[1].size < 80 * 500


class TestSrAllocation:
    def test_worked_example(self):
        n_sender, n_receiver = analytic.sr_receiver_allocation(100, 0.0504)
        assert (n_receiver, n_sender) == (16, 184)

    def test_zero_probability_floor(self):
        n_sender, n_receiver = analytic.sr_receiver_allocation(100, 0.0)
        assert (n_receiver, n_sender) == (6, 194)

    def test_budget_too_small(self):
        with pytest.raises(ConfigurationError, match="too small"):
            analytic.sr_receiver_allocation(2, 0.5)

    def test_receiver_may_not_outnumber_the_sender(self):
        # 6 + ceil(14 * 0.5 / 1.5) = 11 receiver qubits leave the sender 3 of 14
        with pytest.raises(ConfigurationError, match="receiver 11 and leaves the sender 3,"):
            analytic.sr_receiver_allocation(7, 0.5)
        with pytest.raises(ConfigurationError, match="receiver 6 and leaves the sender 4,"):
            analytic.sr_receiver_allocation(5, 0.0)
        n_sender, n_receiver = analytic.sr_receiver_allocation(6, 0.0)  # an even split is allowed
        assert (n_receiver, n_sender) == (6, 6)

    def test_negative_memory_is_refused(self):
        with pytest.raises(ConfigurationError, match="^memory count must be non-negative$"):
            analytic.sr_receiver_allocation(-1, 0.5)


class TestMpsAttempts:
    @pytest.mark.parametrize("p_l,p_m,expected", [(1.0, 1.0, 3), (0.5, 1.0, 6), (0.1, 0.1, 300)])
    def test_examples(self, p_l, p_m, expected):
        assert analytic.mps_attempts_per_bin(p_l, p_m) == expected

    def test_zero_product_rejected(self):
        with pytest.raises(ConfigurationError):
            analytic.mps_attempts_per_bin(0.0, 0.5)

    def test_overflowing_attempts_rejected(self):
        # 3 / 1e-310 is past the largest float
        with pytest.raises(ConfigurationError, match="is infinite"):
            analytic.mps_attempts_per_bin(1e-10, 1e-300)


class TestMpsEntanglement:
    def test_no_attempt_is_refused(self):
        with pytest.raises(ConfigurationError, match="^at least one latch attempt per bin is required$"):
            analytic.mps_entanglement(0.5, 0.5, 0)

    def test_worked_example(self):
        ent = analytic.mps_entanglement(0.5, 1.0, 6)
        assert ent.p_ent_sum == pytest.approx(0.333251953125, abs=1e-15)
        assert ent.p_ent_closed == pytest.approx(0.333251953125, abs=1e-15)
        assert ent.lower_bound == pytest.approx(0.2375)
        assert ent.upper_bound == pytest.approx(1.0 / 3.0)
        assert ent.p_latch == pytest.approx(0.984375, abs=1e-15)

    def test_single_attempt_reduces_to_joint_probability(self):
        ent = analytic.mps_entanglement(0.3, 0.7, 1)
        assert ent.p_ent_sum == pytest.approx(0.3 * 0.7 * 0.3, abs=1e-15)

    def test_many_attempts_approach_geometric_limit(self):
        ent = analytic.mps_entanglement(0.5, 1.0, 10**6)
        assert ent.p_ent_sum == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert ent.p_ent_closed == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=200)
    def test_sum_and_closed_form_agree(self, p_l, p_m, k):
        ent = analytic.mps_entanglement(p_l, p_m, k)
        assert abs(ent.p_ent_sum - ent.p_ent_closed) <= 1e-12

    @given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=1.0))
    @example(0.99, 0.99999)  # the sum's limit rounds one ulp below p_l / (2 - p_l)
    @settings(max_examples=200)
    def test_bounds_and_latch_with_chosen_attempts(self, p_l, p_m):
        k = analytic.mps_attempts_per_bin(p_l, p_m)
        ent = analytic.mps_entanglement(p_l, p_m, k)
        assert ent.lower_bound < ent.p_ent_closed < ent.upper_bound
        assert ent.p_latch > 0.95

    @given(st.floats(min_value=0.001, max_value=0.095), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100)
    def test_half_latch_approximation_for_small_sides(self, p_l, p_m):
        k = analytic.mps_attempts_per_bin(p_l, p_m)
        ent = analytic.mps_entanglement(p_l, p_m, k)
        assert abs(ent.p_ent_sum - p_l / 2.0) / (p_l / 2.0) <= 0.05

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-4, max_value=1.0),
        st.integers(min_value=1, max_value=10**5),
    )
    @settings(max_examples=100, deadline=None)
    def test_sum_is_the_first_latch_law(self, p_l, p_m, k):
        # A bin entangles iff its first latch event comes within K attempts
        # (probability 1 - (1 - p_any)^K) and is a both-sides latch
        # (probability p''/p_any given an event): the engine's Bernoulli law.
        p_joint = p_l * p_m * p_l
        p_any = p_m * (p_l + p_l) - p_joint
        # with p_any = 1 the first attempt always decides the bin
        latched = 1.0 if p_any >= 1.0 else -math.expm1(k * math.log1p(-p_any))
        law = p_joint * latched / p_any
        ent = analytic.mps_entanglement(p_l, p_m, k)
        assert ent.p_ent_sum == pytest.approx(law, rel=1e-10)

    @given(
        st.floats(min_value=1e-30, max_value=1.0),
        st.floats(min_value=1e-30, max_value=1.0),
        st.integers(min_value=1, max_value=10**12),
    )
    @settings(max_examples=300)
    def test_sum_matches_an_80_digit_evaluation(self, p_l, p_m, k):
        assert_near_exact_bin_law(p_l, p_m, k)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-4, max_value=1.0),
        st.integers(min_value=1, max_value=2 * 10**5),
    )
    @settings(max_examples=100, deadline=None)
    def test_sum_matches_the_term_by_term_loop(self, p_l, p_m, k):
        # the loop rounds s once and raises it to each power: about K ulps
        expected = mps_reference.mps_entanglement(p_l, p_m, k).p_ent_sum
        got = analytic.mps_entanglement(p_l, p_m, k).p_ent_sum
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "p_l,p_m,k",
        [
            pytest.param(0.0, 0.5, 100, id="p_joint-zero"),
            pytest.param(0.5, 0.0, 100, id="p_mid-zero"),
            # s = 1 - 2e-18 + 1e-27 rounds to 1.0
            pytest.param(1e-9, 1e-9, 2 * 10**4, id="survive-rounds-to-one"),
            pytest.param(1.0, 1.0, 5, id="survive-zero"),
            # p_any = p_l + p_l * (1 - p_l) = 1 - 2^-60 rounds to exactly 1.0, where
            # log1p(-1) raises
            pytest.param(1.0 - 2.0**-30, 1.0, 10, id="p_any-rounds-to-one"),
            pytest.param(0.3, 0.7, 1, id="one-attempt"),
            pytest.param(0.0385, 1e-6, 78 * 10**6, id="k-78-million"),
        ],
    )
    def test_sum_pinned_cases(self, p_l, p_m, k):
        assert_near_exact_bin_law(p_l, p_m, k)

    def test_sum_memory_is_bounded_for_large_k(self):
        # survive is within 2e-7 of one: a list of all 2e6 terms alone would
        # take 65 MB, and the closed form keeps none of them
        assert traced_peak_bytes(analytic.mps_entanglement, 1e-4, 1e-3, 2 * 10**6) < 4e6


class TestMpsRate:
    def test_worked_example(self):
        ent = analytic.mps_entanglement(0.5, 1.0, 6)
        bundle = analytic.mps_rate(3, ent, US(100), NS(10))
        assert analytic.round_time(ProtocolKind.MPS, 3, US(100), NS(10), 6).ps == 100_180_000
        assert bundle.rate_per_s == pytest.approx(3 * ent.p_ent_sum / 100.18e-6, rel=1e-15)
        assert bundle.rate_per_s == pytest.approx(9.98e3, rel=1e-3)

    @given(
        st.floats(min_value=0.3, max_value=1.0),
        st.floats(min_value=0.3, max_value=1.0),
        st.sampled_from([None, 50, 200]),
    )
    @settings(max_examples=300)
    def test_symmetric_rate_never_raises(self, p_l, p_m, k):
        # once 1 - s^K rounds to one, p_ent_sum and the bound p_l / (2 - p_l)
        # are the same limit, so the bound must be rounded as the sum is
        k = analytic.mps_attempts_per_bin(p_l, p_m) if k is None else k
        ent = analytic.mps_entanglement(p_l, p_m, k)
        assert ent.p_ent_sum <= ent.upper_bound == pytest.approx(p_l / (2.0 - p_l), rel=1e-15)
        bundle = analytic.mps_rate(10, ent, US(10), NS(1))
        assert bundle.rate_per_s <= bundle.upper_bound_per_s

    def test_rate_at_the_bound(self):
        ent = analytic.mps_entanglement(0.8, 1.0, 200)
        bundle = analytic.mps_rate(10, ent, US(10), NS(1))
        assert bundle.rate_per_s == bundle.upper_bound_per_s

    def test_zero_entanglement(self):
        ent = analytic.mps_entanglement(0.5, 0.0, 6)
        assert analytic.mps_rate(3, ent, US(100), NS(10)).rate_per_s == 0.0

    def test_negative_memory_is_refused(self):
        ent = analytic.mps_entanglement(0.5, 1.0, 6)
        with pytest.raises(ConfigurationError, match="^memory count must be non-negative"):
            analytic.mps_rate(-1, ent, US(100), NS(10))

    def test_bin_utilization_matches_rational_brute_force(self):
        # direct sum with exact fractions: y = 1/2, K = 6
        y = Fraction(1, 2)
        expected = sum(k * y * (1 - y) ** k for k in range(1, 7)) / 6
        assert analytic.mps_bin_utilization(0.5, 1.0, 6) == pytest.approx(float(expected), abs=1e-15)
        assert float(expected) == 0.15625

    @pytest.mark.parametrize("k", [1, 2, 7, 100, 10**4, 10**6, 10**9])
    def test_bin_utilization_matches_an_80_digit_evaluation(self, k):
        # K*y from 1e-9 to 50, across the switch from the series to the closed form
        for x in [10 ** (e / 4) for e in range(-36, 7)] + [1.0, math.nextafter(1.0, 0.0), 50.0]:
            y = x / k
            if y <= 1.0:
                exact = exact_bin_utilization(y, k)
                got = Decimal(analytic.mps_bin_utilization(y, 1.0, k))
                assert abs(got - exact) <= Decimal(1e-12) * exact, (k, x)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-4, max_value=1.0),
        st.integers(min_value=1, max_value=2 * 10**5),
    )
    @settings(max_examples=100, deadline=None)
    def test_bin_utilization_matches_the_blocked_sum(self, p_l, p_m, k):
        expected = mps_reference.bin_utilization(p_l, p_m, k)
        got = analytic.mps_bin_utilization(p_l, p_m, k)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_bin_utilization_memory_is_bounded_for_large_k(self):
        y, k = 1e-4 * 1e-3, 2 * 10**6
        assert traced_peak_bytes(analytic.mps_bin_utilization, 1e-4, 1e-3, k) < 4e6
        # closed form of (1/K) * sum_j j*y*q^j, q = 1 - y, over every block
        q = 1.0 - y
        closed = y * q * (1.0 - q**k * (1.0 + k * (1.0 - q))) / ((1.0 - q) ** 2 * k)
        assert analytic.mps_bin_utilization(1e-4, 1e-3, k) == pytest.approx(closed, rel=1e-9)

    def test_bin_utilization_no_latch_possible(self):
        assert analytic.mps_bin_utilization(0.0, 1.0, 5) == 0.0

    @pytest.mark.parametrize("p_l,p_m,k,message", [
        (0.5, 0.5, -3, r"at least one latch attempt per bin is required"),
        (0.5, 0.5, 0, r"at least one latch attempt per bin is required"),
        (2.0, 1.0, 3, r"p_l must lie in \[0, 1\], got 2.0"),
        (0.5, -0.1, 3, r"p_m must lie in \[0, 1\], got -0.1"),
        (float("nan"), 0.5, 3, r"p_l must lie in \[0, 1\], got nan"),
    ])
    def test_bin_utilization_refuses_what_mps_entanglement_refuses(self, p_l, p_m, k, message):
        for law in (analytic.mps_bin_utilization, analytic.mps_entanglement):
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                law(p_l, p_m, k)

    def test_utilization_within_unit_interval(self):
        for p_l, p_m in [(0.9, 1.0), (0.05, 0.5), (0.3, 0.1)]:
            k = analytic.mps_attempts_per_bin(p_l, p_m)
            ent = analytic.mps_entanglement(p_l, p_m, k)
            bundle = analytic.mps_rate(50, ent, US(50), NS(1))
            assert 0.0 <= bundle.utilization <= 1.0


class TestFastClock:
    def test_crossover_ratio_is_exactly_one(self):
        est = analytic.fast_clock_estimates(100, 0.5, 0.5, US(100))
        assert est.ratio == 1.0

    def test_low_transmission_ratio(self):
        assert analytic.fast_clock_estimates(100, 0.5, 0.1, US(100)).ratio == pytest.approx(5.0)

    def test_consistent_with_full_rate_in_fast_clock_regime(self):
        p_bsa, p_opt = 0.5, 0.4
        est = analytic.fast_clock_estimates(100, p_bsa, p_opt, US(100))
        full = analytic.mitm_rate(100, p_bsa * p_opt**2, US(100), NS(1))
        assert est.r_mitm == pytest.approx(full.rate_per_s, rel=0.01)

    def test_negative_count_is_refused(self):
        with pytest.raises(ConfigurationError, match="^memory count must be non-negative, got -1$"):
            analytic.fast_clock_estimates(-1, 0.5, 0.5, US(10))

    def test_zero_link_delay_is_refused(self):
        with pytest.raises(ConfigurationError, match="^fast-clock estimates need a nonzero link delay$"):
            analytic.fast_clock_estimates(100, 0.5, 0.5, Duration(0))


class TestPurification:
    def test_exact_rational_values(self):
        eps = Fraction(1, 20)
        exact_out = 7 * eps**3 * (1 - eps) ** 4 + eps**7
        exact_success = (1 - eps) ** 7
        bounds = analytic.purification_bounds(0.05, 10)
        assert bounds.epsilon_out == pytest.approx(float(exact_out), abs=1e-12)
        assert bounds.p_success == pytest.approx(float(exact_success), abs=1e-12)
        assert bounds.epsilon_total == pytest.approx(10 * float(exact_out), abs=1e-12)

    def test_perfect_inputs(self):
        bounds = analytic.purification_bounds(0.0, 10)
        assert bounds.epsilon_out == 0.0
        assert bounds.p_success == 1.0
        assert bounds.epsilon_total == 0.0

    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_purification_never_worsens_moderate_errors(self, eps):
        bounds = analytic.purification_bounds(eps, 1)
        assert bounds.epsilon_out <= eps + 1e-15

    def test_negative_link_count_is_refused(self):
        with pytest.raises(ConfigurationError, match="^link count must be non-negative$"):
            analytic.purification_bounds(0.05, -1)


class TestMonotonicity:
    @pytest.mark.parametrize("protocol", ["mitm", "sr", "mps1", "mps01"])
    def test_rates_non_increasing_with_distance(self, protocol):
        from replink.params import (
            link_delay,
            link_success_probability,
            mps_success_probability,
            optical_transmission,
        )

        cycle_time = Duration.from_ns(1)  # the optimistic preset: p_bsa 0.5, interface 1.00 x 0.50
        p_mid = 1.0 if protocol == "mps1" else 0.1
        previous = math.inf
        for km in range(1, 101, 1):
            tau_link = link_delay(km * 1000.0, 1.5)
            p_opt = optical_transmission(1.00, 0.50, km * 1000.0, 22_000.0)
            if protocol == "mitm":
                rate = analytic.mitm_rate(100, link_success_probability(0.5, p_opt), tau_link, cycle_time).rate_per_s
            elif protocol == "sr":
                p = link_success_probability(0.5, p_opt)
                n_sender, n_receiver = analytic.sr_receiver_allocation(100, p)
                rate = analytic.sr_rate(n_sender, n_receiver, p, tau_link, cycle_time).rate_per_s
            else:
                p_side = mps_success_probability(0.5, p_opt)
                k = analytic.mps_attempts_per_bin(p_side, p_mid)
                ent = analytic.mps_entanglement(p_side, p_mid, k)
                rate = analytic.mps_rate(100, ent, tau_link, cycle_time).rate_per_s
            assert rate <= previous + 1e-9
            previous = rate
