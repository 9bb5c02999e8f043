from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ScriptedRng
from protocol_reference import sample_round
from replink import analytic
from replink.engine import LinkModel
from replink.params import ConfigurationError, Duration, MemoryBudget, ProtocolConfig, ProtocolKind
from replink.protocol import (
    RoundOutcome,
    format_trace_entry,
    step_mitm_round,
    step_mps_round,
    step_sr_round,
)

TL = Duration.from_us(10)
TC = Duration.from_ns(1)


def mitm_config(n):
    return ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(n))


def sr_config(n_a, n_b):
    return ProtocolConfig(ProtocolKind.SR, MemoryBudget.sender_receiver(n_a, n_b))


def mps_config(n, k):
    return ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(n), k_attempts=k)


def link(config, p, p_mid=None):
    return LinkModel(config, p, TL, TC, p_mid=p_mid)


class TestMitmMachine:
    def test_single_slot_success(self):
        outcome = step_mitm_round(ScriptedRng([0.1]), 1, 0.5, TL, TC)
        assert outcome == RoundOutcome(((1, 1),), TL + TC)
        assert outcome.entangled_pairs == 1

    def test_certain_herald_succeeds(self):
        assert step_mitm_round(ScriptedRng([0.999]), 1, 1.0, TL, TC).slot_map == ((1, 1),)

    def test_herald_frequency(self):
        outcome = step_mitm_round(np.random.default_rng(123), 100_000, 0.5, TL, TC)
        assert outcome.entangled_pairs / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_hand_traced_three_slots(self):
        # verdict draws: success, failure, success
        rng = ScriptedRng([0.1, 0.9, 0.1])
        outcome = step_mitm_round(rng, 3, 0.5, TL, TC)
        assert outcome.slot_map == ((1, 1), (3, 3))
        assert rng.remaining == 0

    def test_all_failures_confirm_nothing(self):
        outcome = step_mitm_round(ScriptedRng([0.9, 0.9, 0.9]), 3, 0.5, TL, TC)
        assert outcome.entangled_pairs == 0


class TestSrReceiverMachine:
    def test_hand_traced_fail_success_reject(self):
        # latch draws: 0.9 -> fail, 0.1 -> success; third photon finds the
        # memory full and is rejected without a draw
        rng = ScriptedRng([0.9, 0.1])
        outcome = step_sr_round(rng, 3, 1, 0.5, TL, TC)
        assert outcome.slot_map == ((1, 2),)
        assert rng.remaining == 0

    def test_messages_report_fail_success_reject(self):
        rng = ScriptedRng([0.9, 0.1])
        trace = []
        step_sr_round(rng, 3, 1, 0.5, TL, TC, trace=trace)
        # one entry per arrival, then slot 1's confirmation at the round's end
        assert [(slot, trigger) for _, _, slot, _, _, trigger in trace] == [
            (1, "latch_failed"), (1, "latch"), (None, "reject"), (1, "confirm"), (1, "reset"),
        ]

    def test_perfect_latching_fills_in_order(self):
        rng = ScriptedRng([0.0, 0.0, 0.0])
        outcome = step_sr_round(rng, 3, 3, 1.0, TL, TC)
        assert outcome.slot_map == ((1, 1), (2, 2), (3, 3))

    def test_zero_receiver_memory_rejects_everything(self):
        rng = ScriptedRng([])  # no draws may happen at all
        outcome = step_sr_round(rng, 3, 0, 1.0, TL, TC)
        assert outcome.entangled_pairs == 0

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50)
    def test_confirmed_pairs_never_exceed_receiver_memory(self, n_b, n_a, p, seed):
        rng = np.random.default_rng(seed)
        outcome = step_sr_round(rng, max(n_a, n_b), n_b, p, TL, TC)
        assert outcome.entangled_pairs <= n_b


class TestMpsReceiverMachine:
    def test_matching_pair_ids_confirm(self):
        # bin 1: k=1 fails both sides, k=2 latches both -> confirmed
        rng = ScriptedRng([0.0, 0.9, 0.9, 0.0, 0.1, 0.1])
        outcome = step_mps_round(rng, 1, 2, 1.0, 0.5, TL, TC)
        assert outcome.slot_map == ((1, 1),)

    def test_mismatched_pair_ids_discard_the_bin(self):
        # left latches k=2, right keeps failing until k=5
        rng = ScriptedRng([0.0, 0.9, 0.9,  # k=1: both fail
                           0.0, 0.1, 0.9,  # k=2: left latches
                           0.0, 0.9,       # k=3: right only
                           0.0, 0.9,       # k=4
                           0.0, 0.1])      # k=5: right latches
        outcome = step_mps_round(rng, 1, 5, 1.0, 0.5, TL, TC)
        assert outcome.entangled_pairs == 0

    def test_certain_latching_locks_first_attempt(self):
        # per bin: gen+left+right at k=1, then gen-only draws for k=2,3
        rng = ScriptedRng([0.0] * 15)
        outcome = step_mps_round(rng, 3, 3, 1.0, 1.0, TL, TC)
        assert outcome.slot_map == ((1, 1), (2, 2), (3, 3))
        assert rng.remaining == 0

    def test_rejection_message_after_latch(self):
        # attempt 1 latches both sides; attempt 2's photons find the qubits
        # taken and are rejected without a latch draw
        rng = ScriptedRng([0.0, 0.0, 0.0, 0.0])
        trace = []
        step_mps_round(rng, 1, 2, 1.0, 1.0, TL, TC, trace=trace)
        assert [format_trace_entry(entry) for entry in trace[:4]] == [
            "5000000,left,1,free,latched,latch",
            "5000000,right,1,free,latched,latch",
            "5001000,left,1,rejecting,rejecting,reject",
            "5001000,right,1,rejecting,rejecting,reject",
        ]
        assert rng.remaining == 0

    def test_no_photon_means_no_action_and_no_draw(self):
        # the source emits nothing, so only its three generation draws happen
        rng = ScriptedRng([0.9, 0.9, 0.9])
        trace = []
        outcome = step_mps_round(rng, 1, 3, 0.5, 1.0, TL, TC, trace=trace)
        assert outcome.entangled_pairs == 0
        assert trace == []
        assert rng.remaining == 0


class TestProbabilityChecks:
    """A stepper checks its probabilities on entry, so even a round that
    would draw nothing refuses one outside [0, 1]."""

    STEPPERS = {
        "mitm": ("p", lambda p: step_mitm_round(ScriptedRng([]), 0, p, TL, TC)),
        "sr": ("p", lambda p: step_sr_round(ScriptedRng([]), 3, 0, p, TL, TC)),
        "mps-side": ("p_side", lambda p: step_mps_round(ScriptedRng([]), 0, 1, 0.5, p, TL, TC)),
        "mps-source": ("p_mid", lambda p: step_mps_round(ScriptedRng([]), 0, 1, p, 0.5, TL, TC)),
    }

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("stepper", sorted(STEPPERS))
    def test_out_of_range_probability_fails_before_any_draw(self, stepper, p):
        name, step = self.STEPPERS[stepper]
        with pytest.raises(ConfigurationError, match=rf"^{name} must lie in \[0, 1\]"):
            step(p)


class TestSamplerEquivalence:
    """The sampler mirrors the stepped rounds draw for draw."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_mitm_seed_paired(self, p):
        for seed in range(30):
            stepped = step_mitm_round(np.random.default_rng(seed), 4, p, TL, TC)
            sampled = sample_round(np.random.default_rng(seed), link(mitm_config(4), p))
            assert stepped == sampled

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_sr_seed_paired(self, p):
        for seed in range(30):
            stepped = step_sr_round(np.random.default_rng(seed), 4, 2, p, TL, TC)
            sampled = sample_round(np.random.default_rng(seed), link(sr_config(4, 2), p))
            assert stepped == sampled

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_mps_seed_paired(self, p):
        mps = link(mps_config(3, 4), p, p_mid=0.7)
        for seed in range(30):
            stepped = step_mps_round(np.random.default_rng(seed), 3, 4, 0.7, p, TL, TC)
            sampled = sample_round(np.random.default_rng(seed), mps)
            assert stepped == sampled

    def test_sampler_statistics_match_formulas(self):
        rng = np.random.default_rng(999)
        rounds = 100_000
        sr_mean = np.mean(
            [
                sample_round(rng, link(sr_config(2, 1), 0.5)).entangled_pairs
                for _ in range(rounds)
            ]
        )
        assert sr_mean == pytest.approx(0.75, abs=0.01)

    def test_mps_sampler_matches_entanglement_probability(self):
        rng = np.random.default_rng(1234)
        mps = link(mps_config(1, 6), 0.5, p_mid=1.0)
        mean = np.mean(
            [
                sample_round(rng, mps).entangled_pairs
                for _ in range(100_000)
            ]
        )
        assert mean == pytest.approx(0.333252, abs=0.005)

    def test_seed_paired_over_ten_thousand_consecutive_rounds(self):
        # consecutive stepped rounds on one stream against a sampler on a
        # twin stream: every round's outcome must match, not just the first
        rounds = 10_000
        rng_m = np.random.default_rng(31)
        rng_s = np.random.default_rng(31)
        mitm = link(mitm_config(4), 0.3)
        for _ in range(rounds):
            stepped = step_mitm_round(rng_m, 4, 0.3, TL, TC)
            sampled = sample_round(rng_s, mitm)
            assert stepped.slot_map == sampled.slot_map

        rng_m = np.random.default_rng(32)
        rng_s = np.random.default_rng(32)
        sr = link(sr_config(4, 2), 0.3)
        for _ in range(rounds):
            stepped = step_sr_round(rng_m, 4, 2, 0.3, TL, TC)
            sampled = sample_round(rng_s, sr)
            assert stepped.slot_map == sampled.slot_map

        rng_m = np.random.default_rng(33)
        rng_s = np.random.default_rng(33)
        mps = link(mps_config(2, 4), 0.4, p_mid=0.7)
        for _ in range(rounds):
            stepped = step_mps_round(rng_m, 2, 4, 0.7, 0.4, TL, TC)
            sampled = sample_round(rng_s, mps)
            assert stepped.slot_map == sampled.slot_map

    def test_mitm_certain_success_fills_every_slot(self):
        outcome = sample_round(np.random.default_rng(0), link(mitm_config(5), 1.0))
        assert outcome.entangled_pairs == 5

    def test_wall_time_matches_round_time(self):
        config = mps_config(3, 4)
        outcome = sample_round(np.random.default_rng(0), link(config, 0.5, p_mid=0.5))
        assert outcome.wall_time == analytic.round_time(config, TL, TC)


class TestSteppedRoundTrace:
    """Every stepped round's trace keeps the protocol's bookkeeping."""

    NODES = {"mitm": ("alice",), "sr": ("bob",), "mps": ("left", "right")}
    probability = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)

    @given(
        kind=st.sampled_from(sorted(NODES)),
        n=st.integers(min_value=0, max_value=6),
        n_b=st.integers(min_value=0, max_value=8),
        k=st.integers(min_value=1, max_value=4),
        p=probability,
        p_mid=probability,
        tau_link_ps=st.sampled_from([0, 1, 7]) | st.integers(min_value=0, max_value=10**7),
        tau_clock_ps=st.integers(min_value=1, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_slots_chain_from_free_to_free_and_confirm_every_pair(
        self, kind, n, n_b, k, p, p_mid, tau_link_ps, tau_clock_ps, seed
    ):
        tau_link, tau_clock = Duration(tau_link_ps), Duration(tau_clock_ps)
        rng, trace = np.random.default_rng(seed), []
        if kind == "mitm":
            config = mitm_config(n)
            outcome = step_mitm_round(rng, n, p, tau_link, tau_clock, trace=trace)
        elif kind == "sr":
            config = sr_config(n, n_b)
            outcome = step_sr_round(rng, n, n_b, p, tau_link, tau_clock, trace=trace)
        else:
            config = mps_config(n, k)
            outcome = step_mps_round(rng, n, k, p_mid, p, tau_link, tau_clock, trace=trace)

        times = [entry[0] for entry in trace]
        assert times == sorted(times)
        # apart from rejections, each slot's transitions chain from free to free
        transitions = defaultdict(list)
        for _, node, slot, old, new, trigger in trace:
            if trigger != "reject":
                transitions[node, slot].append((old, new))
        for chain in transitions.values():
            assert chain[0][0] == "free" and chain[-1][1] == "free"
            assert all(new == old for (_, new), (old, _) in zip(chain, chain[1:]))
        for node in self.NODES[kind]:
            confirms = [entry for entry in trace if entry[1] == node and entry[5] == "confirm"]
            assert len(confirms) == outcome.entangled_pairs
        # a confirmed midpoint-source bin holds one attempt on both sides
        latched_at = {(node, slot): t for t, node, slot, _, _, trigger in trace if trigger == "latch"}
        for _, node, slot, _, _, trigger in trace:
            if kind == "mps" and trigger == "confirm":
                assert latched_at["left", slot] == latched_at["right", slot]
        assert outcome.wall_time == analytic.round_time(config, tau_link, tau_clock)


def enumerate_mps_bin(k, p_mid, p_side):
    """Exact single-bin confirmation probability by exhaustive branching.

    Also returns the list of (script, probability, entangled) branches, so
    a stepped round can be driven over every path.
    """
    branches = []

    def recurse(attempt, left_k, right_k, prob, script):
        if attempt > k:
            branches.append((tuple(script), prob, left_k is not None and left_k == right_k))
            return
        recurse(attempt + 1, left_k, right_k, prob * (1 - p_mid), script + [1.0])
        unlatched = [(attempt, p_side), (None, 1 - p_side)]
        outcomes_left = unlatched if left_k is None else [(left_k, 1.0)]
        outcomes_right = unlatched if right_k is None else [(right_k, 1.0)]
        for l_k, l_p in outcomes_left:
            for r_k, r_p in outcomes_right:
                piece = [0.0]
                if left_k is None:
                    piece.append(0.0 if l_k == attempt else 1.0)
                if right_k is None:
                    piece.append(0.0 if r_k == attempt else 1.0)
                recurse(
                    attempt + 1,
                    l_k if left_k is None else left_k,
                    r_k if right_k is None else right_k,
                    prob * p_mid * l_p * r_p,
                    script + piece,
                )

    recurse(1, None, None, 1.0, [])
    total = sum(prob for _, prob, entangled in branches if entangled)
    return total, branches


class TestExhaustiveEnumeration:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_formula_matches_exhaustive_branching(self, k):
        p_mid, p_side = 0.6, 0.4
        exact, branches = enumerate_mps_bin(k, p_mid, p_side)
        assert sum(prob for _, prob, _ in branches) == pytest.approx(1.0, abs=1e-12)
        ent = analytic.mps_entanglement(p_side, p_mid, k)
        assert ent.p_ent_sum == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_machines_match_exhaustive_branching(self, k):
        p_mid, p_side = 0.6, 0.4
        exact, branches = enumerate_mps_bin(k, p_mid, p_side)
        machine_total = 0.0
        for script, prob, _ in branches:
            outcome = step_mps_round(ScriptedRng(list(script)), 1, k, p_mid, p_side, TL, TC)
            if outcome.entangled_pairs:
                machine_total += prob
        assert machine_total == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sampler_matches_exhaustive_branching(self, k):
        p_mid, p_side = 0.6, 0.4
        exact, branches = enumerate_mps_bin(k, p_mid, p_side)
        mps = link(mps_config(1, k), p_side, p_mid=p_mid)
        sampler_total = 0.0
        for script, prob, _ in branches:
            outcome = sample_round(ScriptedRng(list(script)), mps)
            if outcome.entangled_pairs:
                sampler_total += prob
        assert sampler_total == pytest.approx(exact, abs=1e-12)


class TestDeterminism:
    def test_identical_seeds_produce_identical_traces(self):
        def run(seed):
            trace = []
            step_mps_round(np.random.default_rng(seed), 2, 3, 0.8, 0.5, TL, TC, trace=trace)
            return trace

        assert run(7) == run(7)
        trace_a, trace_b = run(7), run(8)
        assert trace_a != trace_b or trace_a == trace_b  # both runs legal; equality by chance ok

    def test_sr_trace_reproducible(self):
        def run():
            trace = []
            step_sr_round(np.random.default_rng(5), 4, 2, 0.5, TL, TC, trace=trace)
            return trace

        assert run() == run()

    # One small seeded round per protocol, pinned line for line. At
    # tau_link = 0 an emission, its arrival and its analyzer message share
    # a picosecond, so only the drivers' tie-break keeps the round legal.
    PINNED_ROUNDS = {
        "mitm": (
            lambda trace: step_mitm_round(np.random.default_rng(11), 3, 0.5, TL, TC, trace=trace),
            RoundOutcome(((1, 1), (2, 2)), Duration(10_003_000)),
            [
                "0,alice,1,free,photon_emitted,emit",
                "1000,alice,2,free,photon_emitted,emit",
                "2000,alice,3,free,photon_emitted,emit",
                "10003000,alice,1,photon_emitted,confirmed_entangled,confirm",
                "10003000,alice,1,confirmed_entangled,free,reset",
                "10003000,alice,2,photon_emitted,confirmed_entangled,confirm",
                "10003000,alice,2,confirmed_entangled,free,reset",
                "10003000,alice,3,photon_emitted,free,reset",
            ],
        ),
        "sr": (
            lambda trace: step_sr_round(np.random.default_rng(12), 4, 2, 0.5, TL, TC, trace=trace),
            RoundOutcome(((1, 1), (2, 3)), Duration(20_004_000)),
            [
                "10000000,bob,1,free,latched,latch",
                "10001000,bob,2,free,free,latch_failed",
                "10002000,bob,2,free,latched,latch",
                "10003000,bob,-,rejecting,rejecting,reject",
                "20004000,bob,1,latched,confirmed_entangled,confirm",
                "20004000,bob,1,confirmed_entangled,free,reset",
                "20004000,bob,2,latched,confirmed_entangled,confirm",
                "20004000,bob,2,confirmed_entangled,free,reset",
            ],
        ),
        "mps": (
            lambda trace: step_mps_round(
                np.random.default_rng(0), 3, 3, 0.8, 0.5, TL, TC, trace=trace
            ),
            RoundOutcome(((1, 1),), Duration(10_009_000)),
            [
                "5000000,left,1,free,latched,latch",
                "5000000,right,1,free,latched,latch",
                "5001000,left,1,rejecting,rejecting,reject",
                "5001000,right,1,rejecting,rejecting,reject",
                "5004000,left,2,free,free,latch_failed",
                "5004000,right,2,free,free,latch_failed",
                "5007000,left,3,free,free,latch_failed",
                "5007000,right,3,free,latched,latch",
                "5008000,left,3,free,latched,latch",
                "5008000,right,3,rejecting,rejecting,reject",
                "10009000,left,1,latched,confirmed_entangled,confirm",
                "10009000,left,1,confirmed_entangled,free,reset",
                "10009000,left,3,latched,free,discard",
                "10009000,right,1,latched,confirmed_entangled,confirm",
                "10009000,right,1,confirmed_entangled,free,reset",
                "10009000,right,3,latched,free,discard",
            ],
        ),
        "mitm-zero-link-delay": (
            lambda trace: step_mitm_round(
                np.random.default_rng(11), 3, 0.5, Duration(0), TC, trace=trace
            ),
            RoundOutcome(((1, 1), (2, 2)), Duration(3000)),
            [
                "0,alice,1,free,photon_emitted,emit",
                "1000,alice,2,free,photon_emitted,emit",
                "2000,alice,3,free,photon_emitted,emit",
                "3000,alice,1,photon_emitted,confirmed_entangled,confirm",
                "3000,alice,1,confirmed_entangled,free,reset",
                "3000,alice,2,photon_emitted,confirmed_entangled,confirm",
                "3000,alice,2,confirmed_entangled,free,reset",
                "3000,alice,3,photon_emitted,free,reset",
            ],
        ),
        "sr-zero-link-delay": (
            lambda trace: step_sr_round(
                np.random.default_rng(12), 4, 2, 0.5, Duration(0), TC, trace=trace
            ),
            RoundOutcome(((1, 1), (2, 3)), Duration(4000)),
            [
                "0,bob,1,free,latched,latch",
                "1000,bob,2,free,free,latch_failed",
                "2000,bob,2,free,latched,latch",
                "3000,bob,-,rejecting,rejecting,reject",
                "4000,bob,1,latched,confirmed_entangled,confirm",
                "4000,bob,1,confirmed_entangled,free,reset",
                "4000,bob,2,latched,confirmed_entangled,confirm",
                "4000,bob,2,confirmed_entangled,free,reset",
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_ROUNDS))
    def test_pinned_round_trace_and_outcome(self, case):
        step, outcome, lines = self.PINNED_ROUNDS[case]
        trace = []
        assert step(trace) == outcome
        assert [format_trace_entry(entry) for entry in trace] == lines
