import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as scipy_stats

import chain_reference
from chain_reference import EventQueue, purify
from conftest import chi2_homogeneity_pvalue
from protocol_reference import sample_round
from replink import analytic, cli, engine
from replink.engine import (
    ChainModel,
    LinkModel,
    PurificationPolicy,
    run_chain_trials,
    run_link_trial,
    run_link_trials,
    sample_round_counts,
    summarize,
)
from replink.params import (
    ConfigurationError,
    Duration,
    MemoryBudget,
    ProtocolConfig,
    ProtocolKind,
)

US = Duration.from_us
NS = Duration.from_ns

MITM_LINK = LinkModel(
    ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(100)),
    0.05,
    tau_link=US(100),
    tau_clock=NS(1),
)
SR_LINK = LinkModel(
    ProtocolConfig(ProtocolKind.SR, MemoryBudget.sender_receiver(6, 2)),
    0.4,
    tau_link=US(10),
    tau_clock=NS(1),
)
SR_UNCAPPED_LINK = LinkModel(
    ProtocolConfig(ProtocolKind.SR, MemoryBudget.sender_receiver(4, 6)),
    0.4,
    tau_link=US(10),
    tau_clock=NS(1),
)
MPS_LINK = LinkModel(
    ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(3)),
    0.5,
    tau_link=US(10),
    tau_clock=NS(10),
    p_mid=1.0,
    k_attempts=6,
)


class TestEventQueue:
    """The reference loop's queue, whose tie order the engine reproduces."""

    def test_pop_order_and_tie_breaking(self):
        queue = EventQueue()
        queue.push(5, "a")
        queue.push(1, "b")
        queue.push(5, "c")
        queue.push(0, "d")
        popped = [queue.pop() for _ in range(4)]
        assert [p[2] for p in popped] == ["d", "b", "a", "c"]
        times = [p[0] for p in popped]
        assert times == sorted(times)

    def test_sequences_unique_and_increasing(self):
        queue = EventQueue()
        for t in (3, 3, 3):
            queue.push(t, None)
        seqs = [queue.pop()[1] for t in range(3)]
        assert len(set(seqs)) == 3 and seqs == sorted(seqs)

    def test_empty_pop(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_always_non_decreasing(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, t)
        out = [queue.pop() for _ in times]
        assert [o[0] for o in out] == sorted(times)


def _law_link(slots, p, cap):
    """A model whose rounds confirm min(Binomial(slots, p), cap) pairs."""
    budget = MemoryBudget.sender_receiver(slots, cap)
    return LinkModel(ProtocolConfig(ProtocolKind.SR, budget), p, US(10), NS(1))


def round_law_pvalue(counts, slots, p, cap):
    """Chi-squared goodness of fit of round counts to min(Binomial(slots, p), cap)
    as scipy evaluates it; cells expecting fewer than 5 counts join a neighbour.
    A law on one count is 1 if every count is that count, else 0."""
    top = min(slots, cap)
    expected = scipy_stats.binom.pmf(np.arange(top + 1), slots, p)
    expected[top] = scipy_stats.binom.sf(top - 1, slots, p)
    observed = np.bincount(counts, minlength=top + 1)
    assert len(observed) == top + 1, "a count above the cap"
    # the far tails join the first and last count that is drawn or expected
    kept = np.flatnonzero((observed > 0) | (expected * len(counts) > 1e-9))
    lo, hi = kept[0], kept[-1] + 1
    observed, expected = (
        np.concatenate(([a[:lo].sum()], a[lo:hi], [a[hi:].sum()])) for a in (observed, expected)
    )
    cells, pending = [], np.zeros(2)
    for cell in zip(observed, expected * len(counts)):
        pending += cell
        if pending[1] >= 5:
            cells.append(pending)
            pending = np.zeros(2)
    if cells:
        cells[-1] = cells[-1] + pending
    else:
        cells = [pending]
    observed, expected = np.array(cells).T
    if len(cells) == 1:
        return float(observed[0] == len(counts))
    # the merged expectations sum to len(counts) up to rounding, which scipy checks
    return float(scipy_stats.chisquare(observed, expected / expected.sum() * len(counts)).pvalue)


class TestLinkModel:
    CONFIGS = {"mitm": MITM_LINK.config, "sr": SR_LINK.config, "mps": MPS_LINK.config}

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_p_mid_goes_with_mps_links_and_only_with_them(self, kind):
        config = self.CONFIGS[kind]
        wrong = None if kind == "mps" else 0.5
        k = 2 if kind == "mps" else None
        with pytest.raises(ConfigurationError, match=f"^p_mid goes with mps links .* for {kind}$"):
            LinkModel(config, 0.5, US(10), NS(1), p_mid=wrong, k_attempts=k)
        LinkModel(config, 0.5, US(10), NS(1), p_mid=0.5 if wrong is None else None, k_attempts=k)

    def test_k_attempts_goes_with_mps_links_and_only_with_them(self):
        with pytest.raises(ConfigurationError, match="^k_attempts goes with mps links .* for mitm$"):
            LinkModel(MITM_LINK.config, 0.5, US(10), NS(1), k_attempts=5)
        with pytest.raises(ConfigurationError, match="^k_attempts goes with mps links .* for mps$"):
            LinkModel(MPS_LINK.config, 0.5, US(10), NS(1), p_mid=0.5)
        with pytest.raises(ConfigurationError, match="^an mps link needs k_attempts >= 1 .*, got 0$"):
            LinkModel(MPS_LINK.config, 0.5, US(10), NS(1), p_mid=0.5, k_attempts=0)

    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
    def test_probabilities_are_checked_at_construction(self, value):
        with pytest.raises(ConfigurationError, match="^p must lie in"):
            LinkModel(MITM_LINK.config, value, US(10), NS(1))
        with pytest.raises(ConfigurationError, match="^p_mid must lie in"):
            LinkModel(MPS_LINK.config, 0.5, US(10), NS(1), p_mid=value, k_attempts=6)


class TestBatchSampler:
    """The vectorized per-round counts match the explicit sampler."""

    @pytest.mark.parametrize(
        "link,seed",
        [(MITM_LINK, 0), (SR_LINK, 1), (MPS_LINK, 2)],
        ids=["mitm", "sr", "mps"],
    )
    def test_counts_distribution_matches_sample_round(self, link, seed):
        rounds = 20_000
        batch = sample_round_counts(np.random.default_rng(seed), link, rounds)
        rng = np.random.default_rng(seed + 1000)
        explicit = [
            len(sample_round(rng, link)) for _ in range(rounds)
        ]
        assert chi2_homogeneity_pvalue(batch, explicit) > 0.01

    def test_mps_zero_rate_cases(self):
        dead = LinkModel(
            ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(3)),
            0.5,
            tau_link=US(10),
            tau_clock=NS(10),
            p_mid=0.0,
            k_attempts=6,
        )
        counts = sample_round_counts(np.random.default_rng(0), dead, 100)
        assert counts.sum() == 0

    def test_mitm_mean_tracks_binomial(self):
        counts = sample_round_counts(np.random.default_rng(3), MITM_LINK, 50_000)
        assert counts.mean() == pytest.approx(100 * 0.05, rel=0.02)

    @pytest.mark.parametrize("link", [MITM_LINK, SR_LINK, MPS_LINK], ids=["mitm", "sr", "mps"])
    def test_draw_takes_one_uniform_per_count(self, link):
        rng = np.random.default_rng(9)
        counts = sample_round_counts(rng, link, 1000)
        reference = np.random.default_rng(9)
        uniforms = reference.random(1000)
        assert rng.bit_generator.state == reference.bit_generator.state
        # each count is the smallest whose cdf, as scipy evaluates it, exceeds its uniform
        slots, p, cap = link.round_law
        cdf = scipy_stats.binom.cdf(np.arange(min(slots, cap) + 1), slots, p)
        cdf[-1] = 1.0  # every count above the cap confirms cap pairs
        assert counts.tolist() == np.searchsorted(cdf, uniforms, side="right").tolist()

    @pytest.mark.parametrize(
        "slots,p,cap",
        [
            (100, 0.05, 100),  # MITM_LINK
            (3, MPS_LINK.round_law[1], 3),  # MPS_LINK
            (6, 0.4, 2),  # SR_LINK, capped
            (1000, 0.3, 1000),  # slots * p past 30
            (40, 0.8, 40),  # p past one half
            (200, 0.3, 55),  # a cap inside the bulk
            (97, 0.0, 97),
            (97, 1.0, 97),
            (6, 1.0, 2),
        ],
        ids=["mitm", "mps", "sr-capped", "wide", "p-past-half", "cap-in-bulk",
             "p-zero", "p-one", "p-one-capped"],
    )
    def test_counts_follow_the_exact_round_law(self, slots, p, cap):
        link = _law_link(slots, p, cap)
        counts = sample_round_counts(np.random.default_rng(17), link, 200_000)
        assert round_law_pvalue(counts, slots, p, cap) > 1e-3

    @pytest.mark.parametrize("protocol_name", ["mitm", "sr", "mps", "widest"])
    def test_largest_memory_table_grows_with_the_spread(self, protocol_name):
        # a fig8 chain link at the CLI's largest --n, and the widest law past it:
        # the most sender slots that budget can give, at p = 1/2
        widest = 2 * cli._MAX_MEMORY_N - 1
        if protocol_name == "widest":
            link = _law_link(widest, 0.5, widest)
        else:
            argv = ["--preset", "fig8-optimistic", "--protocol", protocol_name,
                    "--n", str(cli._MAX_MEMORY_N), "--distances", "10"]
            argv += ["--p-mid", "1"] if protocol_name == "mps" else []
            link = cli.build_chain_model(cli.parse_scenario(argv, env={})[0], 10.0).link
        slots, p, cap = link.round_law
        assert slots > cli._MAX_MEMORY_N // 2
        offset, cdf, guide = link.round_table
        sigma = math.sqrt(slots * p * (1 - p))
        assert len(cdf) <= 80 * (sigma + 1)
        assert 8 * len(cdf) <= len(guide) <= min(16 * len(cdf), 2**18)
        counts = sample_round_counts(np.random.default_rng(3), link, 100_000)
        assert round_law_pvalue(counts, slots, p, cap) > 1e-3

    def test_mps_bin_law_is_derived_once_at_the_first_draw(self, monkeypatch):
        calls = []
        original = analytic.mps_entanglement

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(analytic, "mps_entanglement", counted)
        scenario, _ = cli.parse_scenario(
            ["--protocol", "mps", "--preset", "fig8-optimistic", "--p-mid", "0.1"], env={}
        )
        chain = cli.build_chain_model(scenario, 10.0)
        assert chain.link_count == scenario.link_count == 10
        assert calls == []
        duration = 20 * chain.link.tau_link
        for seed in (1, 2):
            run_chain_trials(chain, duration, seed, 2)
        assert len(calls) == 1


def trial_rate(link, duration, seed):
    """The rate of ``run_link_trial``'s one trial, pairs per second."""
    events, elapsed = run_link_trial(link, duration, seed)
    return events / elapsed.seconds


class TestLinkTrial:
    def test_duration_shorter_than_a_round_is_rejected(self):
        with pytest.raises(ConfigurationError, match="shorter than one round"):
            run_link_trial(MITM_LINK, Duration(0), seed=1)
        with pytest.raises(ConfigurationError, match="shorter than one round"):
            run_link_trial(MITM_LINK, US(50), seed=1)

    def test_a_round_of_zero_length_is_refused(self):
        # an empty mitm round over a link of no delay: the model builds, its round does not
        empty = LinkModel(
            ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(0)), 0.5, Duration(0), NS(1)
        )
        with pytest.raises(ConfigurationError, match="^round time is zero; nothing can be scheduled$"):
            run_link_trial(empty, US(10), seed=1)
        with pytest.raises(ConfigurationError, match="^round time is zero; nothing can be scheduled$"):
            engine.run_chain_trial(small_chain(empty, 2), US(10), np.random.default_rng(1))

    def test_deterministic_for_fixed_seed(self):
        a = run_link_trial(MITM_LINK, US(100_000), seed=77)
        b = run_link_trial(MITM_LINK, US(100_000), seed=77)
        assert a == b
        c = run_link_trial(MITM_LINK, US(100_000), seed=78)
        assert a[0] != c[0]

    def test_whole_rounds_only(self):
        _, elapsed = run_link_trial(MITM_LINK, US(250), seed=1)
        # round time 100.1 us -> exactly two rounds fit
        assert elapsed.ps == 2 * MITM_LINK.round_time.ps

    def test_mean_rate_within_three_standard_errors_of_formula(self):
        oracle = analytic.mitm_rate(100, 0.05, US(100), NS(1)).rate_per_s
        duration = 1000 * US(100)
        values = np.array([trial_rate(MITM_LINK, duration, seed) for seed in range(100)])
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - oracle) <= 3 * se

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.125])
    @pytest.mark.parametrize("kind", ["mitm", "sr", "mps"])
    def test_all_protocols_track_their_formulas(self, kind, p):
        tau_link, tau_clock = US(100), NS(1)
        if kind == "mitm":
            link = LinkModel(
                ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(100)),
                p, tau_link, tau_clock,
            )
            oracle = analytic.mitm_rate(100, p, tau_link, tau_clock).rate_per_s
        elif kind == "sr":
            n_sender, n_receiver = analytic.sr_receiver_allocation(100, p)
            budget = MemoryBudget.sender_receiver(n_sender, n_receiver)
            link = LinkModel(ProtocolConfig(ProtocolKind.SR, budget), p, tau_link, tau_clock)
            oracle = analytic.sr_rate(n_sender, n_receiver, p, tau_link, tau_clock).rate_per_s
        else:
            k = analytic.mps_attempts_per_bin(p, 1.0)
            link = LinkModel(
                ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(100)),
                p, tau_link, tau_clock, p_mid=1.0, k_attempts=k,
            )
            ent = analytic.mps_entanglement(p, 1.0, k)
            oracle = analytic.mps_rate(100, ent, tau_link, tau_clock).rate_per_s
        duration = 1000 * tau_link
        values = np.array([trial_rate(link, duration, seed) for seed in range(100)])
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - oracle) <= 3 * se

    @pytest.mark.parametrize(
        "link",
        [MITM_LINK, MPS_LINK, SR_LINK, SR_UNCAPPED_LINK],
        ids=["mitm", "mps", "sr-capped", "sr-uncapped"],
    )
    def test_trial_total_has_the_summed_round_law(self, link):
        # the trial's one draw (or capped sum), alone on its seed's stream and as
        # one of a cell's trials, against per-round counts summed over
        # independent streams
        n_rounds, trials = 20, 2000
        duration = n_rounds * link.round_time
        totals = [run_link_trial(link, duration, seed)[0] for seed in range(trials)]
        cell, _ = run_link_trials(link, duration, 0, trials)  # the same trials from one stream
        summed = [
            int(sample_round_counts(np.random.default_rng([seed, 7]), link, n_rounds).sum())
            for seed in range(trials)
        ]
        assert chi2_homogeneity_pvalue(totals, summed) > 0.01
        assert chi2_homogeneity_pvalue(cell.tolist(), summed) > 0.01

    def test_gate_catches_a_round_law_that_loses_pairs(self, monkeypatch):
        # The benchmark gate's statistical check, read from perfbench/gate.py,
        # must fail fig10-qd rows once every round confirms a fifth fewer pairs.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import gate

        def rows_within_bound(protocol_args):
            scenario, _ = cli.parse_scenario(
                ["--preset", "fig10-qd", "--trials", "100", "--seed", "5", "--analytic"]
                + protocol_args,
                env={},
            )
            rows = cli.run_sweep(scenario, progress=io.StringIO())
            trial_s = gate.single_link_trial_seconds(
                scenario.duration_in_tau_link, scenario.refractive_index
            )
            return [
                gate.mean_within_bound(
                    mc.mean_rate_per_s, overlay.mean_rate_per_s, mc.trials, trial_s[mc.link_km]
                )
                for mc, overlay in zip(rows[::2], rows[1::2])
            ]

        variants = (["--protocol", "mitm"], ["--protocol", "mps", "--p-mid", "1.0"])
        assert all(all(rows_within_bound(v)) for v in variants)
        law = LinkModel.round_law.func

        def lossy(link):
            slots, p, cap = law(link)
            return slots, 0.8 * p, cap

        monkeypatch.setattr(LinkModel, "round_law", property(lossy))
        assert not any(any(rows_within_bound(v)) for v in variants)

    def test_disjoint_seeds_share_no_generator_state(self):
        duration = US(100_000)
        first = run_link_trial(MITM_LINK, duration, seed=1)
        run_link_trial(MITM_LINK, duration, seed=2)
        again = run_link_trial(MITM_LINK, duration, seed=1)
        assert first == again
        chain, duration = _figure_chain(["--preset", "fig9-pessimistic", "--protocol", "mps",
                                         "--p-mid", "0.1"], 30.0)
        # other base seeds evict the cached state between the cells at seed 5,
        # and each still draws the fresh stream default_rng([5, 0])
        engine._seeded_state.cache_clear()
        cold = run_chain_trials(chain, duration, 5, 3)
        for seed in (4, 6, 7):
            run_chain_trials(chain, duration, seed, 2)
        after_others = run_chain_trials(chain, duration, 5, 3)
        warm = run_chain_trials(chain, duration, 5, 3)
        assert cold == after_others == warm
        assert cold == chain_reference.run_chain_trials(chain, duration, 5, 3)


def _reference_link_trials(link, duration, seed, trials):
    """A cell's pairs, trial after trial from its one ``default_rng([seed, 0])``:
    one binomial for all of a trial's rounds where the cap cannot bind, else
    the trial's capped rounds summed, one uniform each."""
    n_rounds = duration.ps // link.round_time.ps
    slots, p, cap = link.round_law
    rng = np.random.default_rng([seed, 0])
    totals = []
    for _ in range(trials):
        if cap >= slots:
            totals.append(int(rng.binomial(n_rounds * slots, p)))
        else:
            totals.append(int(sample_round_counts(rng, link, n_rounds).sum()))
    return totals, n_rounds * link.round_time


LINKS = pytest.mark.parametrize(
    "link",
    [MITM_LINK, MPS_LINK, SR_UNCAPPED_LINK, SR_LINK],
    ids=["mitm", "mps", "sr-uncapped", "sr-capped"],
)


class TestLinkTrials:
    """A sweep cell's trials against one stream per cell built here."""

    @LINKS
    def test_batch_draws_each_seeds_own_stream(self, link):
        # each cell draws from its base seed's stream: unsorted, repeated and
        # past 2**64 base seeds, with the seed cache cold then warm
        seeds = [9, 2, 2**64 + 3, 0, 9, 2**70, 1]
        duration = 40 * link.round_time + Duration(1)
        engine._seeded_state.cache_clear()
        for _ in ("cold", "warm"):
            for seed in seeds:
                expected, elapsed = _reference_link_trials(link, duration, seed, 7)
                events, batch_elapsed = run_link_trials(link, duration, seed, 7)
                assert events.dtype == np.int64
                assert events.tolist() == expected
                assert batch_elapsed == elapsed == 40 * link.round_time

    @given(
        st.sampled_from([MITM_LINK, MPS_LINK, SR_UNCAPPED_LINK, SR_LINK]),
        st.integers(1, 200),
        st.one_of(st.integers(0, 50), st.integers(0, 2**70)),
        st.integers(1, 20),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_cell_rates_are_the_per_trial_rates(self, link, n_rounds, seed, trials, data):
        # the sweep's array division against each trial's own int / float rate
        duration = n_rounds * link.round_time
        expected, elapsed = _reference_link_trials(link, duration, seed, trials)
        per_trial = [events / elapsed.seconds for events in expected]
        events, batch_elapsed = run_link_trials(link, duration, seed, trials)
        assert (events / batch_elapsed.seconds).tolist() == per_trial
        # a cell's first k trials are its k-trial cell, and its first is the
        # seed's one trial
        k = data.draw(st.integers(1, trials))
        assert run_link_trials(link, duration, seed, k)[0].tolist() == events[:k].tolist()
        assert trial_rate(link, duration, seed) == per_trial[0]

    @LINKS
    def test_adjacent_base_seeds_share_no_trials(self, link):
        # a cell at base seed b + 1 is not the cell at b shifted by one trial
        duration = 40 * link.round_time
        for base in (0, 41, 2**64 - 1):
            first, _ = run_link_trials(link, duration, base, 100)
            second, _ = run_link_trials(link, duration, base + 1, 100)
            assert first[1:].tolist() != second[:-1].tolist()
            assert first[:-1].tolist() != second[1:].tolist()


def _figure_chain(argv, distance):
    """A preset chain at one distance and its trial duration, as a sweep builds them."""
    scenario, _ = cli.parse_scenario(argv + ["--distances", str(distance)], env={})
    chain = cli.build_chain_model(scenario, distance)
    return chain, scenario.duration_in_tau_link * chain.link.tau_link


def _stream_draws(rng, n, p, size):
    return rng.binomial(n, p, size=size), rng.random(size)


class TestTrialStreams:
    """The engine's cached seeding against a fresh ``default_rng([seed, 0])``."""

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 3), st.integers(2**64 - 2, 2**64 + 2),
                          st.integers(0, 2**100)),
                st.sampled_from([1, 7, 100, 10_000]),
                st.one_of(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 1.0]), st.floats(0.0, 1.0)),
                st.integers(1, 40),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200)
    def test_interleaved_requests_draw_fresh_streams(self, requests):
        for seed, n, p, size in requests:
            binomial, uniform = _stream_draws(engine._cell_rng(seed), n, p, size)
            fresh_binomial, fresh_uniform = _stream_draws(
                np.random.default_rng([seed, 0]), n, p, size
            )
            assert binomial.tolist() == fresh_binomial.tolist()
            assert uniform.tolist() == fresh_uniform.tolist()

    def test_evicted_and_cached_keys_draw_fresh_streams(self):
        # the cache holds the last base seed's state: a repeat hits, and a seed
        # evicted by another is seeded afresh
        engine._seeded_state.cache_clear()
        for seed, cached in ((1, False), (1, True), (2**64 + 5, False), (1, False), (1, True)):
            hits = engine._seeded_state.cache_info().hits
            draws = _stream_draws(engine._cell_rng(seed), 100, 0.05, 20)
            assert (engine._seeded_state.cache_info().hits > hits) is cached
            fresh = _stream_draws(np.random.default_rng([seed, 0]), 100, 0.05, 20)
            assert [d.tolist() for d in draws] == [f.tolist() for f in fresh]
        info = engine._seeded_state.cache_info()
        assert info.currsize == info.maxsize == 1

    def test_pinned_chain_trials(self):
        # a two-trial cell's values at seed 1, taken from tests/chain_reference.py,
        # so that any change to the stream fails here; link 0's rounds of trial 0
        # are the stream's first draws
        chain, duration = _figure_chain(["--preset", "fig8-optimistic", "--protocol", "mitm"], 10.0)
        first, second = run_chain_trials(chain, duration, 1, 2)
        assert first == engine.ChainTrialStats(
            end_to_end_ebits=619,
            per_link_purified_counts=(768, 745, 759, 773, 765, 820, 787, 758, 782, 749),
            raw_pairs=(7728, 7673, 7522, 7730, 7632, 7850, 7838, 7665, 7772, 7559),
            purify_attempts=(1104, 1096, 1074, 1104, 1090, 1121, 1119, 1095, 1110, 1079),
            raw_expired=(0,) * 10,
            raw_pending=(0, 1, 4, 2, 2, 3, 5, 0, 2, 6),
            purified_discarded=(148, 124, 139, 152, 146, 201, 166, 136, 160, 129),
            purified_pending=(1, 2, 1, 2, 0, 0, 2, 3, 3, 1),
        )
        assert (second.end_to_end_ebits, second.raw_pairs) == (
            626, (7659, 7660, 7737, 7634, 7714, 7658, 7845, 7595, 7694, 7701)
        )
        chain, duration = _figure_chain(
            ["--preset", "fig9-pessimistic", "--protocol", "mps", "--p-mid", "0.1"], 30.0
        )
        first, second = run_chain_trials(chain, duration, 1, 2)
        assert first == engine.ChainTrialStats(
            end_to_end_ebits=0,
            per_link_purified_counts=(1, 0, 2, 5, 1, 2, 0, 1, 1, 0),
            raw_pairs=(52, 44, 51, 64, 55, 61, 38, 48, 50, 44),
            purify_attempts=(1, 0, 3, 5, 2, 3, 0, 1, 2, 0),
            raw_expired=(43, 41, 26, 26, 36, 35, 35, 39, 35, 41),
            raw_pending=(2, 3, 4, 3, 5, 5, 3, 2, 1, 3),
            purified_discarded=(0, 0, 0, 2, 0, 0, 0, 0, 0, 0),
            purified_pending=(1, 0, 2, 3, 1, 2, 0, 1, 1, 0),
        )
        assert (second.end_to_end_ebits, second.raw_pairs) == (
            0, (53, 42, 56, 44, 64, 39, 69, 42, 50, 53)
        )

    def test_pinned_link_trial(self):
        scenario, _ = cli.parse_scenario(
            ["--preset", "fig10-qd", "--protocol", "mitm", "--distances", "10"], env={}
        )
        link = cli.build_link_model(scenario, 10.0)
        duration = scenario.duration_in_tau_link * link.tau_link
        assert run_link_trial(link, duration, 1) == (1124, Duration(ps=500345752316))
        # a sender-receiver link whose cap can bind still sums its rounds' counts
        scenario, _ = cli.parse_scenario(
            ["--preset", "fig10-qd", "--protocol", "sr", "--n", "100", "--distances", "10"],
            env={},
        )
        link = cli.build_link_model(scenario, 10.0)
        assert link.round_law[2] < link.round_law[0]
        duration = scenario.duration_in_tau_link * link.tau_link
        assert run_link_trial(link, duration, 1) == (34629, Duration(ps=500268651024))


class TestPurify:
    """The reference loop's per-group purification step."""

    def test_perfect_inputs_always_succeed(self):
        result = purify(tuple(range(7)), 0.0, np.random.default_rng(0))
        assert result is not None and result.error == 0.0

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigurationError, match="exactly 7"):
            purify(tuple(range(6)), 0.05, np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="exactly 7"):
            purify(tuple(range(8)), 0.05, np.random.default_rng(0))

    def test_empirical_success_frequency(self):
        rng = np.random.default_rng(42)
        pairs = tuple(range(7))
        hits = sum(purify(pairs, 0.05, rng) is not None for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(0.95**7, abs=0.01)

    def test_survivor_carries_reduced_error(self):
        bounds = analytic.purification_bounds(0.05, 1)
        result = purify(tuple(range(7)), 0.05, np.random.default_rng(1))
        assert result is None or result.error == bounds.epsilon_out


def assert_conserved(stats):
    for i in range(len(stats.raw_pairs)):
        assert stats.raw_pairs[i] == (
            engine.PAIRS_PER_PURIFICATION * stats.purify_attempts[i]
            + stats.raw_expired[i]
            + stats.raw_pending[i]
        )
        assert stats.per_link_purified_counts[i] == (
            stats.end_to_end_ebits + stats.purified_pending[i] + stats.purified_discarded[i]
        )


def small_chain(link, n_links, lifetime=Duration.from_ms(10)):
    policy = PurificationPolicy(epsilon_in=0.05, buffer_capacity=3, raw_pair_lifetime=lifetime)
    return ChainModel(link, n_links, policy)


class TestChainModel:
    @pytest.mark.parametrize("link_count", [0, -1])
    def test_a_chain_needs_a_link(self, link_count):
        with pytest.raises(ConfigurationError, match="^a chain needs at least one link$"):
            small_chain(MITM_LINK, link_count)

    @pytest.mark.parametrize("link_count", [1, 4])
    def test_links_repeat_the_one_link(self, link_count):
        chain = small_chain(MITM_LINK, link_count)
        assert chain.links == (MITM_LINK,) * link_count

    def test_negative_buffer_capacity_is_refused(self):
        with pytest.raises(ConfigurationError, match="^buffer_capacity must be non-negative, got -1$"):
            PurificationPolicy(epsilon_in=0.05, buffer_capacity=-1, raw_pair_lifetime=None)
        # no buffer at all stays valid: the property tests build such chains
        PurificationPolicy(epsilon_in=0.05, buffer_capacity=0, raw_pair_lifetime=None)

    def test_purification_that_never_succeeds_is_refused(self):
        policy = PurificationPolicy(epsilon_in=1, buffer_capacity=3, raw_pair_lifetime=None)
        with pytest.raises(
            ConfigurationError,
            match=r"^purification is impossible when \(1 - epsilon_in\)\^7 = 0 \(epsilon_in = 1\)$",
        ):
            ChainModel(MITM_LINK, 2, policy)

    def test_chain_facts_are_derived_once(self, monkeypatch):
        policy = PurificationPolicy(epsilon_in=0.05, buffer_capacity=3, raw_pair_lifetime=US(250))
        chain = ChainModel(MITM_LINK, 3, policy)
        assert chain.bounds == analytic.purification_bounds(0.05, 3)
        assert chain.lag == US(250).ps // MITM_LINK.round_time.ps == 2
        assert small_chain(MITM_LINK, 3, lifetime=None).lag is None
        # a sweep cell of several trials derives them once per built model
        calls = []
        original = analytic.purification_bounds
        monkeypatch.setattr(
            analytic, "purification_bounds", lambda *args: calls.append(args) or original(*args)
        )
        scenario, _ = cli.parse_scenario(
            ["--protocol", "mitm", "--preset", "fig9-pessimistic", "--links", "3",
             "--trials", "4", "--distances", "5,10"], env={},
        )
        rows = cli.run_sweep(scenario, progress=io.StringIO())
        assert [row.trials for row in rows] == [4, 4]
        assert calls == [(scenario.epsilon_in, 3)] * 2

    def test_built_from_the_scenario(self):
        scenario, _ = cli.parse_scenario(
            ["--protocol", "sr", "--preset", "fig9-pessimistic", "--links", "3"], env={}
        )
        chain = cli.build_chain_model(scenario, 20.0)
        assert chain.link == cli.build_link_model(scenario, 20.0)
        assert chain.link_count == scenario.link_count == 3
        assert chain.purification.buffer_capacity == scenario.reserved_slots


class TestChainTrial:
    def test_deterministic(self):
        chain = small_chain(MITM_LINK, 3)
        duration = US(100_000)
        a = run_chain_trials(chain, duration, 5, 3)
        b = run_chain_trials(chain, duration, 5, 3)
        assert a == b

    def test_elapsed_is_the_requested_duration(self):
        # a sweep's chain row divides each trial's ebits by the full duration,
        # which here is no whole number of rounds
        scenario, _ = cli.parse_scenario(
            ["--protocol", "mitm", "--preset", "fig8-optimistic", "--links", "2", "--trials", "5",
             "--distances", "10", "--duration", "100"], env={},
        )
        (row,) = cli.run_sweep(scenario, progress=io.StringIO())
        chain = cli.build_chain_model(scenario, 10.0)
        duration = 100 * chain.link.tau_link
        assert duration.ps % chain.link.round_time.ps
        trials = run_chain_trials(chain, duration, scenario.base_seed, 5)
        ebits = [stats.end_to_end_ebits for stats in trials]
        assert min(ebits) > 0
        assert row.mean_rate_per_s == np.mean([count / duration.seconds for count in ebits])

    @pytest.mark.parametrize("seed", range(4))
    def test_conservation_identities(self, seed):
        chain = small_chain(MITM_LINK, 4)
        for stats in run_chain_trials(chain, US(200_000), seed, 2):
            assert_conserved(stats)

    def test_ebits_bounded_by_slowest_link(self):
        chain = small_chain(MITM_LINK, 4)
        (stats,) = run_chain_trials(chain, US(200_000), 9, 1)
        assert stats.end_to_end_ebits <= min(stats.per_link_purified_counts)

    def test_buffer_capacity_caps_pending_pairs(self):
        (stats,) = run_chain_trials(small_chain(MITM_LINK, 2), US(500_000), 3, 1)
        assert all(p <= 3 for p in stats.purified_pending)

    def test_ebit_error_matches_chain_bound(self):
        # a ten-link chain's ebit error is ten times its links' purified error
        bounds = small_chain(MITM_LINK, 10).bounds
        assert bounds.epsilon_total == 10 * bounds.epsilon_out == 0.0071269375000000005

    @pytest.mark.parametrize("chain,duration", [
        (small_chain(MITM_LINK, 3), US(20_000)),
        (small_chain(SR_LINK, 2, lifetime=US(100)), US(2_000)),  # capped, and pairs expire
    ], ids=["mitm", "sr-expiring"])
    def test_first_trials_of_a_cell_are_its_smaller_cell(self, chain, duration):
        cell = run_chain_trials(chain, duration, 11, 6)
        for k in range(7):
            assert run_chain_trials(chain, duration, 11, k) == cell[:k]

    @pytest.mark.parametrize("base", [0, 41, 2**64 - 1])
    def test_adjacent_base_seeds_share_no_trials(self, base):
        # a cell at base seed b + 1 holds none of the trials of the cell at b
        chain, duration = small_chain(MITM_LINK, 3), US(20_000)
        first = run_chain_trials(chain, duration, base, 6)
        second = run_chain_trials(chain, duration, base + 1, 6)
        assert not [stats for stats in first if stats in second]

    def test_pessimistic_chain_starves_the_two_sender_protocol(self):
        # low transmission at 25 km: raw pairs arrive far too slowly to
        # assemble purification groups inside the freshness horizon
        scenario, _ = cli.parse_scenario(
            ["--protocol", "mitm", "--preset", "fig9-pessimistic",
             "--trials", "25", "--distances", "25", "--seed", "7"],
            env={},
        )
        chain = cli.build_chain_model(scenario, 25.0)
        duration = scenario.duration_in_tau_link * chain.link.tau_link
        trials = run_chain_trials(chain, duration, scenario.base_seed, scenario.trials)
        ebits = [stats.end_to_end_ebits for stats in trials]
        assert sum(count == 0 for count in ebits) > len(ebits) / 2

    def test_lifetime_discards_stale_pairs(self):
        # sparse pair production + a tiny freshness horizon: groups of seven
        # never assemble, so nothing is ever purified
        sparse = LinkModel(
            ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(10)),
            0.01,
            tau_link=US(100),
            tau_clock=NS(1),
        )
        starving = small_chain(sparse, 2, lifetime=US(150))
        (stats,) = run_chain_trials(starving, US(100_000), 2, 1)
        assert sum(stats.purify_attempts) == 0
        assert sum(stats.raw_expired) > 0
        unlimited = small_chain(sparse, 2, lifetime=None)
        (stats2,) = run_chain_trials(unlimited, US(100_000), 2, 1)
        assert sum(stats2.raw_expired) == 0
        assert sum(stats2.purify_attempts) > 0


CHAIN_VARIANTS = (("mitm", None), ("sr", None), ("mps", 1.0), ("mps", 0.1), ("mps", 0.02))

@st.composite
def chain_links(draw):
    """A link of any protocol with a small whole-microsecond round time."""
    kind = draw(st.sampled_from(["mitm", "sr", "mps"]))
    tau_link = draw(st.sampled_from([US(4), US(6), US(12)]))
    n = draw(st.integers(1, 6))
    if kind == "mitm":
        config = ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(n))
    elif kind == "sr":
        config = ProtocolConfig(
            ProtocolKind.SR, MemoryBudget.sender_receiver(n, draw(st.integers(1, n)))
        )
    else:
        config = ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(n))
        k = draw(st.integers(1, 4))
    p = draw(st.floats(0.05, 0.9))
    mps_only = {"p_mid": draw(st.floats(0.1, 1.0)), "k_attempts": k} if kind == "mps" else {}
    return LinkModel(config, p, tau_link=tau_link, tau_clock=US(1), **mps_only)


def mitm_link(n, p, tau_link):
    return LinkModel(
        ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(n)),
        p,
        tau_link=tau_link,
        tau_clock=US(1),
    )


R = US(10).ps  # the round time of mitm_link(1, p, US(9)), in ps


def feed_round_counts(patch, counts):
    """Make each chain trial draw ``counts[i]`` as link ``i``'s round counts,
    all links' rounds in one draw (the engine) or link by link (the reference)."""
    flat = np.array(counts, dtype=np.int64).ravel()  # link-major, as one draw returns them
    drawn_so_far = [0]

    def drawn(rng, link, n_rounds):
        assert n_rounds in (len(counts[0]), flat.size)
        start = drawn_so_far[0] % flat.size
        drawn_so_far[0] += n_rounds
        return flat[start:start + n_rounds].copy()

    patch.setattr(engine, "sample_round_counts", drawn)


def sparse_and_dense_rounds(seed, n_rounds):
    """Round counts of a two-link chain: link 0 makes about one pair a round,
    so its pairs often wait more than eight rounds for a group; link 1 makes
    about five, so none of its pairs waits that long."""
    rng = np.random.default_rng(seed)
    return [rng.binomial(2, 0.5, n_rounds).tolist(), rng.binomial(6, 0.9, n_rounds).tolist()]


class TestChainOracle:
    """The round-skipping engine against the per-event reference loop."""

    @pytest.mark.parametrize("preset", ["fig8-optimistic", "fig9-pessimistic"])
    @pytest.mark.parametrize("protocol_name,p_mid", CHAIN_VARIANTS)
    def test_figure_chains_match_reference(self, preset, protocol_name, p_mid):
        argv = ["--preset", preset, "--protocol", protocol_name, "--distances", "5,30,50"]
        if p_mid is not None:
            argv += ["--p-mid", str(p_mid)]
        scenario, _ = cli.parse_scenario(argv, env={})
        for distance in scenario.distances_km:
            chain = cli.build_chain_model(scenario, distance)
            duration = scenario.duration_in_tau_link * chain.link.tau_link
            expected = chain_reference.run_chain_trials(chain, duration, 1, 3)
            assert run_chain_trials(chain, duration, 1, 3) == expected

    def test_walked_and_running_total_links_in_one_trial(self, monkeypatch):
        # link 0's sparse pairs outlive the eight-round horizon; link 1's never do
        chain = ChainModel(
            mitm_link(n=1, p=0.5, tau_link=US(9)), 2,
            PurificationPolicy(epsilon_in=0.05, buffer_capacity=1, raw_pair_lifetime=US(80)),
        )
        calls = []
        recurrence = engine._stash_recurrence

        def counting_recurrence(fresh, arrivals):
            calls.append(arrivals)
            return recurrence(fresh, arrivals)

        monkeypatch.setattr(engine, "_stash_recurrence", counting_recurrence)
        for seed in range(4):
            calls.clear()
            feed_round_counts(monkeypatch, sparse_and_dense_rounds(seed, US(2_000).ps // R))
            (stats,) = run_chain_trials(chain, US(2_000), seed, 1)
            assert [stats] == chain_reference.run_chain_trials(chain, US(2_000), seed, 1)
            # one recurrence, over the non-empty rounds of the link whose pairs
            # expired (and its end); the other took its groups from the running total
            assert len(calls) == 1 and sum(calls[0]) == stats.raw_pairs[0]
            assert stats.raw_expired[0] > 0 and stats.purify_attempts[0] > 0
            assert stats.raw_expired[1] == 0 and stats.purify_attempts[1] > 0
            assert stats.end_to_end_ebits > 0

    @pytest.mark.parametrize("dead_at", range(3))
    def test_link_without_pairs_next_to_busy_links(self, monkeypatch, dead_at):
        chain = small_chain(mitm_link(n=1, p=0.5, tau_link=US(5)), 3, lifetime=US(20))
        n_rounds = US(1_000) // chain.link.round_time
        for seed in range(3):
            rng = np.random.default_rng(seed)
            counts = [rng.binomial(6, 0.9, n_rounds).tolist(), rng.binomial(3, 0.6, n_rounds).tolist()]
            counts.insert(dead_at, [0] * n_rounds)
            feed_round_counts(monkeypatch, counts)
            (stats,) = run_chain_trials(chain, US(1_000), seed, 1)
            assert [stats] == chain_reference.run_chain_trials(chain, US(1_000), seed, 1)
            assert stats.raw_pairs[dead_at] == 0 and stats.end_to_end_ebits == 0
            assert min(stats.raw_pairs[:dead_at] + stats.raw_pairs[dead_at + 1:]) > 0
            assert_conserved(stats)

    def test_rounds_ending_together_pop_in_queue_then_link_order(self):
        # every link's round r ends at the same instant, so groups pop round by
        # round, and within a round in link order: round 0 forms groups on links
        # 0 and 2, round 1 on link 1, round 2 two on link 0 and one on link 1
        counts = np.array([[7, 0, 14], [0, 7, 7], [9, 0, 0]])
        link_of, groups, _, _ = engine._queued_groups(counts, counts.sum(axis=1), None)
        assert link_of.tolist() == [0, 2, 1, 0, 1]
        assert groups.tolist() == [1, 1, 1, 2, 1]
        chain = ChainModel(
            mitm_link(n=2, p=0.9, tau_link=US(4)), 4,
            PurificationPolicy(epsilon_in=0.05, buffer_capacity=1, raw_pair_lifetime=None),
        )
        cell = run_chain_trials(chain, US(3_000), 0, 6)
        assert cell == chain_reference.run_chain_trials(chain, US(3_000), 0, 6)
        assert all(sum(stats.purified_discarded) > 0 for stats in cell)

    def test_unbalanced_pairs_raise(self, monkeypatch, capsys):
        recurrence = engine._stash_recurrence
        calls = []

        def lose_a_pair(fresh, arrivals):
            calls.append(arrivals)
            formed, expired, pending = recurrence(fresh, arrivals)
            return formed, expired, pending - 1

        monkeypatch.setattr(engine, "_stash_recurrence", lose_a_pair)
        chain = small_chain(mitm_link(n=1, p=0.5, tau_link=US(9)), 2, lifetime=US(80))
        with pytest.MonkeyPatch.context() as patch:
            feed_round_counts(patch, sparse_and_dense_rounds(0, US(2_000).ps // R))
            with pytest.raises(RuntimeError, match=r"chain link 0 does not conserve pairs: raw \d+"):
                run_chain_trials(chain, US(2_000), 0, 1)
        assert len(calls) == 1  # the raise came from the lost pair
        # through the command line, every link of a fig9 midpoint-source chain
        # runs the recurrence
        calls.clear()
        argv = ["--preset", "fig9-pessimistic", "--protocol", "mps", "--p-mid", "0.1",
                "--distances", "30", "--trials", "1"]
        assert cli.main(argv) == 1
        assert "does not conserve pairs" in capsys.readouterr().err
        assert len(calls) == 10

    # Chains of every protocol, length, lifetime and buffer capacity.
    @settings(max_examples=150, deadline=None)
    @given(
        link=chain_links(),
        link_count=st.integers(1, 4),
        lifetime=st.sampled_from([None, US(20), Duration.from_ms(10)]),
        capacity=st.sampled_from([0, 1, 3]),
        duration=st.sampled_from([US(50), US(400), US(2_000)]),
        seed=st.integers(0, 2**32),
        trials=st.integers(1, 3),
    )
    def test_heterogeneous_chains_match_reference(
        self, link, link_count, lifetime, capacity, duration, seed, trials
    ):
        policy = PurificationPolicy(
            epsilon_in=0.05, buffer_capacity=capacity, raw_pair_lifetime=lifetime
        )
        chain = ChainModel(link, link_count, policy)
        cell = run_chain_trials(chain, duration, seed, trials)
        assert cell == chain_reference.run_chain_trials(chain, duration, seed, trials)
        for stats in cell:
            assert_conserved(stats)


def stash_walks(link, counts, lifetime_ps):
    """``chain_reference.walk_stash`` over each chain link's drawn rounds."""
    period = link.round_time.ps
    walks = []
    for rounds in counts:
        rows = [k for k, count in enumerate(rounds) if count]
        times = [(k + 1) * period for k in rows]
        arrivals = [rounds[k] for k in rows]
        walks.append(
            chain_reference.walk_stash(times, arrivals, len(rounds) * period, lifetime_ps)
        )
    return walks


@st.composite
def drawn_rounds(draw):
    """A link, the drawn round counts of a chain of one to three such links
    (often empty, often seven or more), and a lifetime that is often a whole
    number of rounds or shorter than one round."""
    # rounds of 4, 6 or 12 us
    link = mitm_link(n=1, p=0.5, tau_link=draw(st.sampled_from([US(3), US(5), US(11)])))
    duration = US(draw(st.integers(12, 240)))
    n = duration // link.round_time
    counts = [
        draw(st.lists(st.just(0) | st.integers(0, 15), min_size=n, max_size=n))
        for _ in range(draw(st.integers(1, 3)))
    ]
    period = link.round_time.ps
    lifetime_ps = draw(
        st.integers(0, 8).map(lambda m: m * period)
        | st.integers(1, period - 1)
        | st.integers(1, duration.ps)
    )
    return link, duration, counts, lifetime_ps


class TestStashRecurrence:
    """The engine's integer stash recurrence against the list walk it replaced."""

    @pytest.mark.parametrize(
        "rounds,lifetime_ps,expected",
        [
            # each case expires a pair, so the link runs the recurrence; a
            # pair that arrived exactly at t - lifetime is still fresh
            pytest.param([1, 0, 0, 3, 0, 4], 2 * R, (1, 1, 0), id="arrival-at-horizon"),
            pytest.param([1, 0, 0, 3, 0, 4], 2 * R - 1, (0, 4, 4), id="one-ps-past-horizon"),
            pytest.param([1, 0, 14, 6, 1], R, (3, 1, 0), id="rounds-of-seven-or-more"),
            pytest.param([1, 0, 0, 0, 0, 6, 0, 0, 1], 3 * R, (1, 1, 0), id="full-stash-completes"),
            pytest.param([1, 0, 0, 0, 0, 6, 0, 0, 1], 3 * R - 1, (0, 7, 1), id="full-stash-expires"),
            pytest.param([3, 4, 0], R - 1, (0, 7, 0), id="lifetime-under-one-round"),
            pytest.param([5, 0, 0], R, (0, 5, 0), id="expiry-at-trial-end"),
            pytest.param([1, 0, 0, 5, 0, 0], 2 * R, (0, 1, 5), id="fresh-at-trial-end"),
        ],
    )
    def test_boundaries(self, monkeypatch, rounds, lifetime_ps, expected):
        link = mitm_link(n=1, p=0.5, tau_link=US(9))
        assert link.round_time.ps == R
        chain = small_chain(link, 1, lifetime=Duration(lifetime_ps))
        duration = len(rounds) * link.round_time
        calls = []
        recurrence = engine._stash_recurrence
        monkeypatch.setattr(
            engine, "_stash_recurrence", lambda *args: calls.append(args) or recurrence(*args)
        )
        feed_round_counts(monkeypatch, [rounds])
        (stats,) = run_chain_trials(chain, duration, 0, 1)
        assert [stats] == chain_reference.run_chain_trials(chain, duration, 0, 1)
        assert len(calls) == 1
        attempts, expired, pending = expected
        assert (stats.purify_attempts, stats.raw_expired, stats.raw_pending) == (
            (attempts,), (expired,), (pending,)
        )
        formed, *walked = stash_walks(link, [rounds], lifetime_ps)[0]
        assert (sum(formed), *walked) == expected

    @pytest.mark.parametrize(
        "lifetime_ps,expired",
        [
            # a pair can age at most four rounds in five: none expires
            pytest.param(4 * R, 0, id="lifetime-of-the-trial"),
            pytest.param(4 * R - 1, 1, id="one-round-less"),
        ],
    )
    def test_lifetime_at_the_trial_length(self, monkeypatch, lifetime_ps, expired):
        link = mitm_link(n=1, p=0.5, tau_link=US(9))
        chain = small_chain(link, 2, lifetime=Duration(lifetime_ps))
        rounds = [[1, 0, 0, 0, 0], [0, 7, 0, 3, 0]]
        duration = 5 * link.round_time
        assert chain.lag == (4 if expired == 0 else 3)
        calls = []
        recurrence = engine._stash_recurrence
        monkeypatch.setattr(
            engine, "_stash_recurrence", lambda *args: calls.append(args) or recurrence(*args)
        )
        feed_round_counts(monkeypatch, rounds)
        (stats,) = run_chain_trials(chain, duration, 0, 1)
        assert [stats] == chain_reference.run_chain_trials(chain, duration, 0, 1)
        assert stats.raw_expired == (expired, 0)
        assert stats.raw_pending == (1 - expired, 3)
        # only the link whose stashed pair goes stale runs the recurrence
        assert calls == ([([0, 0], [1, 0])] if expired else [])

    @settings(max_examples=300, deadline=None)
    @given(case=drawn_rounds(), capacity=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2**32))
    def test_recurrence_matches_the_list_walk(self, case, capacity, seed):
        link, duration, counts, lifetime_ps = case
        lifetime = Duration(lifetime_ps)
        policy = PurificationPolicy(
            epsilon_in=0.05, buffer_capacity=capacity, raw_pair_lifetime=lifetime
        )
        chain = ChainModel(link, len(counts), policy)
        walks = stash_walks(link, counts, lifetime_ps)
        calls = []
        recurrence = engine._stash_recurrence

        def recording(fresh, arrivals):
            calls.append(recurrence(fresh, arrivals))
            return calls[-1]

        with pytest.MonkeyPatch.context() as patch:
            feed_round_counts(patch, counts)
            patch.setattr(engine, "_stash_recurrence", recording)
            (stats,) = run_chain_trials(chain, duration, seed, 1)
            assert [stats] == chain_reference.run_chain_trials(chain, duration, seed, 1)
        assert stats.purify_attempts == tuple(sum(formed) for formed, _, _ in walks)
        assert stats.raw_expired == tuple(expired for _, expired, _ in walks)
        assert stats.raw_pending == tuple(pending for _, _, pending in walks)
        # exactly the links with a short window walk, each returns the list
        # walk (its end forms no group), and no other link expires a pair
        short = [not no_pair_can_expire(rounds, chain.lag) for rounds in counts]
        assert calls == [(made + [0], e, left) for (made, e, left), s in zip(walks, short) if s]
        assert not any(e for (_, e, _), s in zip(walks, short) if not s)


def no_pair_can_expire(rounds, lag):
    """Whether a link's round counts keep it off the stash walk, window by
    window: no horizon, none that a pair outlives inside the trial, or at
    least six pairs in the ``lag`` rounds after each round r <= n_rounds - 2 - lag."""
    n_rounds = len(rounds)
    if lag is None or lag >= n_rounds - 1:
        return True
    return all(sum(rounds[r + 1:r + 1 + lag]) >= 6 for r in range(n_rounds - 1 - lag))


@st.composite
def grouped_rounds(draw):
    """Round counts of one to three links and a lag of None or 0 to one past
    the trial. Each link's counts stay within one of a drawn level, often the
    one that brings about six pairs in ``lag`` rounds, so windows often hold
    exactly five or exactly six pairs."""
    n_rounds = draw(st.integers(1, 24))
    lag = draw(st.integers(-1, n_rounds + 1))
    lag = None if lag < 0 else lag
    counts = []
    for _ in range(draw(st.integers(1, 3))):
        level = draw(st.integers(0, 7) | st.just(-(-6 // (lag or 1))))  # ceil(6 / lag)
        counts.append(draw(st.lists(
            st.integers(max(level - 1, 0), level + 1), min_size=n_rounds, max_size=n_rounds
        )))
    return np.array(counts, dtype=np.intp), lag


class TestQueuedGroups:
    """The one grouping pass against the list walk of every link."""

    @settings(max_examples=500, deadline=None)
    @given(case=grouped_rounds())
    @example(case=(np.array([[1, 0, 6, 6, 0]]), 2))  # every window holds six or more
    @example(case=(np.array([[1, 0, 5, 6, 0]]), 2))  # one holds five: round 0's pair expires
    @example(case=(np.array([[7, 7, 7]]), 0))
    @example(case=(np.array([[1, 0, 0]]), 3))
    @example(case=(np.array([[1, 0, 0], [9, 9, 9]]), 2))
    # only the window ending at the last round is short: round 1's pair is
    # fresh at the end, so no link walks
    @example(case=(np.array([[0, 8, 0, 2]]), 2))
    def test_groups_equal_the_list_walk(self, case):
        counts, lag = case
        n_rounds = counts.shape[1]
        calls = []
        recurrence = engine._stash_recurrence
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                engine, "_stash_recurrence", lambda *args: calls.append(args[1]) or recurrence(*args)
            )
            link_of, groups, expired, pending = engine._queued_groups(counts, counts.sum(axis=1), lag)
        # rounds of R ps; a lifetime of the whole trial outlasts every pair
        link = mitm_link(n=1, p=0.5, tau_link=US(9))
        walks = stash_walks(link, counts.tolist(), (n_rounds if lag is None else lag) * R)
        assert (expired, pending) == ([e for _, e, _ in walks], [left for *_, left in walks])
        # the walks' groups in event order: round by round, then link by link
        events = sorted(
            (r, i, formed)
            for i, (rounds, (walk, _, _)) in enumerate(zip(counts, walks))
            for r, formed in zip(np.flatnonzero(rounds).tolist(), walk) if formed
        )
        assert list(zip(link_of.tolist(), groups.tolist())) == [(i, g) for _, i, g in events]
        # exactly the links with a short window walk their non-empty rounds,
        # and a link that does not walk expires no pair
        short = [not no_pair_can_expire(rounds, lag) for rounds in counts.tolist()]
        assert calls == [rounds[rounds > 0].tolist() + [0] for rounds, s in zip(counts, short) if s]
        assert not any(e for (_, e, _), s in zip(walks, short) if not s)

    def test_a_window_of_five_pairs_expires_a_pair_and_six_do_not(self):
        # round 0's pair needs six more within two rounds to join a group
        six = engine._queued_groups(np.array([[1, 0, 6, 6, 0]]), np.array([13]), 2)
        five = engine._queued_groups(np.array([[1, 0, 5, 6, 0]]), np.array([12]), 2)
        assert (six[1].tolist(), six[2:]) == ([1], ([0], [6]))
        assert (five[1].tolist(), five[2:]) == ([1], ([1], [4]))

    @staticmethod
    def walked_links(protocol_name, p_mid, preset, distances, seeds, trials):
        """Per distance, the links that walk their stash over the trials of
        its cells at ``seeds``."""
        argv = ["--preset", preset, "--protocol", protocol_name]
        if p_mid is not None:
            argv += ["--p-mid", str(p_mid)]
        scenario, _ = cli.parse_scenario(argv, env={})
        calls = []
        recurrence = engine._stash_recurrence
        walked = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                engine, "_stash_recurrence", lambda *args: calls.append(1) or recurrence(*args)
            )
            for distance in distances or scenario.distances_km:
                chain = cli.build_chain_model(scenario, distance)
                duration = scenario.duration_in_tau_link * chain.link.tau_link
                before = len(calls)
                for seed in seeds:
                    run_chain_trials(chain, duration, seed, trials)
                walked[distance] = len(calls) - before
        return walked

    # The benchmark keeps a workload on each side of the choice: no link of
    # chain-fig8 (fig8-optimistic, two trials per cell) walks, and every link
    # of fig9-pessimistic mitm chains from 30 km on does.
    @pytest.mark.parametrize("protocol_name,p_mid", CHAIN_VARIANTS)
    def test_no_fig8_workload_link_walks(self, protocol_name, p_mid):
        walked = self.walked_links(protocol_name, p_mid, "fig8-optimistic", None, (1, 2, 3), 2)
        assert len(walked) == 10 and not any(walked.values())

    def test_every_fig9_mitm_link_from_30_km_walks(self):
        distances = (30.0, 35.0, 40.0, 45.0, 50.0)
        walked = self.walked_links("mitm", None, "fig9-pessimistic", distances, (1, 2, 3), 4)
        assert walked == {distance: 3 * 4 * 10 for distance in distances}


def exact_two_link_ebits(round_law, capacity, p_success, n_rounds):
    """E[end_to_end_ebits] of a two-link chain without expiry after
    ``n_rounds`` rounds, by propagating the distribution of its finite
    Markov chain. A link's state is its stash s (0-6) and its purified pairs
    l above the ebits so far (0..capacity). A round brings c = min(Binomial(
    slots, p), cap) pairs, forms (s + c) // 7 groups and stashes (s + c) % 7;
    Binomial(groups, p_success) of them win, and in link order each link
    takes l = min(l + wins, capacity), after which the common minimum of the
    levels is swapped."""
    slots, p, cap = round_law
    arrivals = scipy_stats.binom.pmf(np.arange(cap + 1), slots, p)
    arrivals[cap] = scipy_stats.binom.sf(cap - 1, slots, p)  # P(min(X, cap) = cap)
    most = (6 + cap) // 7  # groups a round can form
    # totals[s, 7g + left]: a link with stash s holds 7g + left pairs after the round
    totals = np.zeros((7, 7 * (most + 1)))
    for s in range(7):
        totals[s, s:s + cap + 1] = arrivals
    groups = np.arange(most + 1)
    wins = scipy_stats.binom.pmf(groups[None, :], groups[:, None], p_success)
    stash_wins = np.einsum("sgl,gw->slw", totals.reshape(7, most + 1, 7), wins)
    # step[s, s2, l, l2]: one link's move from stash s and level l
    levels = np.arange(capacity + 1)
    step = np.zeros((7, 7, capacity + 1, capacity + 1))
    for won in groups:
        step[:, :, levels, np.minimum(levels + won, capacity)] += stash_wins[:, :, won, None]

    def swap(state):
        swapped = 0.0
        for x in range(1, capacity + 1):
            for y in range(1, capacity + 1):
                common = min(x, y)
                swapped += common * state[:, :, x, y].sum()
                state[:, :, x - common, y - common] += state[:, :, x, y]
                state[:, :, x, y] = 0.0
        return swapped

    # state[s0, s1, l0, l1], from the empty chain
    state = np.zeros((7, 7, capacity + 1, capacity + 1))
    state[0, 0, 0, 0] = 1.0
    ebits = 0.0
    for _ in range(n_rounds):
        state = np.einsum("abxy,acxz->cbzy", state, step)  # link 0
        ebits += swap(state)
        state = np.einsum("abxy,bcyz->acxz", state, step)  # link 1
        ebits += swap(state)
    return ebits


class TestChainLaw:
    """The engine's ebits against the exact mean of a two-link chain's law."""

    @pytest.mark.parametrize(
        "protocol_name,p_mid,distance,capacity",
        [
            ("mitm", None, 10.0, 3),
            ("sr", None, 10.0, 1),  # 177 senders, 21 receivers: the cap binds
            ("mps", 0.1, 30.0, 3),
        ],
    )
    def test_two_link_mean_is_the_exact_mean(self, protocol_name, p_mid, distance, capacity):
        argv = ["--preset", "fig8-optimistic", "--protocol", protocol_name, "--links", "2",
                "--raw-lifetime-ms", "none", "--reserved-slots", str(capacity),
                "--distances", str(distance)]
        if p_mid is not None:
            argv += ["--p-mid", str(p_mid)]
        scenario, _ = cli.parse_scenario(argv, env={})
        chain = cli.build_chain_model(scenario, distance)
        round_law = chain.link.round_law
        slots, _, cap = round_law
        assert cap < slots if protocol_name == "sr" else cap == slots
        n_rounds = 200
        duration = n_rounds * chain.link.round_time
        cell = run_chain_trials(chain, duration, 1, 1500)
        ebits = np.array([stats.end_to_end_ebits for stats in cell])
        mean, error = ebits.mean(), ebits.std(ddof=1) / np.sqrt(len(ebits))
        p_success = chain.bounds.p_success
        exact = exact_two_link_ebits(round_law, capacity, p_success, n_rounds)
        assert abs(mean - exact) < 4 * error
        # a purification one percent less likely is told apart
        weaker = exact_two_link_ebits(round_law, capacity, 0.99 * p_success, n_rounds)
        assert mean - weaker > 5 * error


class TestSummarize:
    def test_constant_samples_collapse(self):
        summary = summarize([3.5, 3.5, 3.5])
        assert (summary.mean, summary.ci90_low, summary.ci90_high) == (3.5, 3.5, 3.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_endpoints_out_of_order_are_refused(self):
        with pytest.raises(ValueError, match="^interval endpoints out of order$"):
            engine.SummaryStats(mean=1.5, ci90_low=2.0, ci90_high=1.0)
        engine.SummaryStats(mean=3.0, ci90_low=1.0, ci90_high=2.0)  # the mean may lie outside

    def test_uniform_percentiles(self):
        rng = np.random.default_rng(7)
        summary = summarize(rng.random(1000))
        assert summary.ci90_low == pytest.approx(0.05, abs=0.02)
        assert summary.ci90_high == pytest.approx(0.95, abs=0.02)

    # Without -0.0, which no rate takes: numpy partitions where summarize
    # sorts, so the two may order a tie of 0.0 and -0.0 differently.
    @given(
        st.lists(
            st.one_of(
                st.floats(-1e12, 1e12).map(lambda x: x + 0.0), st.sampled_from([0.0, 1.0]),
                st.integers(0, 50).map(float),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=300)
    def test_matches_numpys_mean_and_linear_percentiles_bit_for_bit(self, samples):
        summary = summarize(samples)
        low, high = np.percentile(samples, [5.0, 95.0])
        expected = (float(np.mean(samples)), float(low), float(high))
        got = (summary.mean, summary.ci90_low, summary.ci90_high)
        assert [x.hex() for x in got] == [x.hex() for x in expected]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, value):
        with pytest.raises(ValueError, match="cannot summarize non-finite samples, from"):
            summarize([1.0, value, 2.0])

    def test_extreme_zero_inflation_still_summarizes(self):
        # one nonzero trial in a hundred: the mean escapes the percentile
        # band, which must not be an error for rate data near a collapse
        summary = summarize([0.0] * 99 + [100.0])
        assert summary.mean == pytest.approx(1.0)
        assert summary.ci90_low == 0.0
        assert summary.ci90_high < summary.mean
