"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here, not configurable.
"""

import io
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from protocol_reference import sample_round
from test_protocol import enumerate_mps_bin

from replink import analytic, cli, engine, protocol
from replink.params import Duration, MemoryBudget, ProtocolConfig, ProtocolKind

BASE_SEED = 20260809


def _scenario(argv):
    scenario, _ = cli.parse_scenario(argv, env={})
    return scenario


def _mc_link_rates(scenario, distance):
    link = cli.build_link_model(scenario, distance)
    duration = scenario.duration_in_tau_link * link.tau_link
    events, elapsed = engine.run_link_trials(link, duration, scenario.base_seed, scenario.trials)
    return events / elapsed.seconds


def _sweep_means(scenario):
    rows = cli.run_sweep(scenario, progress=io.StringIO())
    return {row.link_km: row.mean_rate_per_s for row in rows if row.trials > 0}


def _chain_ebit_counts(scenario, distance):
    chain = cli.build_chain_model(scenario, distance)
    duration = scenario.duration_in_tau_link * chain.link.tau_link
    trials = engine.run_chain_trials(chain, duration, scenario.base_seed, scenario.trials)
    return [stats.end_to_end_ebits for stats in trials]


def test_criterion_1_purification_numbers():
    bounds = analytic.purification_bounds(0.05, 10)
    eps = Fraction(1, 20)
    exact_out = float(7 * eps**3 * (1 - eps) ** 4 + eps**7)
    exact_success = float((1 - eps) ** 7)

    assert abs(bounds.epsilon_out - exact_out) <= 1e-6
    assert abs(bounds.p_success - exact_success) <= 1e-6
    assert abs(bounds.epsilon_total - 10 * exact_out) <= 1e-6
    assert bounds.epsilon_out <= 1e-3
    assert bounds.p_success >= 0.698
    assert bounds.epsilon_total < 1e-2
    print(
        f"criterion 1: PASS  eps_out={bounds.epsilon_out:.6g} (<1e-3), "
        f"p_success={bounds.p_success:.6g} (>=0.698), eps_total={bounds.epsilon_total:.6g} (<1e-2)"
    )


def test_criterion_2_entanglement_probability_identity_and_bounds():
    started = time.perf_counter()
    attempts_grid = [1, 2, 3, 5, 8, 13, 34, 89, 233, 610]
    combos = 0
    worst_gap = 0.0
    for p_l in np.linspace(0.05, 0.95, 10):
        for p_m in np.linspace(0.1, 1.0, 10):
            for k in attempts_grid:
                ent = analytic.mps_entanglement(float(p_l), float(p_m), k)
                worst_gap = max(worst_gap, abs(ent.p_ent_sum - ent.p_ent_closed))
                combos += 1
    assert combos >= 1000
    assert worst_gap <= 1e-12

    min_latch = 1.0
    for p_l in np.linspace(0.05, 0.95, 19):
        for p_m in np.linspace(0.05, 1.0, 20):
            k = analytic.mps_attempts_per_bin(float(p_l), float(p_m))
            ent = analytic.mps_entanglement(float(p_l), float(p_m), k)
            assert ent.lower_bound < ent.p_ent_closed < ent.upper_bound
            min_latch = min(min_latch, ent.p_latch)
    assert min_latch > 0.95
    elapsed = time.perf_counter() - started
    print(
        f"criterion 2: PASS  {combos} identity combos, worst gap {worst_gap:.3g} (<=1e-12), "
        f"min p_latch {min_latch:.6f} (>0.95), {elapsed:.2f}s"
    )


def test_criterion_3_monte_carlo_matches_closed_forms():
    started = time.perf_counter()
    distances = (5.0, 20.0, 50.0)
    base = [
        "--preset", "optimistic", "--topology", "single-link", "--trials", "100",
        "--duration", "1000", "--distances", "5,20,50", "--seed", str(BASE_SEED),
    ]
    scenarios = {
        "mitm": _scenario(base + ["--protocol", "mitm", "--n", "100"]),
        "sr": _scenario(base + ["--protocol", "sr", "--n", "100"]),
        "mps": _scenario(base + ["--protocol", "mps", "--n", "3", "--p-mid", "1"]),
    }
    for name, scenario in scenarios.items():
        for distance in distances:
            oracle = cli.analytic_rate(cli.build_link_model(scenario, distance)).rate_per_s
            rates = _mc_link_rates(scenario, distance)
            se = rates.std(ddof=1) / np.sqrt(len(rates))
            gap = abs(rates.mean() - oracle)
            assert gap <= 3 * se, (
                f"{name} at {distance} km: |{rates.mean():.6g} - {oracle:.6g}| = {gap:.3g} "
                f"exceeds 3*SE = {3 * se:.3g}"
            )
    elapsed = time.perf_counter() - started
    print(f"criterion 3: PASS  9 protocol/distance cells within 3 standard errors, {elapsed:.1f}s")


def test_criterion_4_protocol_ordering_on_the_chain():
    started = time.perf_counter()
    distances = "10,20,30,40,50"
    base = ["--preset", "fig8-optimistic", "--trials", "100", "--distances", distances,
            "--seed", str(BASE_SEED)]
    mitm = _sweep_means(_scenario(base + ["--protocol", "mitm"]))
    sr = _sweep_means(_scenario(base + ["--protocol", "sr"]))
    mps_full = _sweep_means(_scenario(base + ["--protocol", "mps", "--p-mid", "1"]))
    mps_dim_scenario = _scenario(base + ["--protocol", "mps", "--p-mid", "0.1"])
    mps_dim = _sweep_means(mps_dim_scenario)

    for d in mitm:
        assert mitm[d] >= sr[d], f"expected the midpoint analyzer to beat sender-receiver at {d} km"
        assert mps_full[d] > mitm[d], f"expected the midpoint source to lead at {d} km"

    fast_clock = []
    for d in mitm:
        link = cli.build_link_model(mps_dim_scenario, d)
        n = link.config.memory.n_per_side
        if n * link.config.k_attempts * link.tau_clock.ps < 0.1 * link.tau_link.ps:
            fast_clock.append(d)
    for d in fast_clock:
        gap = abs(mps_full[d] - mps_dim[d]) / mps_full[d]
        assert gap <= 0.10, f"fast-clock disagreement {gap:.3f} at {d} km"
    regime = (
        f"fast-clock regime holds at {fast_clock} km"
        if fast_clock
        else "fast-clock regime empty at these parameters (N*K*tau_clock >= 0.1*tau_link throughout)"
    )
    elapsed = time.perf_counter() - started
    print(f"criterion 4: PASS  ordering holds at 5 distances; {regime}; {elapsed:.1f}s")


def test_criterion_5_scaling_law_between_protocols():
    started = time.perf_counter()
    distances = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    base = ["--preset", "optimistic", "--topology", "single-link", "--n", "100",
            "--trials", "100", "--duration", "1000",
            "--distances", "10,20,30,40,50", "--seed", str(BASE_SEED)]
    mitm_scenario = _scenario(base + ["--protocol", "mitm"])
    mps_scenario = _scenario(base + ["--protocol", "mps", "--p-mid", "1"])

    means = {}
    round_times = {}
    for name, scenario in (("mitm", mitm_scenario), ("mps", mps_scenario)):
        means[name] = np.array([_mc_link_rates(scenario, d).mean() for d in distances])
        round_times[name] = np.array(
            [cli.build_link_model(scenario, d).round_time.seconds for d in distances]
        )

    slope_mitm = np.polyfit(distances, np.log(means["mitm"]), 1)[0]
    slope_mps = np.polyfit(distances, np.log(means["mps"]), 1)[0]
    # per-second slopes share the 1/tau_link factor; their difference is the
    # attenuation-scale content of the rate ratio, 1/(2 L_att) per km
    target = 1.0 / (2.0 * 22.0)
    assert abs((slope_mps - slope_mitm) - target) <= 0.2 * target

    per_round_mitm = np.polyfit(distances, np.log(means["mitm"] * round_times["mitm"]), 1)[0]
    per_round_mps = np.polyfit(distances, np.log(means["mps"] * round_times["mps"]), 1)[0]
    ratio = per_round_mps / per_round_mitm
    assert 0.4 <= ratio <= 0.6, f"per-round slope ratio {ratio:.3f} outside [0.4, 0.6]"

    est = analytic.fast_clock_estimates(100, 0.5, 0.5, Duration.from_us(100))
    assert est.ratio == 1.0
    elapsed = time.perf_counter() - started
    print(
        f"criterion 5: PASS  slope difference {slope_mps - slope_mitm:.5f}/km vs 1/(2*22)={target:.5f}, "
        f"per-round slope ratio {ratio:.3f}, zero-distance analytic ratio exactly 1; {elapsed:.1f}s"
    )


def test_criterion_6_pessimistic_chain_collapse():
    started = time.perf_counter()
    base = ["--preset", "fig9-pessimistic", "--trials", "100", "--distances", "30",
            "--seed", str(BASE_SEED)]
    mitm_counts = _chain_ebit_counts(_scenario(base + ["--protocol", "mitm"]), 30.0)
    mps_counts = _chain_ebit_counts(_scenario(base + ["--protocol", "mps", "--p-mid", "1"]), 30.0)
    mitm_median = statistics.median(mitm_counts)
    mps_median = statistics.median(mps_counts)
    assert mitm_median == 0, f"expected a collapsed pipeline, got median {mitm_median}"
    assert mps_median > 0, f"expected the midpoint source to survive, got median {mps_median}"
    elapsed = time.perf_counter() - started
    print(
        f"criterion 6: PASS  at 30 km pessimistic: mitm median ebits {mitm_median}, "
        f"mps median ebits {mps_median}; {elapsed:.1f}s"
    )


def test_criterion_7_hardware_specific_single_links():
    started = time.perf_counter()

    def hw(preset, proto, distances, p_mid=None):
        argv = ["--preset", preset, "--protocol", proto, "--trials", "100",
                "--distances", distances, "--seed", str(BASE_SEED)]
        if p_mid is not None:
            argv += ["--p-mid", str(p_mid)]
        return _scenario(argv)

    qd_mitm = _mc_link_rates(hw("fig10-qd", "mitm", "10"), 10.0).mean()
    nv_mitm = _mc_link_rates(hw("fig10-nv", "mitm", "10"), 10.0).mean()
    qd_mps = _mc_link_rates(hw("fig10-qd", "mps", "10", p_mid=1), 10.0).mean()
    nv_mps = _mc_link_rates(hw("fig10-nv", "mps", "10", p_mid=1), 10.0).mean()
    assert qd_mitm > nv_mitm > 0.0
    assert qd_mps > nv_mps > 0.0

    agreements = []
    for d in (10.0, 30.0, 50.0):
        full = _mc_link_rates(hw("fig10-qd", "mps", str(d), p_mid=1), d).mean()
        half = _mc_link_rates(hw("fig10-qd", "mps", str(d), p_mid=0.5), d).mean()
        gap = abs(full - half) / full
        agreements.append(gap)
        assert gap <= 0.10, f"qd p_mid 1 vs 0.5 differ by {gap:.3f} at {d} km"

    ion_mitm = _mc_link_rates(hw("fig10-ion", "mitm", "5"), 5.0).mean()
    ion_mps = _mc_link_rates(hw("fig10-ion", "mps", "5", p_mid=0.02), 5.0).mean()
    assert ion_mitm > ion_mps

    elapsed = time.perf_counter() - started
    print(
        f"criterion 7: PASS  qd>nv>0 for both protocols; qd source-rate agreement gaps "
        f"{[f'{g:.3f}' for g in agreements]}; ion mitm {ion_mitm:.3g}/s > mps(0.02) {ion_mps:.3g}/s; "
        f"{elapsed:.1f}s"
    )


def test_criterion_8_machine_and_sampler_distributions_agree():
    from conftest import chi2_homogeneity_pvalue

    started = time.perf_counter()
    rounds = 10_000
    tau_link, tau_clock = Duration.from_us(10), Duration.from_ns(1)
    p_values = (0.1, 0.5, 0.9)
    pvalues = {}

    for p in p_values:
        rng = np.random.default_rng([BASE_SEED, 1])
        stepped = [
            protocol.step_mitm_round(rng, 4, p, tau_link, tau_clock).entangled_pairs
            for _ in range(rounds)
        ]
        rng = np.random.default_rng([BASE_SEED, 2])
        config = ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(4))
        link = engine.LinkModel(config, p, tau_link, tau_clock)
        sampled = [sample_round(rng, link).entangled_pairs for _ in range(rounds)]
        pvalues[("mitm", p)] = chi2_homogeneity_pvalue(stepped, sampled)

    for p in p_values:
        rng = np.random.default_rng([BASE_SEED, 3])
        stepped = [
            protocol.step_sr_round(rng, 4, 2, p, tau_link, tau_clock).entangled_pairs
            for _ in range(rounds)
        ]
        rng = np.random.default_rng([BASE_SEED, 4])
        config = ProtocolConfig(ProtocolKind.SR, MemoryBudget.sender_receiver(4, 2))
        link = engine.LinkModel(config, p, tau_link, tau_clock)
        sampled = [sample_round(rng, link).entangled_pairs for _ in range(rounds)]
        pvalues[("sr", p)] = chi2_homogeneity_pvalue(stepped, sampled)

    for p in p_values:
        rng = np.random.default_rng([BASE_SEED, 5])
        stepped = [
            protocol.step_mps_round(rng, 2, 4, 0.8, p, tau_link, tau_clock).entangled_pairs
            for _ in range(rounds)
        ]
        rng = np.random.default_rng([BASE_SEED, 6])
        config = ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(2), k_attempts=4)
        link = engine.LinkModel(config, p, tau_link, tau_clock, p_mid=0.8)
        sampled = [sample_round(rng, link).entangled_pairs for _ in range(rounds)]
        pvalues[("mps", p)] = chi2_homogeneity_pvalue(stepped, sampled)

    for key, pvalue in pvalues.items():
        assert pvalue > 0.01, f"{key}: chi-squared p-value {pvalue:.4f}"

    # exhaustive check: every branch of a short bin, stepped round vs formula
    for k in (1, 2, 3):
        exact, branches = enumerate_mps_bin(k, 0.6, 0.4)
        machine_total = 0.0
        for script, prob, _ in branches:
            from conftest import ScriptedRng

            outcome = protocol.step_mps_round(
                ScriptedRng(list(script)), 1, k, 0.6, 0.4, tau_link, tau_clock
            )
            if outcome.entangled_pairs:
                machine_total += prob
        formula = analytic.mps_entanglement(0.4, 0.6, k).p_ent_sum
        assert abs(machine_total - exact) <= 1e-12
        assert abs(formula - exact) <= 1e-12

    elapsed = time.perf_counter() - started
    worst = min(pvalues.values())
    print(
        f"criterion 8: PASS  9 chi-squared comparisons (min p-value {worst:.3f} > 0.01) and "
        f"exhaustive bin enumeration for K<=3; {elapsed:.1f}s"
    )


def test_criterion_9_byte_identical_reports(tmp_path):
    campaigns = {
        "single": ["--protocol", "mitm", "--preset", "optimistic", "--topology", "single-link",
                   "--n", "20", "--trials", "5", "--duration", "50", "--distances", "5,15",
                   "--seed", str(BASE_SEED)],
        "chain": ["--protocol", "mps", "--preset", "fig9-pessimistic", "--p-mid", "1",
                  "--trials", "3", "--duration", "60", "--distances", "10",
                  "--seed", str(BASE_SEED)],
    }
    for name, argv in campaigns.items():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        assert cli.main(argv + ["--output", str(first)]) == 0
        assert cli.main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"{name} report not reproducible"
    print("criterion 9: PASS  single-link and chain reports are byte-identical across reruns")
