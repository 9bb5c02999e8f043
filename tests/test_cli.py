import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from replink import analytic, cli, engine
from replink.cli import (
    CSV_COLUMNS,
    ReportRow,
    Scenario,
    dump_config,
    emit_report,
    main,
    parse_scenario,
    report_dicts,
    run_sweep,
)
from replink.params import ConfigurationError


# A midpoint-source round time is U-shaped in distance: three link delays
# hold one round at 5 km and at 10 km, but not at 200 km.
U_SHAPED_MPS = ["--preset", "qd", "--protocol", "mps", "--p-mid", "0.02", "--topology",
                "single-link", "--n", "3", "--duration", "3", "--trials", "2"]


def _spy_on_link_trials(monkeypatch) -> list:
    """Record the name of every call to the engine's single-link trial runners."""
    calls = []
    for name in ("run_link_trial", "run_link_trials"):
        def spy(*args, _original=getattr(engine, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(engine, name, spy)
    return calls


def parse(argv, env=None):
    scenario, _ = parse_scenario(argv, env=env or {})
    return scenario


TINY = [
    "--protocol", "mitm", "--preset", "optimistic", "--topology", "single-link",
    "--n", "10", "--trials", "3", "--duration", "20", "--distances", "10,5",
    "--seed", "11",
]

CHAIN = ["--protocol", "mitm", "--preset", "fig8-optimistic", "--trials", "1", "--distances", "10"]

# The command line's long options: a flag added or lost must show up here.
LONG_OPTIONS = {
    "--config", "--protocol", "--preset", "--p-mid", "--p-bsa", "--cycle-time-ns",
    "--emission-fraction", "--collection-efficiency", "--topology", "--links", "--n",
    "--sweep", "--distances", "--trials", "--duration", "--seed", "--refractive-index",
    "--attenuation-km", "--reserved-slots", "--epsilon-in", "--raw-lifetime-ms",
    "--analytic", "--dump-config", "--trace", "--format", "--output",
}

# every scenario field with a declared range: (name, flag, low, high)
BOUNDED = [
    (name, field.metadata["flag"], *field.metadata["bounds"])
    for name, field in cli._SCENARIO_FIELDS.items()
    if field.metadata["bounds"] != (None, None)
]

# The message a negative value gets from each numeric field without a declared
# range: its own rule.
UNBOUNDED_NEGATIVE = {
    ("cycle_time_ns", "-inf"): "cycle_time_ns must be a finite number, got -inf",
    ("cycle_time_ns", "-1e-3"):
        "cycle_time_ns must round to at least 1 ps without overflowing, got -0.001",
    ("attenuation_km", "-inf"): "attenuation_km must be positive, got -inf",
    ("attenuation_km", "-1e-3"): "attenuation_km must be positive, got -0.001",
    ("raw_lifetime_ms", "-inf"): "raw_lifetime_ms must be a finite number, got -inf",
    ("raw_lifetime_ms", "-1e-3"):
        "raw_lifetime_ms must round to at least 1 ps without overflowing, got -0.001",
    ("distances_km", "-inf"): "distances_km must be a finite number, got -inf",
    ("distances_km", "-1e-3"): "distances_km must be a non-empty list of positive distances",
}
NUMERIC_FIELDS = [name for name, *_ in BOUNDED] + sorted({name for name, _ in UNBOUNDED_NEGATIVE})


def abbreviation(flag):
    """The shortest prefix of ``flag`` that argparse reads as ``flag``: one
    that starts no other option."""
    others = (LONG_OPTIONS | {"--help"}) - {flag}
    return next(
        flag[:n] for n in range(3, len(flag) + 1)
        if not any(other.startswith(flag[:n]) for other in others)
    )


def negative_value_message(name, value):
    """What a run says of the negative ``value`` given to field ``name``."""
    if (name, value) in UNBOUNDED_NEGATIVE:
        return UNBOUNDED_NEGATIVE[name, value]
    field = cli._SCENARIO_FIELDS[name]
    span = cli._span(*field.metadata["bounds"])
    if field.metadata["parse"] is int:
        return f"bad value for {name}: {value!r}; {name} must be {span}"
    return f"{name} must be {span}, got {float(value)!r} ({field.metadata['flag']})"


PROBABILITY = st.floats(min_value=0.0, max_value=1.0)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def valid_scenarios(draw):
    """Scenarios that pass validation, with full-precision floats and Nones."""
    protocol = draw(st.sampled_from(["mitm", "sr", "mps"]))
    chain = draw(st.booleans())
    reserved_slots = draw(st.integers(min_value=1 if chain else 0, max_value=10))
    return Scenario(
        protocol=protocol,
        preset=draw(st.none() | st.sampled_from(cli.PRESET_CHOICES)),
        p_mid=draw(PROBABILITY) if protocol == "mps" else None,
        p_bsa=draw(st.floats(min_value=0.0, max_value=0.5)),  # a linear-optics analyzer's ceiling
        cycle_time_ns=draw(st.floats(min_value=1e-3, max_value=1e6)),  # at least 1 ps
        emission_fraction=draw(PROBABILITY),
        collection_efficiency=draw(PROBABILITY),
        topology="chain" if chain else "single_link",
        link_count=draw(st.integers(min_value=1, max_value=50)) if chain else 1,
        memory_n=draw(st.integers(min_value=reserved_slots + 1, max_value=500)),
        distances_km=tuple(draw(st.lists(POSITIVE, min_size=1, max_size=6))),
        trials=draw(st.integers(min_value=1, max_value=10**6)),
        duration_in_tau_link=draw(st.integers(min_value=1, max_value=10**6)),
        base_seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        refractive_index=draw(st.floats(min_value=1.0, max_value=1e6)),
        attenuation_km=draw(POSITIVE | st.just(math.inf)),
        reserved_slots=reserved_slots,
        epsilon_in=draw(PROBABILITY),
        raw_lifetime_ms=draw(st.none() | POSITIVE),
        include_analytic=draw(st.booleans()),
    )


class TestParsing:
    def test_hardware_specific_single_link_setup(self):
        scenario = parse(
            ["--protocol", "mps", "--preset", "qd", "--p-mid", "1", "--sweep", "5:50:5",
             "--topology", "single-link", "--n", "3"]
        )
        assert scenario.protocol == "mps"
        assert scenario.p_mid == 1.0
        assert scenario.p_bsa == 0.24
        assert scenario.cycle_time_ns == 10.0
        assert scenario.memory_n == 3
        assert scenario.topology == "single_link"
        assert scenario.distances_km == tuple(float(d) for d in range(5, 55, 5))
        assert scenario.duration_in_tau_link == 10_000  # single-link default
        assert scenario.trials == 1000

    def test_chain_defaults(self):
        scenario = parse(["--protocol", "mitm", "--preset", "optimistic",
                          "--topology", "chain", "--distances", "10"])
        assert scenario.link_count == 10
        assert scenario.duration_in_tau_link == 1000
        assert scenario.memory_n == 100

    def test_figure_preset_bundles_whole_campaign(self):
        scenario = parse(["--protocol", "sr", "--preset", "fig8-optimistic"])
        assert scenario.topology == "chain"
        assert scenario.link_count == 10
        assert scenario.memory_n == 100
        assert scenario.p_bsa == 0.5
        assert scenario.trials == 1000
        assert scenario.distances_km == tuple(float(d) for d in range(5, 55, 5))

    def test_missing_p_mid_for_mps(self):
        with pytest.raises(ConfigurationError, match="p-mid"):
            parse(["--protocol", "mps", "--preset", "qd", "--distances", "10"])

    def test_p_mid_outside_mps_rejected(self):
        with pytest.raises(ConfigurationError, match="p-mid"):
            parse(["--protocol", "mitm", "--preset", "qd", "--p-mid", "0.5", "--distances", "10"])

    def test_sweep_parsing(self):
        def sweep(text):
            return parse(["--protocol", "mitm", "--preset", "qd", "--sweep", text]).distances_km

        assert sweep("5:50:5") == (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)
        assert sweep("0.1:1:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert sweep("1:10000:1") == tuple(float(d) for d in range(1, 10_001))
        with pytest.raises(ConfigurationError):
            sweep("5:50")
        with pytest.raises(ConfigurationError):
            sweep("5:50:0")

    @pytest.mark.parametrize("sweep", ["5:50:nan", "5:inf:inf"])
    def test_non_finite_sweep_exits_2(self, capsys, sweep):
        # unchecked, a NaN step would run the start alone and an infinite stop hit the bound
        argv = ["--protocol", "mitm", "--preset", "qd", "--sweep", sweep]
        for extra in ([], ["--dump-config"]):
            assert main(argv + extra) == 2
            captured = capsys.readouterr()
            message = f"sweep parts must be finite and its step positive, got {sweep!r}"
            assert message in captured.err
            assert captured.out == ""

    # a step too small to advance the float, a sweep too fine, and one past the bound
    @pytest.mark.parametrize("sweep", ["1e17:2e17:1", "1:1e9:0.001", "1:10001:1"])
    def test_sweep_past_ten_thousand_distances_exits_2(self, capsys, sweep):
        argv = ["--protocol", "mitm", "--preset", "qd", "--sweep", sweep, "--dump-config"]
        assert main(argv) == 2
        assert "more than 10000 distances" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--protocol", "mitm", "--preset", "optimistic", "--topology", "single-link",
             "--n", "10", "--distances", "10", "--duration", "1000000000000"],
            ["--protocol", "mitm", "--preset", "fig8-optimistic",
             "--links", "100001", "--duration", "1000"],
        ],
        ids=["long-link", "long-chain"],
    )
    def test_trial_round_counts_are_bounded(self, capsys, argv):
        assert main(argv + ["--dump-config"]) == 2
        err = capsys.readouterr().err
        assert "duration_in_tau_link * link_count" in err
        assert "exceeds 100000000" in err

    def test_memory_n_is_bounded(self, capsys):
        argv = ["--protocol", "sr", "--preset", "optimistic", "--topology", "single-link",
                "--distances", "10", "--trials", "1", "--duration", "50000000", "--analytic"]
        assert main(argv + ["--n", "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert "memory_n must be in [1, 1000000], got 1000000000000" in err
        assert "[replink]" not in err  # rejected before any trial
        assert main(argv + ["--n", "1000000", "--dump-config"]) == 0
        assert "memory_n = 1000000\n" in capsys.readouterr().out

    def test_trials_are_bounded(self, monkeypatch, capsys):
        trials = _spy_on_link_trials(monkeypatch)
        argv = ["--preset", "qd", "--protocol", "mitm", "--topology", "single-link",
                "--distances", "10"]
        for extra in ([], ["--dump-config"]):
            assert main(argv + ["--trials", "1000000000000"] + extra) == 2
            err = capsys.readouterr().err
            assert "trials must be in [1, 10000000], got 1000000000000 (--trials)" in err
            assert "[replink]" not in err
        assert not trials  # rejected before any trial

    def test_round_count_bound_itself_passes(self):
        chain = parse(["--protocol", "mitm", "--preset", "fig8-optimistic",
                       "--links", "100000", "--duration", "1000"])
        assert chain.link_count * chain.duration_in_tau_link == 10**8
        link = parse(TINY + ["--duration", "100000000"])
        assert link.link_count * link.duration_in_tau_link == 10**8

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="preset"):
            parse(["--protocol", "mitm", "--preset", "warpdrive", "--distances", "10"])

    def test_distances_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            parse(["--protocol", "mitm", "--preset", "qd", "--distances", "10,-5"])

    def test_hardware_required_without_preset(self):
        with pytest.raises(ConfigurationError, match="p_bsa"):
            parse(["--protocol", "mitm", "--topology", "single-link", "--distances", "10"])

    def test_explicit_hardware_flags(self):
        scenario = parse(
            ["--protocol", "mitm", "--topology", "single-link", "--distances", "10",
             "--p-bsa", "0.3", "--cycle-time-ns", "5", "--emission-fraction", "0.9",
             "--collection-efficiency", "0.4"]
        )
        assert scenario.p_bsa == 0.3
        assert scenario.cycle_time_ns == 5.0
        assert scenario.preset is None

    def test_flags_override_preset(self):
        scenario = parse(["--protocol", "mitm", "--preset", "fig8-optimistic", "--trials", "7",
                          "--n", "50"])
        assert scenario.trials == 7
        assert scenario.memory_n == 50
        assert scenario.p_bsa == 0.5  # untouched bundle value survives

    def test_chain_needs_attempting_memory(self):
        with pytest.raises(ConfigurationError, match="reserved"):
            parse(["--protocol", "mitm", "--preset", "optimistic", "--topology", "chain",
                   "--n", "3", "--distances", "10"])

    def test_chain_needs_a_reserved_slot(self):
        with pytest.raises(ConfigurationError, match="reserved_slots >= 1"):
            parse(["--protocol", "mitm", "--preset", "fig8-optimistic", "--reserved-slots", "0"])
        # a single link reserves nothing, so zero slots stay valid there
        assert parse(TINY + ["--reserved-slots", "0"]).reserved_slots == 0

    def test_single_link_rejects_other_link_counts(self, tmp_path):
        with pytest.raises(ConfigurationError, match="exactly one link"):
            parse(TINY + ["--links", "3"])
        config = tmp_path / "links.cfg"
        config.write_text("link_count = 4\n")
        with pytest.raises(ConfigurationError, match="exactly one link"):
            parse(TINY + ["--config", str(config)])
        assert parse(TINY + ["--links", "1"]).link_count == 1
        # a chain preset's ten links give way to the single-link topology
        scenario = parse(["--protocol", "mitm", "--preset", "fig8-optimistic",
                          "--topology", "single-link"])
        assert scenario.link_count == 1

    def test_flag_contract(self):
        parser = cli._build_arg_parser()
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert {flag for flag in flags if flag.startswith("--")} - {"--help"} == LONG_OPTIONS

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "base,field,flag",
        [
            (TINY, "distances_km", "--distances"),
            (TINY, "refractive_index", "--refractive-index"),
            (TINY, "cycle_time_ns", "--cycle-time-ns"),
            (CHAIN, "raw_lifetime_ms", "--raw-lifetime-ms"),
        ],
        ids=["distances", "refractive-index", "cycle-time", "raw-lifetime"],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, base, field, flag, value):
        assert main(base + [flag, value]) == 2
        assert f"{field} must be a finite number" in capsys.readouterr().err
        # a later line of a config file overrides an earlier one
        config = tmp_path / "non_finite.cfg"
        config.write_text(dump_config(parse(base)) + f"{field} = {value}\n")
        assert main(["--config", str(config)]) == 2
        assert f"{field} must be a finite number" in capsys.readouterr().err

    def test_infinite_attenuation_length_is_lossless_fiber(self):
        assert parse(TINY + ["--attenuation-km", "inf"]).attenuation_km == math.inf
        with pytest.raises(ConfigurationError, match="attenuation_km must be a finite number"):
            parse(TINY + ["--attenuation-km", "nan"])

    @pytest.mark.parametrize(
        "field,value", [("protocol", "warp"), ("topology", "ring")], ids=["protocol", "topology"]
    )
    def test_unknown_choice_exits_2_from_flag_and_config(self, tmp_path, capsys, field, value):
        assert main(TINY + [f"--{field}", value, "--dump-config"]) == 2
        assert f"unknown {field} {value!r}; choose one of" in capsys.readouterr().err
        config = tmp_path / "choice.cfg"
        config.write_text(dump_config(parse(TINY)) + f"{field} = {value}\n")
        assert main(["--config", str(config), "--dump-config"]) == 2
        assert f"unknown {field} {value!r}; choose one of" in capsys.readouterr().err


    def test_every_numeric_field_is_checked_with_negative_values(self):
        words = {"protocol", "preset", "topology", "include_analytic"}
        assert sorted(NUMERIC_FIELDS) == sorted(set(cli._SCENARIO_FIELDS) - words)

    @pytest.mark.parametrize("value", ["-inf", "-1e-3"])
    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_negative_values_reach_the_field_rules(self, capsys, name, value):
        # argparse takes a token that starts with '-' and is not a plain number
        # for an option, and its message names neither the field nor its range
        base = CHAIN if name in ("link_count", "raw_lifetime_ms") else TINY
        flag = cli._SCENARIO_FIELDS[name].metadata["flag"]
        message = negative_value_message(name, value)
        # the flag in full, and abbreviated as argparse allows (--p-b for --p-bsa)
        for given in (flag, abbreviation(flag)):
            assert main(base + [given, value, "--dump-config"]) == 2
            assert message in capsys.readouterr().err
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                parse(base + [given, value])
        # so do the distances of a sweep, given in full or abbreviated
        if name == "distances_km":
            sweep = [option for option in TINY if option not in ("--distances", "10,5")]
            message = {"-inf": "sweep parts must be finite", "-1e-3": message}[value]
            for given in ("--sweep", "--sw"):
                assert main(sweep + [given, value + ":50:5", "--dump-config"]) == 2
                assert message in capsys.readouterr().err

    def test_values_that_start_with_a_dash_reach_every_option(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(TINY + ["--config", "-c.cfg"]) == 2
        assert "cannot read config file -c.cfg" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exited:
            main(TINY + ["--format", "-json"])
        assert exited.value.code == 2
        assert "argument --format: invalid choice: '-json'" in capsys.readouterr().err
        assert main(TINY + ["--output", "-report.csv", "--trace", "-round.trace"]) == 0
        assert (tmp_path / "-report.csv").read_text().startswith(",".join(CSV_COLUMNS))
        assert (tmp_path / "-round.trace").read_text().startswith("0,alice,1,")
        # an option after a value option is still an option, so the value is missing
        for argv in (["--p-bsa", "--trials", "3"], ["--output", "-h"]):
            with pytest.raises(SystemExit) as exited:
                main(TINY + argv)
            assert exited.value.code == 2
            assert f"argument {argv[0]}: expected one argument" in capsys.readouterr().err


class TestFieldBounds:
    def test_bounded_fields(self):
        assert [name for name, *_ in BOUNDED] == [
            "p_mid", "p_bsa", "emission_fraction", "collection_efficiency", "link_count",
            "memory_n", "trials", "duration_in_tau_link", "base_seed", "refractive_index",
            "reserved_slots", "epsilon_in",
        ]

    def test_help_shows_every_declared_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for name, flag, low, high in BOUNDED:
            span = (
                f"in [{low}, {high}]" if high is not None
                else "non-negative" if low == 0
                else f"at least {low}"
            )
            # the flag, its metavar, any help text, then the range
            assert re.search(rf"{flag} {name.upper()} ([^;]*; )?{re.escape(span)}", text), name

    @pytest.mark.parametrize("name,flag,low,high", BOUNDED, ids=[name for name, *_ in BOUNDED])
    def test_values_past_a_bound_exit_2_and_the_bound_passes(
        self, tmp_path, capsys, name, flag, low, high
    ):
        # only a chain leaves the link count free; a single link has exactly one
        base = (
            CHAIN if name == "link_count"
            else TINY + ["--protocol", "mps", "--p-mid", "0.5"] if name == "p_mid"
            else TINY
        )
        parse_value = cli._SCENARIO_FIELDS[name].metadata["parse"]
        config = tmp_path / "bounds.cfg"
        outside = (low - 1,) if high is None else (low - 1, high + 1)
        inside = (low,) if high is None else (low, high)
        for value in outside + inside:
            code = 2 if value in outside else 0
            assert main(base + [flag, str(value), "--dump-config"]) == code
            from_flag = capsys.readouterr()
            config.write_text(dump_config(parse(base)) + f"{name} = {value}\n")
            assert main(["--config", str(config), "--dump-config"]) == code
            from_file = capsys.readouterr()
            for captured in (from_flag, from_file):
                if code:
                    assert f"{name} must be" in captured.err
                else:
                    dumped = cli._format_value(parse_value(str(value)))
                    assert f"\n{name} = {dumped}\n" in captured.out


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(
            "protocol = mitm\npreset = optimistic\ntopology = single_link\n"
            "distances_km = 5,10\ntrials = 7\nmemory_n = 12\n"
        )
        scenario = parse(["--config", str(config), "--trials", "9"])
        assert scenario.trials == 9  # flag wins
        assert scenario.memory_n == 12  # file wins over defaults
        assert scenario.p_bsa == 0.5  # via preset named in the file

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("warp_factor = 9\n")
        with pytest.raises(ConfigurationError, match="warp_factor"):
            parse(["--config", str(config)])

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            parse(["--config", "/nonexistent/path.cfg"])

    def test_env_seed_overrides_everything(self, tmp_path):
        scenario = parse(TINY + ["--seed", "5"], env={"REPLINK_SEED": "99"})
        assert scenario.base_seed == 99
        with pytest.raises(ConfigurationError, match="REPLINK_SEED"):
            parse(TINY, env={"REPLINK_SEED": "not-a-number"})

    def test_dump_round_trips(self, tmp_path):
        scenario = parse(TINY)
        dumped = dump_config(scenario)
        config = tmp_path / "dumped.cfg"
        config.write_text(dumped)
        again = parse(["--config", str(config)])
        assert again == scenario

    def test_dump_round_trips_mps_chain(self, tmp_path):
        scenario = parse(["--protocol", "mps", "--preset", "fig9-pessimistic", "--p-mid", "0.1",
                          "--raw-lifetime-ms", "none", "--analytic"])
        assert scenario.raw_lifetime_ms is None
        config = tmp_path / "dumped.cfg"
        config.write_text(dump_config(scenario))
        again = parse(["--config", str(config)])
        assert again == scenario

    def test_explicit_none_survives(self, tmp_path):
        from_flag = parse(["--protocol", "mitm", "--preset", "fig9-pessimistic",
                           "--raw-lifetime-ms", "none"])
        config = tmp_path / "none.cfg"
        config.write_text("preset = fig9-pessimistic\nraw_lifetime_ms = none\n")
        from_file = parse(["--protocol", "mitm", "--config", str(config)])
        for scenario in (from_flag, from_file):
            assert scenario.raw_lifetime_ms is None
            assert "\nraw_lifetime_ms = none\n" in dump_config(scenario)

    @settings(max_examples=200, deadline=None)
    @given(valid_scenarios())
    def test_dump_round_trips_any_valid_scenario(self, tmp_path_factory, scenario):
        config = tmp_path_factory.getbasetemp() / "round_trip.cfg"
        config.write_text(dump_config(scenario))
        assert parse(["--config", str(config)]) == scenario


class TestSweepAndReport:
    def test_rows_sorted_and_shaped(self, capsys):
        scenario = parse(TINY)
        rows = run_sweep(scenario)
        assert [r.link_km for r in rows] == [5.0, 10.0]
        for row in rows:
            assert row.trials == 3
            assert row.seed == 11
            assert row.ci90_low <= row.mean_rate_per_s <= row.ci90_high
            assert row.preset == "optimistic"
            assert row.p_mid is None

    def test_rows_are_a_pure_function_of_scenario(self):
        scenario = parse(TINY)
        assert run_sweep(scenario) == run_sweep(scenario)

    def test_analytic_rows_appended(self):
        scenario = parse(TINY + ["--analytic"])
        rows = run_sweep(scenario)
        mc = [r for r in rows if r.trials > 0]
        closed = [r for r in rows if r.trials == 0]
        assert len(mc) == len(closed) == 2
        for row in closed:
            assert row.ci90_low == row.mean_rate_per_s == row.ci90_high
        # Monte Carlo means land near the closed form at these sizes
        for mc_row, cf_row in zip(mc, closed):
            assert mc_row.mean_rate_per_s == pytest.approx(cf_row.mean_rate_per_s, rel=0.25)

    @pytest.mark.parametrize("topology", ["chain", "single-link"])
    def test_each_distance_derives_its_link_once(self, monkeypatch, topology):
        calls = Counter()
        for module, name in (
            (analytic, "mps_entanglement"), (cli, "build_link_model"), (cli, "analytic_rate")
        ):
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        scenario = parse(["--protocol", "mps", "--preset", "fig8-optimistic", "--p-mid", "0.1",
                          "--topology", topology, "--trials", "2", "--duration", "20",
                          "--distances", "10,20", "--analytic"])
        rows = run_sweep(scenario)
        assert [row.trials for row in rows] == [2, 0, 2, 0]
        assert calls == {"mps_entanglement": 2, "build_link_model": 2, "analytic_rate": 2}

    def test_csv_format_contract(self, tmp_path):
        rows = [ReportRow("mitm", "optimistic", None, 5.0, 3, 49950.123456, 48000.0, 51000.0, 11)]
        out = tmp_path / "report.csv"
        emit_report(rows, "csv", str(out))
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0] == "protocol,preset,p_mid,link_km,trials,mean_rate_per_s,ci90_low,ci90_high,seed"
        fields = lines[1].split(",")
        assert fields[0] == "mitm" and fields[2] == ""
        assert float(fields[5]) == 49950.123456  # full precision round-trip

    def test_json_round_trip(self, tmp_path):
        scenario = parse(TINY)
        rows = run_sweep(scenario)
        out = tmp_path / "report.json"
        emit_report(rows, "json", str(out))
        loaded = json.loads(out.read_text())
        assert loaded == report_dicts(rows)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "csv", "-")


# The (slots, repr(p), cap) round law at 20 km of every preset and protocol
# variant that the benchmark workloads and figure scripts run.
ROUND_LAWS = [
    ("fig8-optimistic", "mitm", None, 97, "0.050361290191141626", 97),
    ("fig8-optimistic", "sr", None, 178, "0.050361290191141626", 16),
    ("fig8-optimistic", "mps", 1.0, 97, "0.0860584317531551", 97),
    ("fig8-optimistic", "mps", 0.1, 97, "0.08587178850769078", 97),
    ("fig8-optimistic", "mps", 0.02, 97, "0.0858428290979438", 97),
    ("fig9-pessimistic", "mitm", None, 97, "0.00040289032152913317", 97),
    ("fig9-pessimistic", "sr", None, 187, "0.00040289032152913317", 7),
    ("fig9-pessimistic", "mps", 1.0, 97, "0.003176079781353969", 97),
    ("fig9-pessimistic", "mps", 0.1, 97, "0.0031757796701145894", 97),
    ("fig9-pessimistic", "mps", 0.02, 97, "0.003175749264861409", 97),
    ("fig10-ion", "mitm", None, 3, "0.00024173419291747988", 3),
    ("fig10-ion", "mps", 1.0, 3, "0.0038137361620545216", 3),
    ("fig10-ion", "mps", 0.5, 3, "0.0038135208193934545", 3),
    ("fig10-ion", "mps", 0.02, 3, "0.0038132938730926274", 3),
    ("fig10-nv", "mitm", None, 3, "6.043354822936997e-05", 3),
    ("fig10-nv", "mps", 1.0, 3, "0.0019031766537191744", 3),
    ("fig10-nv", "mps", 0.5, 3, "0.0019031228185442618", 3),
    ("fig10-nv", "mps", 0.02, 3, "0.0019030613725694173", 3),
    ("fig10-qd", "mitm", None, 3, "0.02417341929174798", 3),
    ("fig10-qd", "mps", 1.0, 3, "0.03952202511142818", 3),
    ("fig10-qd", "mps", 0.5, 3, "0.03949496320321513", 3),
    ("fig10-qd", "mps", 0.02, 3, "0.039469965798550534", 3),
]


@pytest.mark.parametrize(
    "preset,protocol,p_mid,slots,p,cap", ROUND_LAWS,
    ids=[f"{preset}-{protocol}" + ("" if p_mid is None else f"-{p_mid:g}")
         for preset, protocol, p_mid, *_ in ROUND_LAWS],
)
def test_round_laws_are_pinned(preset, protocol, p_mid, slots, p, cap):
    # bit for bit: a reordered float expression in the link's derivation moves
    # every report that samples this law
    argv = ["--preset", preset, "--protocol", protocol]
    if p_mid is not None:
        argv += ["--p-mid", str(p_mid)]
    drawn_slots, drawn_p, drawn_cap = cli.build_link_model(parse(argv), 20.0).round_law
    assert (drawn_slots, repr(drawn_p), drawn_cap) == (slots, p, cap)


class TestMain:
    def test_successful_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        assert main(TINY + ["--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("protocol,")
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(TINY + ["--output", str(out_a)]) == 0
        assert main(TINY + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats alone would add about a second and 45 MB to every process,
        # and scipy.special about 0.3 s, most of it numpy.f2py and numpy.testing
        src = str(Path(__file__).resolve().parents[1] / "src")
        heavy = ("scipy.stats", "scipy.special", "numpy.f2py", "numpy.testing")
        script = f"import sys, replink.cli; print([m for m in {heavy} if m in sys.modules])"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_configuration_error_exits_2(self, capsys):
        assert main(["--protocol", "mps", "--preset", "qd", "--distances", "10"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("base", [TINY, CHAIN], ids=["single-link", "chain"])
    @pytest.mark.parametrize("flag", ["--p-bsa", "--emission-fraction", "--collection-efficiency"])
    @pytest.mark.parametrize("protocol", ["mitm", "sr"])
    def test_zero_success_probability_exits_2(self, capsys, protocol, flag, base):
        assert main(base + ["--protocol", protocol, flag, "0"]) == 2
        assert "impossible when p_bsa * p_optical^2 = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("analytic_rows", [[], ["--analytic"]], ids=["mc", "analytic"])
    def test_receiver_outnumbering_the_sender_exits_2_before_any_trial(
        self, tmp_path, capsys, analytic_rows
    ):
        # lossless at 5 km and 10 km: p = 0.5 gives the receiver 11 of 14 qubits
        out = tmp_path / "rates.csv"
        argv = ["--preset", "fig10-qd", "--protocol", "sr", "--n", "7", "--p-bsa", "0.5",
                "--collection-efficiency", "1", "--attenuation-km", "inf",
                "--distances", "5,10", "--trials", "2", "--output", str(out)]
        assert main(argv + analytic_rows) == 2
        err = capsys.readouterr().err
        assert "gives the receiver 11 and leaves the sender 3," in err
        assert "[replink]" not in err
        assert not out.exists()

    def test_purification_that_never_succeeds_exits_2(self, tmp_path, capsys):
        # (1 - 1)^7 = 0: no purification could succeed, so the rate would read 0
        assert main(CHAIN + ["--epsilon-in", "1"]) == 2
        assert "purification is impossible when (1 - epsilon_in)^7 = 0" in capsys.readouterr().err
        config = tmp_path / "epsilon.cfg"
        config.write_text(dump_config(parse(CHAIN)) + "epsilon_in = 1\n")
        assert main(["--config", str(config)]) == 2
        assert "purification is impossible" in capsys.readouterr().err
        # a single link never purifies, so the field is unused there
        assert main(TINY + ["--epsilon-in", "1"]) == 0
        assert main(CHAIN + ["--epsilon-in", "0.999"]) == 0

    @pytest.mark.parametrize(
        "field,value", [("epsilon_in", "7"), ("epsilon_in", "-0.5"), ("p_mid", "1.5")]
    )
    @pytest.mark.parametrize("base", [TINY, CHAIN], ids=["single-link", "chain"])
    def test_probability_outside_the_unit_interval_exits_2(
        self, tmp_path, capsys, base, field, value
    ):
        # checked with the scenario, so even --dump-config refuses it
        base = base + ["--protocol", "mps", "--p-mid", "0.5"]
        flag = "--" + field.replace("_", "-")
        message = f"{field} must be in [0, 1], got {float(value)!r} ({flag})"
        for extra in ([], ["--dump-config"]):
            assert main(base + [flag, value] + extra) == 2
            assert message in capsys.readouterr().err
        config = tmp_path / "probability.cfg"
        config.write_text(dump_config(parse(base)) + f"{field} = {value}\n")
        assert main(["--config", str(config), "--dump-config"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("p_bsa", "0.7", "p_bsa must be in [0, 0.5], got 0.7 (--p-bsa)"),
            ("collection_efficiency", "2",
             "collection_efficiency must be in [0, 1], got 2.0 (--collection-efficiency)"),
            ("emission_fraction", "-0.1",
             "emission_fraction must be in [0, 1], got -0.1 (--emission-fraction)"),
            ("refractive_index", "0.5",
             "refractive_index must be at least 1, got 0.5 (--refractive-index)"),
            ("attenuation_km", "-1",
             "attenuation_km must be positive, got -1.0 (--attenuation-km)"),
            ("cycle_time_ns", "0.0001", "cycle_time_ns must round to at least 1 ps without "
             "overflowing, got 0.0001 (--cycle-time-ns)"),
            ("cycle_time_ns", "-5", "cycle_time_ns must round to at least 1 ps without "
             "overflowing, got -5.0 (--cycle-time-ns)"),
        ],
        ids=["p-bsa", "collection", "emission", "refractive-index", "attenuation",
             "cycle-rounds-to-zero", "cycle-negative"],
    )
    def test_hardware_value_a_run_refuses_exits_2(self, tmp_path, capsys, field, value, message):
        # checked with the scenario, so even --dump-config refuses it
        flag = "--" + field.replace("_", "-")
        config = tmp_path / "hardware.cfg"
        config.write_text(dump_config(parse(TINY)) + f"{field} = {value}\n")
        for extra in ([], ["--dump-config"]):
            assert main(TINY + [flag, value] + extra) == 2
            assert message in capsys.readouterr().err
            assert main(["--config", str(config)] + extra) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""

    def test_overflowing_attempts_per_bin_exits_2(self, capsys):
        argv = ["--preset", "qd", "--protocol", "mps", "--p-mid", "1e-300",
                "--emission-fraction", "1e-10", "--topology", "single-link",
                "--distances", "10", "--trials", "1"]
        assert main(argv) == 2
        assert "3 / (p_l * p_m) is infinite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--cycle-time-ns", "1e308"],
             "cycle_time_ns must round to at least 1 ps without overflowing, got 1e+308 "
             "(--cycle-time-ns)"),
            (["--cycle-time-ns", "1e308", "--dump-config"],
             "cycle_time_ns must round to at least 1 ps without overflowing, got 1e+308 "
             "(--cycle-time-ns)"),
            (["--refractive-index", "1e308"],
             "the link delay must round to a finite number of picoseconds, got n*L/c = inf s "
             "(n = 1e+308, L = 10000.0 m)"),
            (["--distances", "1e308"],
             "the link delay must round to a finite number of picoseconds, got n*L/c = inf s "
             "(n = 1.5, L = inf m)"),
        ],
        ids=["cycle-time", "cycle-time-dump-config", "refractive-index", "distance"],
    )
    def test_duration_that_overflows_picoseconds_exits_2(self, monkeypatch, capsys, extra, message):
        trials = _spy_on_link_trials(monkeypatch)
        argv = ["--preset", "qd", "--protocol", "mitm", "--topology", "single-link",
                "--trials", "1", "--distances", "10"]
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert f"replink: configuration error: {message}\n" == captured.err
        assert captured.out == ""
        assert not trials

    @pytest.mark.parametrize(
        "topology,delays",
        [(["--topology", "single-link"], 10000), (["--topology", "chain", "--links", "2"], 1000)],
        ids=["single-link", "chain"],
    )
    def test_duration_past_float_seconds_exits_2_before_any_trial(
        self, monkeypatch, capsys, topology, delays
    ):
        # lossless fiber keeps a 1e300 km link possible, and its delays are a
        # finite picosecond count, but no float count of seconds
        trials = _spy_on_link_trials(monkeypatch)
        monkeypatch.setattr(engine, "run_chain_trial", lambda *args: trials.append(args))
        argv = ["--preset", "qd", "--protocol", "mitm", "--trials", "1", "--attenuation-km",
                "inf", "--distances", "10,1e300"] + topology
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "replink: configuration error: the trial duration at 1e+300 km does not fit a "
            f"float count of seconds ({delays} link delays)\n"
        )
        assert captured.out == ""
        assert not trials
        # the scenario itself is valid: --dump-config builds no per-distance model
        assert main(argv + ["--dump-config"]) == 0

    @pytest.mark.parametrize("value", ["1e300", "1e-12"], ids=["overflows", "rounds-to-zero"])
    def test_unconvertible_lifetime_exits_2_before_any_trial(self, monkeypatch, capsys, value):
        # 1e300 ms overflows the picosecond conversion; 1e-12 ms rounds to 0 ps,
        # which would expire every stashed pair and quietly report a zero rate
        trials = []
        monkeypatch.setattr(engine, "run_chain_trial", lambda *args: trials.append(args))
        assert main(CHAIN + ["--raw-lifetime-ms", value]) == 2
        assert "round to at least 1 ps without overflowing" in capsys.readouterr().err
        assert not trials
        # a lifetime that rounds to 1 ps is accepted
        assert parse(CHAIN + ["--raw-lifetime-ms", "6e-10"]).raw_lifetime_ms == 6e-10

    def test_round_longer_than_the_duration_at_a_later_distance_exits_2_before_any_trial(
        self, monkeypatch, capsys
    ):
        trials = _spy_on_link_trials(monkeypatch)
        assert main(U_SHAPED_MPS + ["--distances", "5,200"]) == 2
        err = capsys.readouterr().err
        assert "is shorter than one round of the link at 200.0 km" in err
        assert "[replink]" not in err
        assert not trials
        # the spy sees the trials of a sweep that passes: one batch per distance
        assert main(U_SHAPED_MPS + ["--distances", "5,10"]) == 0
        assert trials == ["run_link_trials", "run_link_trials"]

    def test_trace_of_a_sweep_that_fails_its_round_check_is_not_written(
        self, tmp_path, monkeypatch, capsys
    ):
        trials = _spy_on_link_trials(monkeypatch)
        trace_path = tmp_path / "round.trace"
        argv = U_SHAPED_MPS + ["--distances", "5,200", "--trace", str(trace_path)]
        assert main(argv) == 2
        assert "is shorter than one round of the link at 200.0 km" in capsys.readouterr().err
        assert not trace_path.exists()
        assert not trials

    def test_negative_seed_exits_2(self, capsys, monkeypatch):
        assert main(TINY + ["--seed", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err
        monkeypatch.setenv("REPLINK_SEED", "-1")
        assert main(TINY) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_unwritable_destination_exits_1(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(TINY + ["--output", str(missing_dir)]) == 1
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [TINY, CHAIN], ids=["single-link", "chain"])
    def test_unwritable_path_exits_1_before_any_trial(self, tmp_path, monkeypatch, capsys, argv):
        trials = _spy_on_link_trials(monkeypatch)
        monkeypatch.setattr(engine, "run_chain_trial", lambda *args: trials.append(args))
        missing = tmp_path / "no" / "such" / "dir" / "out"
        report, trace = tmp_path / "report.csv", tmp_path / "round.trace"
        report.write_text("kept\n")
        for paths, bad, error in [
            ([missing, trace], missing, "[Errno 2] No such file or directory"),
            ([report, missing], missing, "[Errno 2] No such file or directory"),
            ([tmp_path, trace], tmp_path, "[Errno 21] Is a directory"),
        ]:
            output, trace_path = paths
            assert main(argv + ["--output", str(output), "--trace", str(trace_path)]) == 1
            assert capsys.readouterr().err == f"replink: i/o error: {error}: '{bad}'\n"
            assert not trials
            # neither file is created or truncated
            assert report.read_text() == "kept\n"
            assert not trace.exists() and not missing.parent.exists()

    def test_output_and_trace_naming_one_file_exit_2_before_any_trial(
        self, tmp_path, monkeypatch, capsys
    ):
        trials = _spy_on_link_trials(monkeypatch)
        monkeypatch.chdir(tmp_path)
        argv = [
            "--protocol", "mitm", "--preset", "optimistic", "--topology", "single-link",
            "--n", "10", "--trials", "3", "--duration", "20", "--distances", "10,5",
        ]
        # the same file named once plainly, then by another path and a symlink
        for trace_path in ["same.txt", str(tmp_path / "same.txt"), "link.txt"]:
            assert main(argv + ["--output", "same.txt", "--trace", trace_path]) == 2
            assert capsys.readouterr().err == (
                "replink: configuration error: --output and --trace name the same file\n"
            )
            assert not trials
            if trace_path == "same.txt":
                # nothing is created
                assert not any(tmp_path.iterdir())
                (tmp_path / "same.txt").write_text("kept\n")
                (tmp_path / "link.txt").symlink_to("same.txt")
            # nor truncated
            assert (tmp_path / "same.txt").read_text() == "kept\n"

    def test_trace_to_stdout_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        # stdout carries the report, so '-' may not name a trace file in the working directory
        trials = _spy_on_link_trials(monkeypatch)
        monkeypatch.chdir(tmp_path)
        argv = ["--protocol", "mitm", "--preset", "optimistic", "--topology", "single-link",
                "--n", "2", "--trials", "1", "--duration", "20", "--distances", "10"]
        assert main(argv + ["--trace", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "replink: configuration error: --trace needs a file path: '-' is the report's stdout\n"
        )
        assert captured.out == ""
        assert not trials
        assert not any(tmp_path.iterdir())

    def test_message_less_error_names_its_type(self, capsys, monkeypatch):
        def run_out_of_memory(scenario):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_sweep", run_out_of_memory)
        assert main(TINY) == 1
        assert capsys.readouterr().err == "replink: error: MemoryError\n"

    def test_dump_config_prints_and_exits(self, capsys):
        assert main(TINY + ["--dump-config"]) == 0
        out = capsys.readouterr().out
        assert "protocol = mitm" in out
        assert "distances_km = 10.0,5.0" in out  # stored as given; sorting happens in the sweep

    def test_stdout_report(self, capsys):
        assert main(TINY) == 0
        out = capsys.readouterr().out
        assert out.startswith("protocol,")

    def test_trace_file(self, tmp_path):
        trace_path = tmp_path / "round.trace"
        assert main(TINY + ["--trace", str(trace_path), "--output", str(tmp_path / "r.csv")]) == 0
        lines = trace_path.read_text().strip().split("\n")
        assert lines, "expected at least the emission transitions"
        for line in lines:
            time_ps, node, slot, old, new, trigger = line.split(",")
            int(time_ps)
            assert old in {"free", "photon_emitted", "latched", "confirmed_entangled", "rejecting"}
            assert new in {"free", "photon_emitted", "latched", "confirmed_entangled", "rejecting"}

    @pytest.mark.parametrize(
        "argv",
        [
            # N * K = 3 * 778855 latch attempts
            ["--preset", "fig10-qd", "--protocol", "mps", "--p-mid", "1e-4", "--distances", "50",
             "--trials", "1"],
            # N_A = 1852974 sender transmissions
            ["--protocol", "sr", "--preset", "optimistic", "--topology", "single-link",
             "--n", "1000000", "--distances", "10", "--trials", "1"],
        ],
        ids=["mps", "sr"],
    )
    def test_trace_of_a_long_round_exits_2_before_any_trial(self, tmp_path, capsys, argv):
        trace_path = tmp_path / "long.trace"
        assert main(argv + ["--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert "transmissions in one round, more than 1000000" in err
        assert "[replink]" not in err
        assert not trace_path.exists()

    def test_trace_bound_counts_one_rounds_transmissions(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_TRACE_TRANSMISSIONS", 10)
        argv = TINY + ["--trace", str(tmp_path / "t"), "--output", str(tmp_path / "r.csv")]
        assert main(argv) == 0  # N = 10 transmissions per mitm round
        assert main(argv + ["--n", "11"]) == 2
        assert "--trace would step 11 transmissions" in capsys.readouterr().err

    def test_trace_for_mps(self, tmp_path):
        trace_path = tmp_path / "mps.trace"
        argv = ["--protocol", "mps", "--preset", "qd", "--p-mid", "1", "--topology", "single-link",
                "--n", "2", "--trials", "1", "--duration", "30", "--distances", "5",
                "--trace", str(trace_path), "--output", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        assert "latch" in trace_path.read_text()
