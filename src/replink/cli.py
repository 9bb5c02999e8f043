"""Scenario definition, distance sweeps, and plot-ready reports.

A scenario pins one protocol plus hardware and campaign parameters; the
sweep runs ``trials`` independent seeded trials per link distance and
reports mean rates with empirical 90% intervals. Rows are a pure function
of (scenario, base seed): re-running a scenario re-creates the report
byte for byte.

Scenario sources merge in increasing precedence: built-in defaults,
``--preset`` bundle, config file, command-line flags; the environment
variable ``REPLINK_SEED`` overrides the base seed last. Figure presets
(``fig8-optimistic``, ``fig9-pessimistic``, ``fig10-ion``, ``fig10-nv``,
``fig10-qd``) bundle whole campaign parameter sets so each headline plot
is reproducible from one command.

Config keys, flags, defaults, value ranges (checked by one loop, shown by
``--help``) and ``--dump-config`` derive from the ``Scenario`` field
declarations; report columns derive from ``ReportRow``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, engine, params, protocol
from .params import ConfigurationError, Duration, MemoryBudget, ProtocolConfig, ProtocolKind

__all__ = [
    "Scenario",
    "RunOptions",
    "ReportRow",
    "CSV_COLUMNS",
    "parse_scenario",
    "dump_config",
    "build_link_model",
    "build_chain_model",
    "analytic_rate",
    "run_sweep",
    "emit_report",
    "report_dicts",
    "main",
]

_PROTOCOLS = tuple(kind.value for kind in ProtocolKind)
_TOPOLOGIES = ("single_link", "chain")

# A round lasts at least one link delay, so a chain trial, or a single link
# whose sender-receiver cap can bind, holds at most
# duration_in_tau_link * link_count round counts (8 bytes each: 800 MB).
_MAX_ROUND_COUNTS = 10**8
_MAX_SWEEP_DISTANCES = 10**4
_MAX_MEMORY_N = 10**6  # the sender-receiver law holds arrays over N_A < 2 * memory_n outcomes
# A round law's inverse-CDF table (engine.LinkModel.round_table) holds at most
# 80 * (sigma + 1) counts, sigma = sqrt(slots * p * (1 - p)) <= sqrt(slots) / 2,
# and a guide of 8 to 16 buckets per count: below 2 * _MAX_MEMORY_N slots, at
# most 32,631 counts and 2**18 buckets (2.4 MB), at p = 1/2.
# A sweep cell holds one rate per trial, and summarizing them peaks at about
# 80 bytes per trial (by tracemalloc, on either topology): 800 MB.
_MAX_TRIALS = 10**7
_MAX_TRACE_TRANSMISSIONS = 10**6  # --trace steps a round one transmission at a time


# -- presets -------------------------------------------------------------

# Hardware presets as scenario field values. The single-photon detectors
# behind the hardware platforms are nanowire detectors with 0.80 quantum
# efficiency, giving an analyzer success of 0.24; the bracketing parameter
# sets pin the analyzer directly.
_HARDWARE_FIELDS = ("cycle_time_ns", "emission_fraction", "collection_efficiency", "p_bsa")
_HARDWARE_PRESETS = {
    name: dict(zip(_HARDWARE_FIELDS, values))
    for name, values in (
        ("ion", (1000.0, 1.00, 0.05, 0.24)),
        ("nv", (100.0, 0.05, 0.50, 0.24)),
        ("qd", (10.0, 1.00, 0.50, 0.24)),
        ("optimistic", (1.0, 1.00, 0.50, 0.5)),
        ("pessimistic", (1.0, 1.00, 0.10, 0.1)),
    )
}

# Both figure campaigns run 1000 trials at 5..50 km in 5 km steps.
_CHAIN_CAMPAIGN = {
    "topology": "chain", "link_count": 10, "memory_n": 100, "duration_in_tau_link": 1000,
    "trials": 1000, "distances_km": tuple(float(d) for d in range(5, 55, 5)),
}
_SINGLE_LINK_CAMPAIGN = {
    **_CHAIN_CAMPAIGN,
    "topology": "single_link", "link_count": 1, "memory_n": 3, "duration_in_tau_link": 10_000,
}

_FIGURE_PRESETS = {
    "fig8-optimistic": ("optimistic", _CHAIN_CAMPAIGN),
    "fig9-pessimistic": ("pessimistic", _CHAIN_CAMPAIGN),
    "fig10-ion": ("ion", _SINGLE_LINK_CAMPAIGN),
    "fig10-nv": ("nv", _SINGLE_LINK_CAMPAIGN),
    "fig10-qd": ("qd", _SINGLE_LINK_CAMPAIGN),
}

PRESET_CHOICES = tuple(sorted(_HARDWARE_PRESETS)) + tuple(sorted(_FIGURE_PRESETS))


def _preset_bundle(name: str) -> dict:
    """The scenario fields a hardware or figure preset sets."""
    hardware, campaign = _FIGURE_PRESETS.get(name, (name, {}))
    if hardware not in _HARDWARE_PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_CHOICES)}"
        )
    return {**_HARDWARE_PRESETS[hardware], **campaign, "preset": name}


# -- field parsers ---------------------------------------------------------


def _parse_distances(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(f"cannot parse distance list {text!r}") from None


def _parse_sweep(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:  # also too few or too many parts
        raise ConfigurationError(f"sweep must look like start:stop:step, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and 0 < step < math.inf):
        raise ConfigurationError(f"sweep parts must be finite and its step positive, got {text!r}")
    distances = []
    value = start
    while value <= stop + 1e-9:
        # also stops a step too small to advance the value
        if len(distances) == _MAX_SWEEP_DISTANCES:
            raise ConfigurationError(
                f"sweep {text!r} has more than {_MAX_SWEEP_DISTANCES} distances"
            )
        distances.append(round(value, 9))
        value += step
    return tuple(distances)


def _or_none(parse):
    """A parser that also reads 'none' as an explicit None."""
    return lambda text: None if text.strip().lower() == "none" else parse(text)


def _one_of(kind: str, choices: tuple[str, ...]):
    """A parser that accepts one of ``choices``, reading '-' as '_'."""

    def parse(text: str) -> str:
        value = text.replace("-", "_")
        if value not in choices:
            raise ConfigurationError(
                f"unknown {kind} {text!r}; choose one of {', '.join(choices)}"
            )
        return value

    return parse


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"cannot parse boolean {text!r}")


# -- schema ----------------------------------------------------------------


def _span(low, high) -> str:
    """The range [``low``, ``high``] in words; a ``high`` of None is open."""
    if high is not None:
        return f"in [{low}, {high}]"
    return "non-negative" if low == 0 else f"at least {low}"


def _field(flag: str, parse, default=dataclasses.MISSING, *, low=None, high=None, **flag_options):
    """Declare a scenario field: ``parse`` reads its text from a config file
    or from ``flag``, which gets ``flag_options`` as argparse keywords. Its
    value, if not None, lies in [``low``, ``high``], as ``--help`` shows."""
    if low is not None:
        flag_options["help"] = "; ".join(filter(None, (flag_options.get("help"), _span(low, high))))
    return dataclasses.field(
        default=default,
        metadata={"flag": flag, "parse": parse, "flag_options": flag_options, "bounds": (low, high)},
    )


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One campaign. Fields without a default come from a flag, the config
    file or a preset; ``link_count`` and ``duration_in_tau_link`` default by
    topology."""

    protocol: str = _field(
        "--protocol", _one_of("protocol", _PROTOCOLS), help="one of " + ", ".join(_PROTOCOLS)
    )
    preset: str | None = _field(
        "--preset", _or_none(str), None,
        help="hardware or figure preset: " + ", ".join(PRESET_CHOICES),
    )
    p_mid: float | None = _field(
        "--p-mid", _or_none(float), None, low=0, high=1,
        help="pair-generation probability of the midpoint source (mps only)",
    )
    # a linear-optics analyzer succeeds for at most half of attempts
    p_bsa: float = _field("--p-bsa", float, low=0, high=0.5)
    cycle_time_ns: float = _field("--cycle-time-ns", float)
    emission_fraction: float = _field("--emission-fraction", float, low=0, high=1)
    collection_efficiency: float = _field("--collection-efficiency", float, low=0, high=1)
    topology: str = _field(
        "--topology", _one_of("topology", _TOPOLOGIES), "single_link",
        help="single-link or chain",
    )
    link_count: int = _field("--links", int, low=1)
    memory_n: int = _field(
        "--n", int, 100, low=1, high=_MAX_MEMORY_N, help="memory qubits per link interface"
    )
    distances_km: tuple[float, ...] = _field(
        "--distances", _parse_distances, help="comma-separated distances in km"
    )
    trials: int = _field("--trials", int, 1000, low=1, high=_MAX_TRIALS)
    duration_in_tau_link: int = _field(
        "--duration", int, low=1, help="trial duration in units of the one-way link delay"
    )
    base_seed: int = _field("--seed", int, 1, low=0)
    refractive_index: float = _field("--refractive-index", float, 1.5, low=1)
    attenuation_km: float = _field("--attenuation-km", float, 22.0)
    reserved_slots: int = _field("--reserved-slots", int, 3, low=0)
    epsilon_in: float = _field("--epsilon-in", float, 0.05, low=0, high=1)
    raw_lifetime_ms: float | None = _field(
        "--raw-lifetime-ms", _or_none(float), 10.0,
        help="raw-pair freshness horizon for chain trials; 'none' disables",
    )
    # the bare flag stores the text "true", which the field's parser reads
    include_analytic: bool = _field(
        "--analytic", _parse_bool, False, action="store_const", const="true",
        help="emit closed-form rate rows (trials column 0) alongside the Monte Carlo rows",
    )


_SCENARIO_FIELDS = {field.name: field for field in dataclasses.fields(Scenario)}

# Every command-line option with its argparse keywords, in --help order.
_OPTIONS = {
    "--config": {"help": "config file of 'key = value' scenario fields"},
    **{
        field.metadata["flag"]: {"dest": name, **field.metadata["flag_options"]}
        for name, field in _SCENARIO_FIELDS.items()
    },
    "--sweep": {"help": "distances as start:stop:step in km, inclusive"},
    "--dump-config": {"action": "store_true", "help": "print the fully resolved scenario and exit"},
    "--trace": {
        "dest": "trace_path", "help": "write one stepped round's state transitions to this file"
    },
    "--format": {"choices": ("csv", "json"), "dest": "report_format"},
    "--output": {"help": "report destination path, '-' for stdout"},
}


@dataclass(frozen=True)
class RunOptions:
    report_format: str = "csv"
    output: str = "-"
    dump_config: bool = False
    trace_path: str | None = None


@dataclass(frozen=True)
class ReportRow:
    protocol: str
    preset: str
    p_mid: float | None
    link_km: float
    trials: int
    mean_rate_per_s: float
    ci90_low: float
    ci90_high: float
    seed: int


CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(ReportRow))


# -- scenario parsing ----------------------------------------------------


def _parse_field(name: str, text: str, where: str = ""):
    """Read one scenario field from its text in a config file or a flag."""
    field = _SCENARIO_FIELDS[name]
    try:
        return field.metadata["parse"](text)
    except ConfigurationError:
        raise
    except ValueError:
        low, high = field.metadata["bounds"]
        rule = "" if low is None else f"; {name} must be {_span(low, high)}"
        raise ConfigurationError(f"{where}bad value for {name}: {text!r}{rule}") from None


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCENARIO_FIELDS:
            raise ConfigurationError(f"{path}:{lineno}: unknown scenario field {key!r}")
        values[key] = _parse_field(key, value, f"{path}:{lineno}: ")
    return values


def dump_config(scenario: Scenario) -> str:
    """Flat key/value text that re-parses to an identical scenario."""
    lines = []
    for name in _SCENARIO_FIELDS:
        lines.append(f"{name} = {_format_value(getattr(scenario, name), none='none')}")
    return "\n".join(lines) + "\n"


def _build_arg_parser() -> argparse.ArgumentParser:
    # Flags left off the command line stay out of the namespace, so an
    # explicit 'none' is told apart from a field no source set.
    parser = argparse.ArgumentParser(
        prog="replink",
        description="Simulate and tabulate entanglement-distribution rates for repeater link protocols.",
        argument_default=argparse.SUPPRESS,
    )
    for flag, options in _OPTIONS.items():
        parser.add_argument(flag, **options)
    return parser


def _takes_value(token: str) -> bool:
    """Whether ``token`` names an option that takes a value, in full or by
    an abbreviation that argparse accepts (a prefix of no other option)."""
    if token not in _OPTIONS:
        named = [flag for flag in _OPTIONS if token.startswith("--") and flag.startswith(token)]
        if len(named) != 1:
            return False
        token = named[0]
    return "action" not in _OPTIONS[token]


def _join_negative_values(argv: list) -> list:
    """``argv`` with each option that takes a value joined to a next token
    that starts with a single '-' (``--p-bsa -1e-3`` becomes
    ``--p-bsa=-1e-3``, ``--sweep -5:50:5`` becomes ``--sweep=-5:50:5``):
    argparse would take that token for an option, and exit with a message
    that names neither the field nor its range. A next token that starts
    with '--', or is -h, is left to argparse as an option."""
    args = list(argv)
    for i in reversed(range(len(args) - 1)):
        flag, value = args[i : i + 2]
        option = value.startswith("--") or value == "-h"
        if _takes_value(flag) and value.startswith("-") and not option:
            args[i : i + 2] = [f"{flag}={value}"]
    return args


def parse_scenario(argv=None, env=None) -> tuple[Scenario, RunOptions]:
    """Resolve flags, optional config file, and environment into a scenario."""
    env = os.environ if env is None else env
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    given = vars(_build_arg_parser().parse_args(argv))
    options = RunOptions(
        **{f.name: given.pop(f.name) for f in dataclasses.fields(RunOptions) if f.name in given}
    )
    config = given.pop("config", None)
    sweep = given.pop("sweep", None)

    flag_values = {name: _parse_field(name, text) for name, text in given.items()}
    if sweep is not None:
        # an explicit distance list wins over a sweep
        flag_values.setdefault("distances_km", _parse_sweep(sweep))
    explicit = _read_config_file(config) if config else {}
    explicit.update(flag_values)

    merged = {
        name: field.default
        for name, field in _SCENARIO_FIELDS.items()
        if field.default is not dataclasses.MISSING
    }
    if explicit.get("preset") is not None:
        merged.update(_preset_bundle(explicit["preset"]))
    merged.update(explicit)

    if "REPLINK_SEED" in env:
        merged["base_seed"] = _parse_field("base_seed", env["REPLINK_SEED"], "REPLINK_SEED: ")

    return _validate_scenario(merged, explicit.get("link_count")), options


def _validate_scenario(merged: dict, explicit_links: int | None) -> Scenario:
    """Check the merged fields and build the scenario.

    ``explicit_links`` is the link count given by flag or config file, if
    any; a single link rejects any other count there, while a preset's chain
    length is simply replaced by one.
    """
    topology = merged["topology"]
    campaign = _CHAIN_CAMPAIGN if topology == "chain" else _SINGLE_LINK_CAMPAIGN
    for name in ("link_count", "duration_in_tau_link"):
        merged.setdefault(name, campaign[name])
    # each field alone: present, finite, and inside its declared bounds
    for name, field in _SCENARIO_FIELDS.items():
        if name not in merged:
            raise ConfigurationError(
                f"missing required scenario field {name!r}; set it via flag, config file, or preset"
            )
        value = merged[name]
        low, high = field.metadata["bounds"]
        if value is not None and low is not None and (
            value < low or high is not None and value > high
        ):
            raise _field_error(name, "be " + _span(low, high), value)
        for number in value if isinstance(value, tuple) else (value,):
            # an infinite attenuation length is lossless fiber; -inf fails the
            # positive rule below
            lossless = name == "attenuation_km" and math.isinf(number)
            if isinstance(number, float) and not math.isfinite(number) and not lossless:
                raise _field_error(name, "be a finite number", number)
    # the rules no closed range states
    if not merged["attenuation_km"] > 0:
        raise _field_error("attenuation_km", "be positive", merged["attenuation_km"])
    # durations are held in whole picoseconds, so 0.5 ps rounds to 0
    for name, ps_per_unit in (("cycle_time_ns", 1e3), ("raw_lifetime_ms", 1e9)):
        value = merged[name]
        if value is not None and not 0.5 < value * ps_per_unit < math.inf:
            raise _field_error(name, "round to at least 1 ps without overflowing", value)

    if topology == "single_link":
        if explicit_links not in (None, 1):
            raise ConfigurationError(
                f"a single-link topology has exactly one link, got link_count {explicit_links}"
            )
        merged["link_count"] = 1

    distances = merged["distances_km"]
    if not distances or any(d <= 0 for d in distances):
        raise ConfigurationError("distances_km must be a non-empty list of positive distances")

    protocol_name, p_mid = merged["protocol"], merged["p_mid"]
    if protocol_name == "mps" and p_mid is None:
        raise ConfigurationError("the mps protocol requires --p-mid")
    if protocol_name != "mps" and p_mid is not None:
        raise ConfigurationError(f"--p-mid only applies to mps, not {protocol_name}")

    round_counts = merged["duration_in_tau_link"] * merged["link_count"]
    if round_counts > _MAX_ROUND_COUNTS:
        raise ConfigurationError(
            f"duration_in_tau_link * link_count = {round_counts} exceeds {_MAX_ROUND_COUNTS}: "
            "a trial would hold that many round counts"
        )
    if topology == "chain" and merged["reserved_slots"] < 1:
        raise ConfigurationError(
            "chain scenarios need reserved_slots >= 1: purified pairs wait in the reserved "
            "slots until every link can swap, so with none no end-to-end pair is ever made"
        )
    if topology == "chain" and merged["memory_n"] - merged["reserved_slots"] < 1:
        raise ConfigurationError(
            "chain scenarios need memory_n > reserved_slots so some qubits attempt entanglement"
        )
    return Scenario(**merged)


def _field_error(name: str, rule: str, value) -> ConfigurationError:
    """The error for a field value that breaks ``rule``, naming where it is set."""
    sources = _SCENARIO_FIELDS[name].metadata["flag"]
    sources += ", REPLINK_SEED" if name == "base_seed" else ""
    return ConfigurationError(f"{name} must {rule}, got {value!r} ({sources})")


# -- model construction --------------------------------------------------


def build_link_model(scenario: Scenario, distance_km: float) -> engine.LinkModel:
    """Derive one link's protocol config and probabilities at a distance."""
    length_m = distance_km * 1000.0
    tau_link = params.link_delay(length_m, scenario.refractive_index)
    tau_clock = Duration.from_ns(scenario.cycle_time_ns)
    p_optical = params.optical_transmission(
        scenario.emission_fraction, scenario.collection_efficiency, length_m,
        scenario.attenuation_km * 1000.0,
    )
    n = scenario.memory_n
    if scenario.topology == "chain":
        n -= scenario.reserved_slots  # reserved qubits hold purified pairs, not attempts

    if scenario.protocol == "mps":
        p = params.mps_success_probability(scenario.p_bsa, p_optical)
        k = analytic.mps_attempts_per_bin(p, scenario.p_mid)
        config = ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(n), k_attempts=k)
    else:
        p = params.link_success_probability(scenario.p_bsa, p_optical)
        if p <= 0.0:
            raise ConfigurationError(
                "entanglement is impossible when p_bsa * p_optical^2 = 0 "
                f"(p_bsa = {scenario.p_bsa:g}, p_optical = {p_optical:g})"
            )
        if scenario.protocol == "mitm":
            config = ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(n))
        else:
            memory = MemoryBudget.sender_receiver(*analytic.sr_receiver_allocation(n, p))
            config = ProtocolConfig(ProtocolKind.SR, memory)
    return engine.LinkModel(config, p, tau_link, tau_clock, p_mid=scenario.p_mid)


def build_chain_model(scenario: Scenario, distance_km: float) -> engine.ChainModel:
    link = build_link_model(scenario, distance_km)
    lifetime = (
        None if scenario.raw_lifetime_ms is None else Duration.from_ms(scenario.raw_lifetime_ms)
    )
    policy = engine.PurificationPolicy(
        epsilon_in=scenario.epsilon_in,
        buffer_capacity=scenario.reserved_slots,
        raw_pair_lifetime=lifetime,
    )
    return engine.ChainModel(link, scenario.link_count, policy)


def analytic_rate(link: engine.LinkModel) -> analytic.RateBundle:
    """Closed-form rate of the link model a sweep cell's Monte Carlo rows
    sampled, reusing its midpoint-source law; chain rows use the same
    per-link formula (the chain pipeline has no closed form)."""
    slots, _, cap = link.round_law
    if link.config.kind is ProtocolKind.MITM:
        return analytic.mitm_rate(slots, link.p, link.tau_link, link.tau_clock)
    if link.config.kind is ProtocolKind.SR:
        return analytic.sr_rate(slots, cap, link.p, link.tau_link, link.tau_clock)
    return analytic.mps_rate(slots, link.mps_entanglement, link.tau_link, link.tau_clock)


# -- sweep and report ----------------------------------------------------


def run_sweep(scenario: Scenario, progress=None) -> list[ReportRow]:
    """Run every (distance, trial) cell and summarize rates per distance."""
    progress = sys.stderr if progress is None else progress
    preset_label = scenario.preset or "custom"
    chain = scenario.topology == "chain"
    build = build_chain_model if chain else build_link_model
    # One model per distance, shared by its trials and its analytic row. All
    # are built, and each round checked to fit the duration, before the first
    # trial, so a bad distance late in the sweep fails before any work.
    distances = sorted(scenario.distances_km)
    models = [build(scenario, distance) for distance in distances]
    links = [model.link if chain else model for model in models]
    durations = [scenario.duration_in_tau_link * link.tau_link for link in links]
    for distance, link, duration in zip(distances, links, durations):
        engine.round_count(link, duration, f"the link at {_format_value(distance)} km")
        if duration.ps > sys.float_info.max:  # every rate divides by its seconds
            raise ConfigurationError(
                f"the trial duration at {_format_value(distance)} km does not fit a float "
                f"count of seconds ({scenario.duration_in_tau_link} link delays)"
            )
    rows = []
    for distance, model, link, duration in zip(distances, models, links, durations):
        cell = (model, duration, scenario.base_seed, scenario.trials)
        if chain:  # a chain trial runs for the full duration
            events = [stats.end_to_end_ebits for stats in engine.run_chain_trials(*cell)]
            elapsed = duration
        else:  # a link trial runs for whole rounds
            events, elapsed = engine.run_link_trials(*cell)
        rates = np.divide(events, elapsed.seconds)
        summary = engine.summarize(rates)
        print(
            f"[replink] {scenario.protocol} {preset_label} L={_format_value(distance)} km: "
            f"{scenario.trials} trials, mean {summary.mean:.6g} /s",
            file=progress,
        )
        row = ReportRow(
            protocol=scenario.protocol,
            preset=preset_label,
            p_mid=scenario.p_mid,
            link_km=float(distance),
            trials=scenario.trials,
            mean_rate_per_s=summary.mean,
            ci90_low=summary.ci90_low,
            ci90_high=summary.ci90_high,
            seed=scenario.base_seed,
        )
        rows.append(row)
        if scenario.include_analytic:
            rate = analytic_rate(link).rate_per_s
            overlay = dataclasses.replace(
                row, trials=0, mean_rate_per_s=rate, ci90_low=rate, ci90_high=rate
            )
            rows.append(overlay)
    return rows


def _format_value(value, none: str = "") -> str:
    """Text of a report cell or a config value, with ``none`` for None."""
    if value is None:
        return none
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr keeps full round-trip precision (well past 6 significant digits)
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(_format_value(item, none) for item in value)
    return str(value)


def report_dicts(rows) -> list[dict]:
    return [dataclasses.asdict(row) for row in rows]


def emit_report(rows, report_format: str, destination: str) -> None:
    """Write the sweep table as CSV or JSON to a path or stdout ('-')."""
    if not rows:
        raise ValueError("refusing to emit an empty report")
    if report_format == "csv":
        text = _render_csv(rows)
    elif report_format == "json":
        text = json.dumps(report_dicts(rows), indent=2) + "\n"
    else:
        raise ConfigurationError(f"unknown report format {report_format!r}")
    if destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, column)) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _trace_round(scenario: Scenario) -> list:
    """Step one round of the scenario's first distance, logging its transitions."""
    distance = sorted(scenario.distances_km)[0]
    link = build_link_model(scenario, distance)
    # N slots for mitm, N_A for sr, and N bins of K latch attempts for mps
    transmissions = link.round_law[0] * (link.config.k_attempts or 1)
    if transmissions > _MAX_TRACE_TRANSMISSIONS:
        raise ConfigurationError(
            f"--trace would step {transmissions} transmissions in one round, "
            f"more than {_MAX_TRACE_TRANSMISSIONS}"
        )
    trace: list = []
    protocol.step_round(np.random.default_rng(scenario.base_seed), link, trace)
    return trace


def _check_writable(path: str) -> None:
    """Raise the error that writing a file at ``path`` would raise, without
    creating or truncating it."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def main(argv=None) -> int:
    try:
        scenario, options = parse_scenario(argv)
        if options.dump_config:
            sys.stdout.write(dump_config(scenario))
            return 0
        # the trace's bound and both files are checked before any trial, and
        # the files are written after every trial
        if options.trace_path == "-":
            raise ConfigurationError("--trace needs a file path: '-' is the report's stdout")
        if options.output != "-" and options.trace_path and (
            os.path.realpath(options.output) == os.path.realpath(options.trace_path)
        ):
            raise ConfigurationError("--output and --trace name the same file")
        trace = _trace_round(scenario) if options.trace_path else None
        if options.trace_path:
            _check_writable(options.trace_path)
        if options.output != "-":  # stdout
            _check_writable(options.output)
        rows = run_sweep(scenario)
        if trace is not None:
            with open(options.trace_path, "w", encoding="utf-8") as fh:
                fh.writelines(protocol.format_trace_entry(entry) + "\n" for entry in trace)
        emit_report(rows, options.report_format, options.output)
    except ConfigurationError as exc:
        print(f"replink: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"replink: i/o error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"replink: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
