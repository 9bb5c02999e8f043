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
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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

CSV_COLUMNS = (
    "protocol",
    "preset",
    "p_mid",
    "link_km",
    "trials",
    "mean_rate_per_s",
    "ci90_low",
    "ci90_high",
    "seed",
)

_PROTOCOLS = ("mitm", "sr", "mps")
_TOPOLOGIES = ("single_link", "chain")


@dataclass(frozen=True)
class Scenario:
    protocol: str
    preset: str | None
    p_mid: float | None
    p_bsa: float
    cycle_time_ns: float
    emission_fraction: float
    collection_efficiency: float
    topology: str
    link_count: int
    memory_n: int
    distances_km: tuple[float, ...]
    trials: int
    duration_in_tau_link: int
    base_seed: int
    refractive_index: float = 1.5
    attenuation_km: float = 22.0
    reserved_slots: int = 3
    epsilon_in: float = 0.05
    raw_lifetime_ms: float | None = 10.0
    include_analytic: bool = False


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


# -- presets -------------------------------------------------------------


def _hardware_bundle(name: str) -> dict:
    profile = params.hardware_preset(name)
    return {
        "preset": name,
        "cycle_time_ns": profile.cycle_time.ps / 1000.0,
        "emission_fraction": profile.emission_fraction,
        "collection_efficiency": profile.collection_efficiency,
        "p_bsa": params.preset_bsa_probability(name),
    }


_SWEEP_5_50 = tuple(float(d) for d in range(5, 55, 5))

_CHAIN_CAMPAIGN = {
    "topology": "chain",
    "link_count": 10,
    "memory_n": 100,
    "trials": 1000,
    "duration_in_tau_link": 1000,
    "distances_km": _SWEEP_5_50,
}

_SINGLE_LINK_CAMPAIGN = {
    "topology": "single_link",
    "link_count": 1,
    "memory_n": 3,
    "trials": 1000,
    "duration_in_tau_link": 10_000,
    "distances_km": _SWEEP_5_50,
}

_FIGURE_PRESETS = {
    "fig8-optimistic": ("optimistic", _CHAIN_CAMPAIGN),
    "fig9-pessimistic": ("pessimistic", _CHAIN_CAMPAIGN),
    "fig10-ion": ("ion", _SINGLE_LINK_CAMPAIGN),
    "fig10-nv": ("nv", _SINGLE_LINK_CAMPAIGN),
    "fig10-qd": ("qd", _SINGLE_LINK_CAMPAIGN),
}

PRESET_CHOICES = params.PRESET_NAMES + tuple(sorted(_FIGURE_PRESETS))


def _preset_bundle(name: str) -> dict:
    if name in _FIGURE_PRESETS:
        hardware, campaign = _FIGURE_PRESETS[name]
        bundle = _hardware_bundle(hardware)
        bundle.update(campaign)
        bundle["preset"] = name
        return bundle
    if name in params.PRESET_NAMES:
        return _hardware_bundle(name)
    raise ConfigurationError(
        f"unknown preset {name!r}; valid presets: {', '.join(PRESET_CHOICES)}"
    )


# -- scenario parsing ----------------------------------------------------


def _parse_distances(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(f"cannot parse distance list {text!r}") from None


def _parse_sweep(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"sweep must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"sweep must look like start:stop:step, got {text!r}") from None
    if step <= 0:
        raise ConfigurationError("sweep step must be positive")
    distances = []
    value = start
    while value <= stop + 1e-9:
        distances.append(round(value, 9))
        value += step
    return tuple(distances)


def _parse_optional_float(text: str) -> float | None:
    return None if text.strip().lower() == "none" else float(text)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"cannot parse boolean {text!r}")


_FIELD_PARSERS = {
    "protocol": str,
    "preset": lambda s: None if s.lower() == "none" else s,
    "p_mid": _parse_optional_float,
    "p_bsa": float,
    "cycle_time_ns": float,
    "emission_fraction": float,
    "collection_efficiency": float,
    "topology": str,
    "link_count": int,
    "memory_n": int,
    "distances_km": _parse_distances,
    "trials": int,
    "duration_in_tau_link": int,
    "base_seed": int,
    "refractive_index": float,
    "attenuation_km": float,
    "reserved_slots": int,
    "epsilon_in": float,
    "raw_lifetime_ms": _parse_optional_float,
    "include_analytic": _parse_bool,
}


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
        if key not in _FIELD_PARSERS:
            raise ConfigurationError(f"{path}:{lineno}: unknown scenario field {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ConfigurationError:
            raise
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def dump_config(scenario: Scenario) -> str:
    """Flat key/value text that re-parses to an identical scenario."""
    lines = []
    for field in dataclasses.fields(Scenario):
        value = getattr(scenario, field.name)
        if field.name == "distances_km":
            rendered = ",".join(_format_number(d) for d in value)
        elif value is None:
            rendered = "none"
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        else:
            rendered = _format_number(value) if isinstance(value, float) else str(value)
        lines.append(f"{field.name} = {rendered}")
    return "\n".join(lines) + "\n"


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replink",
        description="Simulate and tabulate entanglement-distribution rates for repeater link protocols.",
    )
    parser.add_argument("--config", help="config file of 'key = value' scenario fields")
    parser.add_argument("--protocol", choices=_PROTOCOLS)
    parser.add_argument("--preset", help="hardware or figure preset: " + ", ".join(PRESET_CHOICES))
    parser.add_argument("--p-mid", type=float, dest="p_mid",
                        help="pair-generation probability of the midpoint source (mps only)")
    parser.add_argument("--p-bsa", type=float, dest="p_bsa")
    parser.add_argument("--cycle-time-ns", type=float, dest="cycle_time_ns")
    parser.add_argument("--emission-fraction", type=float, dest="emission_fraction")
    parser.add_argument("--collection-efficiency", type=float, dest="collection_efficiency")
    parser.add_argument("--topology", choices=("single-link", "chain"))
    parser.add_argument("--links", type=int, dest="link_count")
    parser.add_argument("--n", type=int, dest="memory_n", help="memory qubits per link interface")
    parser.add_argument("--sweep", help="distances as start:stop:step in km, inclusive")
    parser.add_argument("--distances", help="comma-separated distances in km")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--duration", type=int, dest="duration_in_tau_link",
                        help="trial duration in units of the one-way link delay")
    parser.add_argument("--seed", type=int, dest="base_seed")
    parser.add_argument("--refractive-index", type=float, dest="refractive_index")
    parser.add_argument("--attenuation-km", type=float, dest="attenuation_km")
    parser.add_argument("--reserved-slots", type=int, dest="reserved_slots")
    parser.add_argument("--epsilon-in", type=float, dest="epsilon_in")
    parser.add_argument("--raw-lifetime-ms", dest="raw_lifetime_ms",
                        help="raw-pair freshness horizon for chain trials; 'none' disables")
    parser.add_argument("--analytic", action="store_true", dest="include_analytic",
                        help="emit closed-form rate rows (trials column 0) alongside the Monte Carlo rows")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the fully resolved scenario and exit")
    parser.add_argument("--trace", dest="trace_path",
                        help="write one stepped round's state transitions to this file")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default="-", help="report destination path, '-' for stdout")
    return parser


_BASE_DEFAULTS = {
    "preset": None,
    "p_mid": None,
    "topology": "single_link",
    "refractive_index": 1.5,
    "attenuation_km": 22.0,
    "trials": 1000,
    "base_seed": 1,
    "reserved_slots": 3,
    "epsilon_in": 0.05,
    "raw_lifetime_ms": 10.0,
    "include_analytic": False,
}


def parse_scenario(argv=None, env=None) -> tuple[Scenario, RunOptions]:
    """Resolve flags, optional config file, and environment into a scenario."""
    env = os.environ if env is None else env
    parser = _build_arg_parser()
    args = parser.parse_args(argv)

    merged = dict(_BASE_DEFAULTS)
    file_values = _read_config_file(args.config) if args.config else {}
    preset = args.preset if args.preset is not None else file_values.get("preset")
    if preset is not None:
        merged.update(_preset_bundle(preset))
    merged.update(file_values)

    for field in _FIELD_PARSERS:
        flag_value = getattr(args, field, None)
        if flag_value is not None and field != "include_analytic":
            merged[field] = flag_value
    if args.include_analytic:
        merged["include_analytic"] = True
    if args.topology is not None:
        merged["topology"] = args.topology.replace("-", "_")
    if args.sweep is not None:
        merged["distances_km"] = _parse_sweep(args.sweep)
    if args.distances is not None:
        merged["distances_km"] = _parse_distances(args.distances)
    if isinstance(merged.get("raw_lifetime_ms"), str):
        try:
            merged["raw_lifetime_ms"] = _parse_optional_float(merged["raw_lifetime_ms"])
        except ValueError:
            raise ConfigurationError(
                f"raw_lifetime_ms must be a number or 'none', got {merged['raw_lifetime_ms']!r}"
            ) from None

    if "REPLINK_SEED" in env:
        try:
            merged["base_seed"] = int(env["REPLINK_SEED"])
        except ValueError:
            raise ConfigurationError(
                f"REPLINK_SEED must be an integer, got {env['REPLINK_SEED']!r}"
            ) from None

    explicit_links = file_values.get("link_count") if args.link_count is None else args.link_count
    scenario = _validate_scenario(merged, explicit_links)
    options = RunOptions(
        report_format=args.format,
        output=args.output,
        dump_config=args.dump_config,
        trace_path=args.trace_path,
    )
    return scenario, options


def _require(merged: dict, field: str):
    if field not in merged or merged[field] is None:
        raise ConfigurationError(
            f"missing required scenario field {field!r}; set it via flag, config file, or preset"
        )
    return merged[field]


def _validate_scenario(merged: dict, explicit_links: int | None) -> Scenario:
    """Check the merged fields and build the scenario.

    ``explicit_links`` is the link count given by flag or config file, if
    any; a single link rejects any other count there, while a preset's chain
    length is simply replaced by one.
    """
    protocol_name = _require(merged, "protocol")
    if protocol_name not in _PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {protocol_name!r}; choose one of {', '.join(_PROTOCOLS)}"
        )
    topology = _require(merged, "topology")
    if topology not in _TOPOLOGIES:
        raise ConfigurationError(
            f"unknown topology {topology!r}; choose one of {', '.join(_TOPOLOGIES)}"
        )

    merged.setdefault("link_count", 10 if topology == "chain" else 1)
    merged.setdefault("duration_in_tau_link", 1000 if topology == "chain" else 10_000)
    merged.setdefault("memory_n", 100)
    if topology == "single_link":
        if explicit_links not in (None, 1):
            raise ConfigurationError(
                f"a single-link topology has exactly one link, got link_count {explicit_links}"
            )
        merged["link_count"] = 1

    for field in ("p_bsa", "cycle_time_ns", "emission_fraction", "collection_efficiency"):
        _require(merged, field)
    distances = tuple(_require(merged, "distances_km"))
    if not distances or any(d <= 0 for d in distances):
        raise ConfigurationError("distances_km must be a non-empty list of positive distances")

    p_mid = merged.get("p_mid")
    if protocol_name == "mps" and p_mid is None:
        raise ConfigurationError("the mps protocol requires --p-mid")
    if protocol_name != "mps" and p_mid is not None:
        raise ConfigurationError(f"--p-mid only applies to mps, not {protocol_name}")

    if merged["trials"] < 1:
        raise ConfigurationError("trials must be at least 1")
    if merged["duration_in_tau_link"] < 1:
        raise ConfigurationError("duration_in_tau_link must be at least 1")
    if merged["memory_n"] < 1:
        raise ConfigurationError("memory_n must be at least 1")
    if merged["link_count"] < 1:
        raise ConfigurationError("link_count must be at least 1")
    if merged["base_seed"] < 0:
        raise ConfigurationError(
            f"the base seed (--seed, REPLINK_SEED) must be non-negative, got {merged['base_seed']}"
        )
    if merged["reserved_slots"] < 0:
        raise ConfigurationError("reserved_slots must be non-negative")
    if topology == "chain" and merged["reserved_slots"] < 1:
        raise ConfigurationError(
            "chain scenarios need reserved_slots >= 1: purified pairs wait in the reserved "
            "slots until every link can swap, so with none no end-to-end pair is ever made"
        )
    if topology == "chain" and merged["memory_n"] - merged["reserved_slots"] < 1:
        raise ConfigurationError(
            "chain scenarios need memory_n > reserved_slots so some qubits attempt entanglement"
        )

    raw_lifetime = merged.get("raw_lifetime_ms")
    if raw_lifetime is not None and raw_lifetime <= 0:
        raise ConfigurationError("raw_lifetime_ms must be positive (or 'none' to disable)")

    return Scenario(
        protocol=protocol_name,
        preset=merged.get("preset"),
        p_mid=p_mid,
        p_bsa=merged["p_bsa"],
        cycle_time_ns=merged["cycle_time_ns"],
        emission_fraction=merged["emission_fraction"],
        collection_efficiency=merged["collection_efficiency"],
        topology=topology,
        link_count=merged["link_count"],
        memory_n=merged["memory_n"],
        distances_km=distances,
        trials=merged["trials"],
        duration_in_tau_link=merged["duration_in_tau_link"],
        base_seed=merged["base_seed"],
        refractive_index=merged["refractive_index"],
        attenuation_km=merged["attenuation_km"],
        reserved_slots=merged["reserved_slots"],
        epsilon_in=merged["epsilon_in"],
        raw_lifetime_ms=raw_lifetime,
        include_analytic=merged["include_analytic"],
    )


# -- model construction --------------------------------------------------


def _geometry(scenario: Scenario, distance_km: float) -> params.LinkGeometry:
    return params.LinkGeometry(
        length_m=distance_km * 1000.0,
        refractive_index=scenario.refractive_index,
        attenuation_length_m=scenario.attenuation_km * 1000.0,
    )


def _profile(scenario: Scenario) -> params.HardwareProfile:
    return params.HardwareProfile(
        cycle_time=Duration.from_ns(scenario.cycle_time_ns),
        emission_fraction=scenario.emission_fraction,
        collection_efficiency=scenario.collection_efficiency,
        label=scenario.preset or "custom",
    )


def _attempting_memory(scenario: Scenario) -> int:
    if scenario.topology == "chain":
        return scenario.memory_n - scenario.reserved_slots
    return scenario.memory_n


def build_link_model(scenario: Scenario, distance_km: float) -> engine.LinkModel:
    """Derive one link's protocol config and probabilities at a distance."""
    geometry = _geometry(scenario, distance_km)
    profile = _profile(scenario)
    stack = params.OpticalStack(scenario.p_bsa, profile.interface_efficiency, scenario.p_mid)
    tau_link = params.link_delay(geometry)
    tau_clock = profile.cycle_time
    p_optical = params.optical_transmission(profile, geometry)
    n = _attempting_memory(scenario)

    if scenario.protocol == "mitm":
        p = params.link_success_probability(stack, p_optical)
        config = ProtocolConfig(ProtocolKind.MITM, MemoryBudget.symmetric(n))
        probs = protocol.LinkProbabilities(p=p)
    elif scenario.protocol == "sr":
        p = params.link_success_probability(stack, p_optical)
        budget = analytic.sr_receiver_allocation(n, p)
        config = ProtocolConfig(ProtocolKind.SR, budget)
        probs = protocol.LinkProbabilities(p=p)
    else:
        success = params.mps_success_probability(stack, p_optical)
        k = analytic.mps_attempts_per_bin(success.p_side, scenario.p_mid)
        config = ProtocolConfig(ProtocolKind.MPS, MemoryBudget.symmetric(n), k_attempts=k)
        probs = protocol.LinkProbabilities(
            p_mid=scenario.p_mid, p_left=success.p_side, p_right=success.p_side
        )
    return engine.LinkModel(config=config, probs=probs, tau_link=tau_link, tau_clock=tau_clock)


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
    return engine.ChainModel(links=(link,) * scenario.link_count, purification=policy)


def analytic_rate(scenario: Scenario, distance_km: float) -> analytic.RateBundle:
    """Closed-form link-level rate at a distance (chain rows use the same
    per-link formula; the chain pipeline has no closed form)."""
    link = build_link_model(scenario, distance_km)
    n = _attempting_memory(scenario)
    if scenario.protocol == "mitm":
        return analytic.mitm_rate(n, link.probs.p, link.tau_link, link.tau_clock)
    if scenario.protocol == "sr":
        memory = link.config.memory
        return analytic.sr_rate(
            memory.n_sender, memory.n_receiver, link.probs.p, link.tau_link, link.tau_clock
        )
    ent = analytic.mps_entanglement(
        link.probs.p_left, link.probs.p_right, link.probs.p_mid, link.config.k_attempts
    )
    return analytic.mps_rate(n, ent, link.tau_link, link.tau_clock)


# -- sweep and report ----------------------------------------------------


def run_sweep(scenario: Scenario, progress=None) -> list[ReportRow]:
    """Run every (distance, trial) cell and summarize rates per distance."""
    progress = sys.stderr if progress is None else progress
    preset_label = scenario.preset or "custom"
    rows = []
    for distance in sorted(scenario.distances_km):
        if scenario.topology == "chain":
            chain = build_chain_model(scenario, distance)
            duration = scenario.duration_in_tau_link * chain.links[0].tau_link
            runner = lambda seed: engine.run_chain_trial(chain, duration, seed).rate_per_s
        else:
            link = build_link_model(scenario, distance)
            duration = scenario.duration_in_tau_link * link.tau_link
            runner = lambda seed: engine.run_link_trial(link, duration, seed).rate_per_s
        rates = [runner(scenario.base_seed + trial) for trial in range(scenario.trials)]
        summary = engine.summarize(rates)
        print(
            f"[replink] {scenario.protocol} {preset_label} L={_format_number(distance)} km: "
            f"{scenario.trials} trials, mean {summary.mean:.6g} /s",
            file=progress,
        )
        rows.append(
            ReportRow(
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
        )
        if scenario.include_analytic:
            bundle = analytic_rate(scenario, distance)
            rows.append(
                ReportRow(
                    protocol=scenario.protocol,
                    preset=preset_label,
                    p_mid=scenario.p_mid,
                    link_km=float(distance),
                    trials=0,
                    mean_rate_per_s=bundle.rate_per_s,
                    ci90_low=bundle.rate_per_s,
                    ci90_high=bundle.rate_per_s,
                    seed=scenario.base_seed,
                )
            )
    return rows


def _format_number(value: float) -> str:
    # repr keeps full round-trip precision (well past 6 significant digits)
    return repr(float(value))


def report_dicts(rows) -> list[dict]:
    dicts = []
    for row in rows:
        dicts.append(
            {
                "protocol": row.protocol,
                "preset": row.preset,
                "p_mid": row.p_mid,
                "link_km": row.link_km,
                "trials": row.trials,
                "mean_rate_per_s": row.mean_rate_per_s,
                "ci90_low": row.ci90_low,
                "ci90_high": row.ci90_high,
                "seed": row.seed,
            }
        )
    return dicts


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
        lines.append(
            ",".join(
                (
                    row.protocol,
                    row.preset,
                    "" if row.p_mid is None else _format_number(row.p_mid),
                    _format_number(row.link_km),
                    str(row.trials),
                    _format_number(row.mean_rate_per_s),
                    _format_number(row.ci90_low),
                    _format_number(row.ci90_high),
                    str(row.seed),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_trace(scenario: Scenario, path: str) -> None:
    """Step one round of the scenario's first distance and log transitions."""
    distance = sorted(scenario.distances_km)[0]
    link = build_link_model(scenario, distance)
    rng = np.random.default_rng(scenario.base_seed)
    trace: list = []
    memory = link.config.memory
    if scenario.protocol == "mitm":
        protocol.step_mitm_round(
            rng, memory.n_per_side, link.probs.p, link.tau_link, link.tau_clock, trace=trace
        )
    elif scenario.protocol == "sr":
        protocol.step_sr_round(
            rng, memory.n_sender, memory.n_receiver, link.probs.p,
            link.tau_link, link.tau_clock, trace=trace,
        )
    else:
        protocol.step_mps_round(
            rng, memory.n_per_side, link.config.k_attempts,
            link.probs.p_mid, link.probs.p_left, link.probs.p_right,
            link.tau_link, link.tau_clock, trace=trace,
        )
    with open(path, "w", encoding="utf-8") as fh:
        for entry in trace:
            fh.write(protocol.format_trace_entry(entry) + "\n")


def main(argv=None) -> int:
    try:
        scenario, options = parse_scenario(argv)
    except ConfigurationError as exc:
        print(f"replink: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if options.dump_config:
            sys.stdout.write(dump_config(scenario))
            return 0
        if options.trace_path:
            write_trace(scenario, options.trace_path)
        rows = run_sweep(scenario)
        emit_report(rows, options.report_format, options.output)
    except ConfigurationError as exc:
        print(f"replink: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"replink: i/o error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"replink: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
