"""Spans for the traced run, recorded around calls into replink's layers.

The wrappers are installed at run time by replacing module attributes:
``cli.run_sweep`` looks up ``engine.run_chain_trial``, ``engine.summarize``
and ``analytic_rate`` on their modules at each call, and the engine's trial
runners look up ``sample_round_counts`` the same way, so a replaced
attribute sees every call without any change to the program. The inner
loop of a chain trial (``purify``, ``EventQueue``, ``_LinkPipeline``) runs
~1e4 times per trial and is deliberately not wrapped.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` and
written out once, when the run ends. Attributes are computed after a span
has ended, so they count towards the tracing overhead, not the layer.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# raw = 7*attempts + expired + pending: seven raw pairs feed one purification.
PAIRS_PER_GROUP = 7

# Every wrapped layer reports how many of its calls raised.
ERRORS = (
    "cli.parse_scenario", "cli.build_model", "cli.run_sweep", "cli.analytic_rate",
    "cli.emit_report", "engine.run_chain_trial", "engine.run_link_trial",
    "engine.sample_round_counts", "engine.summarize", "analytic.mps_entanglement",
)
# (metric, unit, better) for every per-layer metric the traced run reports.
PER_LAYER = (
    ("engine.run_chain_trial.calls", "count", "lower"),
    ("engine.run_chain_trial.self_s", "s", "lower"),
    ("engine.run_chain_trial.events", "count", "lower"),
    ("engine.run_chain_trial.us_per_event", "us", "lower"),
    ("engine.chain.raw_pairs", "count", "higher"),
    ("engine.chain.purify_attempts", "count", "higher"),
    ("engine.chain.ebits", "count", "higher"),
    ("engine.chain.purify_success_frac", "frac", "higher"),
    ("engine.chain.raw_expired_frac", "frac", "lower"),
    ("engine.chain.purified_discarded_frac", "frac", "lower"),
    ("engine.chain.conservation_checked", "count", "higher"),
    ("engine.chain.conservation_mismatches", "count", "lower"),
    ("engine.sample_round_counts.calls", "count", "lower"),
    ("engine.sample_round_counts.s", "s", "lower"),
    ("engine.sample_round_counts.slot_rounds", "count", "lower"),
    ("engine.sample_round_counts.ns_per_slot_round", "ns", "lower"),
    ("engine.run_link_trial.calls", "count", "lower"),
    ("engine.run_link_trial.self_s", "s", "lower"),
    ("analytic.mps_entanglement.calls", "count", "lower"),
    ("analytic.mps_entanglement.s", "s", "lower"),
    ("analytic.mps_entanglement.k_terms", "count", "lower"),
    ("analytic.mps_entanglement.ns_per_term", "ns", "lower"),
    ("cli.analytic_rate.calls", "count", "lower"),
    ("cli.analytic_rate.s", "s", "lower"),
    ("cli.parse_scenario.s", "s", "lower"),
    ("cli.build_model.s", "s", "lower"),
    ("cli.run_sweep.s", "s", "lower"),
    ("engine.summarize.calls", "count", "lower"),
    ("engine.summarize.s", "s", "lower"),
    ("cli.emit_report.s", "s", "lower"),
    ("cli.emit_report.bytes", "B", "lower"),
    ("share.chain_pipeline", "frac", "lower"),
    ("share.sampler", "frac", "lower"),
    ("share.link_trial", "frac", "lower"),
    ("share.analytic", "frac", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
) + tuple((f"{name}.errors", "count", "lower") for name in ERRORS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                span[4] = {"errors": 1}
                raise
            finally:
                self._stack.pop()
            span[2] = time.perf_counter()
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self, cli, engine, analytic) -> None:
        self.wrap(cli, "parse_scenario", "cli.parse_scenario")
        self.wrap(cli, "build_link_model", "cli.build_link_model")
        self.wrap(cli, "build_chain_model", "cli.build_chain_model")
        self.wrap(cli, "run_sweep", "cli.run_sweep")
        self.wrap(cli, "analytic_rate", "cli.analytic_rate")
        self.wrap(cli, "emit_report", "cli.emit_report", _report_bytes)
        self.wrap(engine, "run_chain_trial", "engine.run_chain_trial", _chain_counts)
        self.wrap(engine, "run_link_trial", "engine.run_link_trial")
        self.wrap(engine, "sample_round_counts", "engine.sample_round_counts", _slot_rounds)
        self.wrap(engine, "summarize", "engine.summarize")
        self.wrap(analytic, "mps_entanglement", "analytic.mps_entanglement", _k_terms)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "attrs"], "spans": self.spans}, fh
            )


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _report_bytes(args, kwargs, _result):
    destination = _arg(args, kwargs, 2, "destination")
    return {"bytes": 0 if destination == "-" else os.path.getsize(destination)}


def _slot_rounds(args, kwargs, _result):
    link, n_rounds = _arg(args, kwargs, 1, "link"), _arg(args, kwargs, 2, "n_rounds")
    memory = link.config.memory
    # sr samples the sender's qubits; mitm and mps sample one slot per qubit pair
    slots = memory.n_sender if link.config.kind.value == "sr" else memory.n_per_side
    return {"slot_rounds": n_rounds * slots}


def _k_terms(args, kwargs, _result):
    return {"k_terms": _arg(args, kwargs, 3, "k")}


def conservation_holds(stats) -> bool:
    """Whether the raw and the purified pairs of every link of a chain trial balance."""
    return all(
        raw == PAIRS_PER_GROUP * attempts + expired + raw_pending
        and successes == stats.end_to_end_ebits + discarded + held
        for raw, attempts, expired, raw_pending, successes, discarded, held in zip(
            stats.raw_pairs, stats.purify_attempts, stats.raw_expired, stats.raw_pending,
            stats.per_link_purified_counts, stats.purified_discarded, stats.purified_pending,
        )
    )


def _chain_counts(args, kwargs, stats):
    chain, duration = _arg(args, kwargs, 0, "chain"), _arg(args, kwargs, 1, "duration")
    counts = {
        "events": sum(duration // link.round_time for link in chain.links),
        "raw_pairs": sum(stats.raw_pairs),
        "purify_attempts": sum(stats.purify_attempts),
        "purify_successes": sum(stats.per_link_purified_counts),
        "raw_expired": sum(stats.raw_expired),
        "purified_discarded": sum(stats.purified_discarded),
        "ebits": stats.end_to_end_ebits,
        "checked": 0,
        "mismatched": 0,
    }
    # without purification there are no groups, so the identities do not apply
    if chain.purification is not None:
        counts["checked"] = 1
        counts["mismatched"] = int(not conservation_holds(stats))
    return counts


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(spans: list, campaign_s: float) -> dict:
    """Per-layer metrics of one traced campaign.

    ``cli.build_model`` and ``cli.parse_scenario`` are taken from the
    set-up phase; everything else from the campaign. A span's self time is
    its duration minus that of its direct children.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    setup = next(i for i, span in enumerate(spans) if span[0] == "bench.setup")
    agg: dict = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        if name.startswith("cli.build_"):
            if parent != setup:
                continue  # nested in another build, or part of the campaign
            name = "cli.build_model"
        layer = agg[name]
        layer["calls"] += 1
        layer["s"] += end - start
        layer["self_s"] += end - start - child_s[index]
        for key, value in (attrs or {}).items():
            layer[key] += value

    chain = agg["engine.run_chain_trial"]
    sampler = agg["engine.sample_round_counts"]
    link = agg["engine.run_link_trial"]
    mps = agg["analytic.mps_entanglement"]
    overlay = agg["cli.analytic_rate"]
    metrics = {
        "engine.run_chain_trial.calls": chain["calls"],
        "engine.run_chain_trial.self_s": chain["self_s"],
        "engine.run_chain_trial.events": chain["events"],
        "engine.run_chain_trial.us_per_event": _ratio(chain["self_s"], chain["events"], 1e6),
        "engine.chain.raw_pairs": chain["raw_pairs"],
        "engine.chain.purify_attempts": chain["purify_attempts"],
        "engine.chain.ebits": chain["ebits"],
        "engine.chain.purify_success_frac": _ratio(chain["purify_successes"], chain["purify_attempts"]),
        "engine.chain.raw_expired_frac": _ratio(chain["raw_expired"], chain["raw_pairs"]),
        "engine.chain.purified_discarded_frac": _ratio(
            chain["purified_discarded"], chain["purify_successes"]
        ),
        "engine.chain.conservation_checked": chain["checked"],
        "engine.chain.conservation_mismatches": chain["mismatched"],
        "engine.sample_round_counts.calls": sampler["calls"],
        "engine.sample_round_counts.s": sampler["s"],
        "engine.sample_round_counts.slot_rounds": sampler["slot_rounds"],
        "engine.sample_round_counts.ns_per_slot_round": _ratio(
            sampler["s"], sampler["slot_rounds"], 1e9
        ),
        "engine.run_link_trial.calls": link["calls"],
        "engine.run_link_trial.self_s": link["self_s"],
        "analytic.mps_entanglement.calls": mps["calls"],
        "analytic.mps_entanglement.s": mps["s"],
        "analytic.mps_entanglement.k_terms": mps["k_terms"],
        "analytic.mps_entanglement.ns_per_term": _ratio(mps["s"], mps["k_terms"], 1e9),
        "cli.analytic_rate.calls": overlay["calls"],
        "cli.analytic_rate.s": overlay["s"],
        "cli.parse_scenario.s": agg["cli.parse_scenario"]["s"],
        "cli.build_model.s": agg["cli.build_model"]["s"],
        "cli.run_sweep.s": agg["cli.run_sweep"]["s"],
        "engine.summarize.calls": agg["engine.summarize"]["calls"],
        "engine.summarize.s": agg["engine.summarize"]["s"],
        "cli.emit_report.s": agg["cli.emit_report"]["s"],
        "cli.emit_report.bytes": agg["cli.emit_report"]["bytes"],
        "share.chain_pipeline": _ratio(chain["self_s"], campaign_s),
        "share.sampler": _ratio(sampler["s"], campaign_s),
        "share.link_trial": _ratio(link["self_s"], campaign_s),
        "share.analytic": _ratio(overlay["s"], campaign_s),
        "trace.spans": len(spans),
    }
    for name in ERRORS:
        metrics[f"{name}.errors"] = agg[name]["errors"]
    return metrics
