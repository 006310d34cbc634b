"""Per-layer metrics of the traced run, computed from its spans.

Sums and counts are per batch (the traced phase's total divided by its
batch count), so runs with different batch counts compare directly.
Percentiles are over every span of the traced phase.

A value of ``-1`` (``NOT_MEASURED``) means either that the layer ran in
worker processes the parent's tracer cannot see (:func:`not_visible`), or
that the layer had no calls to take a percentile, mean or ratio of.  A genuine zero (a
layer that did no work) is reported as ``0``.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable

NOT_MEASURED = -1.0

#: Per-layer metric name → (unit, better).  Order is the report order.
LAYER_METRICS = {
    "sim.events": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "belief.update_calls": ("count", "lower"),
    "belief.update_s": ("s", "lower"),
    "belief.update_p50_us": ("us", "lower"),
    "belief.update_p99_us": ("us", "lower"),
    "belief.hypotheses_mean": ("count", "lower"),
    "belief.degenerate_updates": ("count", "lower"),
    "planner.decide_calls": ("count", "lower"),
    "planner.decide_s": ("s", "lower"),
    "planner.decide_p50_us": ("us", "lower"),
    "planner.decide_p99_us": ("us", "lower"),
    "planner.lanes": ("count", "lower"),
    "policy.decide_calls": ("count", "lower"),
    "policy.hit_ratio": ("fraction", "higher"),
    "policy.self_s": ("s", "lower"),
    "runner.run_s": ("s", "lower"),
    "runner.exec_s": ("s", "lower"),
    "runner.overhead_s": ("s", "lower"),
    "runner.replay_s": ("s", "lower"),
    "cache.key_s": ("s", "lower"),
    "cache.load_calls": ("count", "lower"),
    "cache.load_s": ("s", "lower"),
    "cache.store_calls": ("count", "lower"),
    "cache.store_s": ("s", "lower"),
    "cache.hit_ratio": ("fraction", "higher"),
    "serving.service_s": ("s", "lower"),
    "serving.service_p50_us": ("us", "lower"),
    "serving.service_p99_us": ("us", "lower"),
    "serving.transport_p50_us": ("us", "lower"),
    "registry.lookup_s": ("s", "lower"),
    "serving.table_hits": ("count", "higher"),
    "serving.planner_fallbacks": ("count", "lower"),
    "serving.default_served": ("count", "lower"),
    "serving.planner_s": ("s", "lower"),
    "corpus.generate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile, or ``NOT_MEASURED`` with no values."""
    ordered = sorted(values)
    if not ordered:
        return NOT_MEASURED
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else NOT_MEASURED


def layer_metrics(tracer, workload, untraced: list, traced: list) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value for one traced run of ``workload``."""
    batches = len(traced)
    spans = {name: tracer.of(name) for name in (
        "sim.run", "belief.update", "planner.decide", "policy.decide", "runner.run",
        "cache.key", "cache.load", "cache.store", "serving.service", "registry.lookup",
    )}

    def per_batch(total: float) -> float:
        return total / batches

    def seconds(name: str, chosen=None) -> float:
        chosen = spans[name] if chosen is None else chosen
        return per_batch(sum(span.dur_ns for span in chosen) / 1e9)

    def micros(name: str, q: float) -> float:
        value = percentile((span.dur_ns for span in spans[name]), q)
        return value / 1e3 if value != NOT_MEASURED else value

    def from_outputs(name: str) -> float:
        values = [batch.layer[name] for batch in traced if name in batch.layer]
        return _mean(values)

    out: dict[str, float] = {}

    sim_self = per_batch(sum(span.self_ns for span in spans["sim.run"]) / 1e9)
    events = per_batch(sum(span.attrs["events"] for span in spans["sim.run"]))
    if "sim" in workload.worker_layers:
        events = from_outputs("sim.events")
    out["sim.events"] = events
    out["sim.self_s"] = sim_self
    out["sim.events_per_s"] = events / sim_self if sim_self > 0 else NOT_MEASURED

    beliefs = spans["belief.update"]
    out["belief.update_calls"] = per_batch(len(beliefs))
    out["belief.update_s"] = seconds("belief.update")
    out["belief.update_p50_us"] = micros("belief.update", 0.50)
    out["belief.update_p99_us"] = micros("belief.update", 0.99)
    out["belief.hypotheses_mean"] = _mean([span.attrs["hypotheses"] for span in beliefs])
    out["belief.degenerate_updates"] = per_batch(sum(span.attrs["degenerate"] for span in beliefs))

    planners = spans["planner.decide"]
    out["planner.decide_calls"] = per_batch(len(planners))
    out["planner.decide_s"] = seconds("planner.decide")
    out["planner.decide_p50_us"] = micros("planner.decide", 0.50)
    out["planner.decide_p99_us"] = micros("planner.decide", 0.99)
    out["planner.lanes"] = _mean([span.attrs["lanes"] for span in planners])

    policies = spans["policy.decide"]
    out["policy.decide_calls"] = per_batch(len(policies))
    out["policy.hit_ratio"] = _mean([float(span.attrs["hit"]) for span in policies])
    out["policy.self_s"] = per_batch(sum(span.self_ns for span in policies) / 1e9)

    # A replay is a run answered wholly from the result cache.
    runs = [span for span in spans["runner.run"] if not span.attrs["replay"]]
    replays = [span for span in spans["runner.run"] if span.attrs["replay"]]
    run_ids = {span.id for span in runs}
    cache_in_runs = sum(
        span.dur_ns
        for name in ("cache.key", "cache.load", "cache.store")
        for span in spans[name]
        if span.parent in run_ids
    ) / 1e9
    exec_s = from_outputs("runner.exec_s")
    out["runner.run_s"] = seconds("runner.run", runs)
    out["runner.exec_s"] = exec_s
    out["runner.overhead_s"] = (
        out["runner.run_s"] - exec_s / workload.workers - per_batch(cache_in_runs)
        if runs and exec_s != NOT_MEASURED else NOT_MEASURED
    )
    out["runner.replay_s"] = seconds("runner.run", replays) if replays else NOT_MEASURED

    loads = spans["cache.load"]
    out["cache.key_s"] = seconds("cache.key")
    out["cache.load_calls"] = per_batch(len(loads))
    out["cache.load_s"] = seconds("cache.load")
    out["cache.store_calls"] = per_batch(len(spans["cache.store"]))
    out["cache.store_s"] = seconds("cache.store")
    out["cache.hit_ratio"] = _mean([float(span.attrs["hit"]) for span in loads])

    service_p50 = micros("serving.service", 0.50)
    client_p50 = percentile((latency for batch in traced for latency in batch.unit_s), 0.50)
    out["serving.service_s"] = seconds("serving.service")
    out["serving.service_p50_us"] = service_p50
    out["serving.service_p99_us"] = micros("serving.service", 0.99)
    out["serving.transport_p50_us"] = (
        client_p50 * 1e6 - service_p50 if service_p50 != NOT_MEASURED else NOT_MEASURED
    )
    out["registry.lookup_s"] = seconds("registry.lookup")
    for name in ("serving.table_hits", "serving.planner_fallbacks", "serving.default_served"):
        value = from_outputs(name)
        out[name] = 0.0 if value == NOT_MEASURED else value
    # Live planning is the only planner call made outside a simulated run.
    out["serving.planner_s"] = seconds(
        "planner.decide", [span for span in planners if span.parent is None]
    )

    out["corpus.generate_s"] = sum(
        span.dur_ns for span in tracer.of("corpus.generate", phase="setup")
    ) / 1e9
    out["trace.overhead_s"] = (
        statistics.median(batch.wall_s for batch in traced)
        - statistics.median(batch.wall_s for batch in untraced)
    )
    out["trace.spans"] = per_batch(len(tracer.of_phase("measure")))

    for name in not_visible(workload):
        out[name] = NOT_MEASURED
    return out


def not_visible(workload) -> list[str]:
    """Per-layer metrics the parent process cannot see for ``workload``.

    ``sim.events`` stays visible: the points report their own event count.
    """
    return [
        name
        for name in LAYER_METRICS
        if name != "sim.events" and name.split(".")[0] in workload.worker_layers
    ]
