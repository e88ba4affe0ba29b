"""Per-layer metrics: what a traced instance records, how a run reports it.

A traced instance installs :class:`perfbench.spans.Instrumentation`,
runs as usual, and returns :func:`finish_tracing`'s summary: per span
name its calls, self seconds and (for a few names) every duration, plus
the raw counters. :func:`layer_metrics` turns the summaries of a run's
traced runs into the ``per_layer`` metrics of ``BENCHMARK.json``:
counts and self times are the median over runs (a run of the command
traces a fixed set of traces, so counts repeat exactly for a seed),
percentiles pool the durations of all traced runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Sequence, Tuple

from perfbench import stats
from perfbench.spans import (
    Instrumentation,
    SpanRecorder,
    chrome_trace,
    summarize,
    write_chrome_trace,
)


def start_tracing() -> Instrumentation:
    """Install the wrappers in this process; returns them."""
    tracing = Instrumentation(SpanRecorder())
    tracing.install()
    return tracing


def finish_tracing(
    tracing: Instrumentation, chrome_path: str, label: str
) -> dict:
    """Summarise the recorded spans; optionally write the Chrome trace."""
    rec = tracing.recorder
    if chrome_path:
        write_chrome_trace(
            Path(chrome_path), chrome_trace(rec.spans, pid=1, label=label)
        )
    spans = {}
    for name, entry in summarize(rec.spans).items():
        spans[name] = {
            "calls": entry["calls"],
            "self_s": entry["self_s"],
        }
        if "durations_s" in entry:
            spans[name]["durations_ms"] = [
                d * 1000.0 for d in entry["durations_s"]
            ]
    return {
        "spans": spans,
        "counts": dict(rec.counts),
        "missing": tracing.missing,
    }


#: ``(metric, unit, source)``: ``span:<name>.<field>`` reads a span
#: summary, ``count:<name>`` a counter, ``wallfrac:<name>`` a span's
#: self time as a share of the run's ``wall_s``, ``pct:<name>:<q>`` a pooled
#: duration percentile, ``out:<key>`` a value the instance reported
#: itself. Missing spans and counters read as 0 (the layer did not run
#: on that workload, e.g. ``serve.*`` on a batch workload).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.step.calls", "count", "span:sim.step.calls"),
    ("sim.step.self_s", "s", "span:sim.step.self_s"),
    ("sim.step.ms_p50", "ms", "pct:sim.step:50"),
    ("sim.step.ms_p99", "ms", "pct:sim.step:99"),
    ("sim.rounds", "count", "out:rounds"),
    ("sim.decision_rounds", "count", "out:decision_rounds"),
    ("sim.jobtable.calls", "count", "span:sim.jobtable.calls"),
    ("sim.jobtable.self_s", "s", "span:sim.jobtable.self_s"),
    ("sim.jobtable.set_generation.calls", "count",
     "count:sim.jobtable.set_generation.calls"),
    ("core.schedule.calls", "count", "span:core.schedule.calls"),
    ("core.schedule.self_s", "s", "span:core.schedule.self_s"),
    ("core.schedule.ms_p50", "ms", "pct:core.schedule:50"),
    ("core.schedule.ms_p99", "ms", "pct:core.schedule:99"),
    ("core.policy.self_s", "s", "span:core.policy.self_s"),
    ("core.policy.wall_frac", "ratio", "wallfrac:core.policy"),
    ("core.estimator.calls", "count", "count:core.estimator.calls"),
    ("core.estimator.batch_self_s", "s", "span:core.estimator.batch.self_s"),
    ("core.sjf_score.calls", "count", "count:core.sjf_score.calls"),
    ("core.gavel.equal_share.calls", "count",
     "span:core.gavel.equal_share.calls"),
    ("core.gavel.equal_share.self_s", "s",
     "span:core.gavel.equal_share.self_s"),
    ("cache.reallocate.calls", "count", "span:cache.reallocate.calls"),
    ("cache.reallocate.self_s", "s", "span:cache.reallocate.self_s"),
    ("cache.reallocate.ms_p50", "ms", "pct:cache.reallocate:50"),
    ("cache.residency.calls", "count", "span:cache.residency.calls"),
    ("cache.residency.self_s", "s", "span:cache.residency.self_s"),
    ("cache.items.accesses", "count", "count:cache.items.accesses"),
    ("cache.items.hit_ratio", "ratio", "ratio:cache.items.hits"),
    ("obs.events", "count", "count:obs.events"),
    ("obs.provenance.calls", "count", "span:obs.provenance.calls"),
    ("obs.provenance.self_s", "s", "span:obs.provenance.self_s"),
    ("obs.metrics.self_s", "s", "span:obs.metrics.self_s"),
    ("serve.submit.self_s", "s", "span:serve.submit.self_s"),
    ("serve.submit.ms_p50", "ms", "pct:serve.submit:50"),
    ("serve.pump.calls", "count", "span:serve.pump.calls"),
    ("serve.pump.steps", "count", "count:serve.pump.steps"),
    ("serve.pump.self_s", "s", "span:serve.pump.self_s"),
    ("serve.read.self_s", "s", "span:serve.read.self_s"),
    ("serve.queue_depth_max", "count", "count:serve.queue_depth_max"),
    ("serve.rejects", "count", "count:serve.rejects"),
    ("serve.late_submits", "count", "out:late_submits"),
    ("serve.generator_lag_ms_p99", "ms", "outpct:generator_lag_ms:99"),
    ("setup.import_s", "s", "setup:import_s"),
    ("setup.trace_s", "s", "setup:trace_s"),
    ("setup.build_s", "s", "setup:build_s"),
    ("proc.gc.collections", "count", "count:proc.gc.collections"),
    ("proc.gc.pause_s", "s", "count:proc.gc.pause_s"),
)


def _instance_value(instance: dict, source: str) -> float:
    kind, _, rest = source.partition(":")
    layers = instance.get("layers") or {}
    if kind == "span":
        name, _, field = rest.rpartition(".")
        return float(layers.get("spans", {}).get(name, {}).get(field, 0))
    if kind == "count":
        return float(layers.get("counts", {}).get(rest, 0))
    if kind == "ratio":
        counts = layers.get("counts", {})
        accesses = counts.get("cache.items.accesses", 0)
        return counts.get(rest, 0) / accesses if accesses else 0.0
    if kind == "wallfrac":
        # Spans are raw host seconds, so they are set against the raw
        # wall time, not the scaled one.
        self_s = layers.get("spans", {}).get(rest, {}).get("self_s", 0)
        return self_s / instance["raw_wall_s"]
    if kind == "out":
        return float(instance.get(rest, 0))
    if kind == "setup":
        return float(instance["setup"][rest])
    raise ValueError(f"not a per-instance source: {source!r}")


def layer_metrics(
    instances: Sequence[dict], untraced: Sequence[dict]
) -> Dict[str, Tuple[float, str]]:
    """``{metric: (value, unit)}`` over a run's traced worker runs.

    Figures of the load generator (``outpct:``), which is never
    instrumented, pool the ``untraced`` runs too.
    """
    out: Dict[str, Tuple[float, str]] = {}
    # Per-layer tails are reported even on fewer samples than the
    # end-to-end rule asks for (README: minibatch ``sim.step.ms_p99``).
    for metric, unit, source in LAYER_METRICS:
        kind, _, rest = source.partition(":")
        if kind == "pct":
            name, pct = rest.split(":")
            samples = [
                d
                for inst in instances
                for d in (inst.get("layers") or {})
                .get("spans", {}).get(name, {}).get("durations_ms", ())
            ]
            value = stats.percentile(samples, int(pct) / 100.0)
        elif kind == "outpct":
            key, pct = rest.split(":")
            samples = [
                d for inst in [*instances, *untraced] for d in inst.get(key, ())
            ]
            value = stats.percentile(samples, int(pct) / 100.0)
        else:
            value = stats.median(
                [_instance_value(inst, source) for inst in instances]
            )
        out[metric] = (value, unit)
    return out
