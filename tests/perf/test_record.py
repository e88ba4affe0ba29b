"""Schema-versioned bench records and ``--compare`` semantics."""

import dataclasses
import json

import pytest

from repro.perf.record import (
    ARTIFACT_SCHEMA_VERSION,
    BENCH_FIELDS,
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    compare_records,
    has_failures,
    load_benchmark_artifact,
    load_record,
    write_benchmark_artifact,
    write_record,
)

pytestmark = pytest.mark.perf


def record(**overrides) -> BenchRecord:
    base = dict(
        schema_version=BENCH_SCHEMA_VERSION,
        scenario="fluid_smoke",
        simulator="fluid",
        policy="fifo",
        cache="silod",
        num_jobs=120,
        num_gpus=64,
        backend="vectorized",
        wall_time_s=2.0,
        peak_rss_mb=100.0,
        events_total=1000,
        events_per_sec=500.0,
        rounds_total=40,
        rounds_per_sec=20.0,
        sim_time_s=86400.0,
        jobs_finished=120,
        avg_jct_min=42.5,
        created_utc="2026-08-07T00:00:00Z",
        host={"python": "3.11.7"},
    )
    base.update(overrides)
    return BenchRecord(**base)


def test_bench_fields_match_dataclass_order():
    assert BENCH_FIELDS == tuple(
        f.name for f in dataclasses.fields(BenchRecord)
    )
    assert BENCH_FIELDS[0] == "schema_version"


def test_write_load_roundtrip(tmp_path):
    rec = record()
    path = write_record(rec, tmp_path / "BENCH_fluid_smoke.json")
    assert load_record(path) == rec
    # The JSON layout preserves field declaration order.
    assert list(json.loads(path.read_text())) == list(BENCH_FIELDS)


def test_load_rejects_wrong_schema_version(tmp_path):
    path = write_record(record(schema_version=99), tmp_path / "b.json")
    with pytest.raises(ValueError, match="schema version"):
        load_record(path)


def test_load_rejects_unknown_and_missing_fields(tmp_path):
    raw = record().to_dict()
    raw["surprise"] = 1
    path = tmp_path / "b.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="unknown bench fields"):
        load_record(path)
    del raw["surprise"]
    del raw["wall_time_s"]
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="missing bench fields"):
        load_record(path)


def test_compare_flags_throughput_drop_only():
    baseline = record()
    same = compare_records(record(), baseline, threshold=0.25)
    assert not has_failures(same)
    slower = compare_records(
        record(events_per_sec=300.0), baseline, threshold=0.25
    )
    assert has_failures(slower)
    regressed = [d.metric for d in slower if d.regressed]
    assert regressed == ["events_per_sec"]
    # Faster-than-baseline never regresses a throughput metric.
    faster = compare_records(
        record(events_per_sec=5000.0, rounds_per_sec=200.0),
        baseline,
        threshold=0.25,
    )
    assert not has_failures(faster)


def test_compare_flags_cost_rise_only():
    baseline = record()
    bloated = compare_records(
        record(peak_rss_mb=200.0, wall_time_s=1.0),
        baseline,
        threshold=0.25,
    )
    assert [d.metric for d in bloated if d.regressed] == ["peak_rss_mb"]


def test_compare_within_threshold_passes():
    deltas = compare_records(
        record(wall_time_s=2.4, events_per_sec=420.0),
        record(),
        threshold=0.25,
    )
    assert not has_failures(deltas)


def test_compare_flags_anchor_drift():
    deltas = compare_records(
        record(jobs_finished=119), record(), threshold=0.25
    )
    drifted = [d.metric for d in deltas if d.drift]
    assert drifted == ["jobs_finished"]
    assert has_failures(deltas)


def _serve_record(**overrides):
    from repro.serve.bench import SERVE_BENCH_SCHEMA_VERSION, ServeBenchRecord

    base = dict(
        schema_version=SERVE_BENCH_SCHEMA_VERSION, scenario="serve_ci",
        policy="fifo", cache="silod", simulator="fluid", num_jobs=24,
        num_gpus=16, arrival_rate_per_s=2000.0, wall_time_s=1.0,
        decisions_total=100, decisions_per_sec=100.0,
        admit_to_place_p50_ms=2.0, admit_to_place_p99_ms=8.0,
        decision_latency_p99_ms=4.0, jobs_submitted=24, jobs_finished=24,
        created_utc="2026-01-01T00:00:00Z", host={},
    )
    base.update(overrides)
    return ServeBenchRecord(**base)


def _het_record(**overrides):
    from repro.perf.het_bench import (
        HET_BENCH_SCHEMA_VERSION,
        HET_POLICIES,
        HetBenchRecord,
    )

    base = dict(
        schema_version=HET_BENCH_SCHEMA_VERSION, scenario="het_tiny",
        simulator="fluid", cache="silod", num_jobs=16, num_gpus=12,
        gpu_mix="V100:2,A100:1", policies=list(HET_POLICIES),
        agg_throughput_mbps={p: 100.0 for p in HET_POLICIES},
        avg_jct_min={p: 200.0 for p in HET_POLICIES},
        jobs_finished={p: 16 for p in HET_POLICIES},
        ordering_ok=True, wall_time_s=2.0,
        created_utc="2026-08-07T00:00:00Z", host={},
    )
    base.update(overrides)
    return HetBenchRecord(**base)


def test_sub_nanoscale_anchor_change_is_drift_for_every_record_kind():
    """Anchors are bit-for-bit: a change below 1e-9 relative still drifts."""
    from repro.perf.het_bench import HET_POLICIES, compare_het_records
    from repro.serve.bench import compare_serve_records

    nudge = 1.0 + 1e-12
    cases = [
        (
            compare_records(
                record(avg_jct_min=42.5 * nudge), record(), threshold=0.25
            ),
            "avg_jct_min",
        ),
        (
            compare_serve_records(
                _serve_record(jobs_finished=24 * nudge), _serve_record(),
                threshold=0.25,
            ),
            "jobs_finished",
        ),
        (
            compare_het_records(
                _het_record(avg_jct_min={
                    p: 200.0 * (nudge if p == "fifo" else 1.0)
                    for p in HET_POLICIES
                }),
                _het_record(),
                threshold=0.25,
            ),
            "jct[fifo]",
        ),
    ]
    for deltas, metric in cases:
        row = next(d for d in deltas if d.metric == metric)
        assert row.current != row.baseline
        assert abs(row.current - row.baseline) < 1e-9 * abs(row.baseline)
        assert [d.metric for d in deltas if d.drift] == [metric]
        assert "[DRIFT]" in row.render()
        assert has_failures(deltas)


def test_compare_rejects_identity_mismatch():
    with pytest.raises(ValueError, match="scenario differs"):
        compare_records(record(scenario="other"), record(), threshold=0.25)
    with pytest.raises(ValueError, match="num_gpus differs"):
        compare_records(record(num_gpus=128), record(), threshold=0.25)


def test_compare_rejects_negative_threshold():
    with pytest.raises(ValueError, match="non-negative"):
        compare_records(record(), record(), threshold=-0.1)


def test_delta_render_marks_failures():
    deltas = compare_records(
        record(events_per_sec=10.0, jobs_finished=119),
        record(),
        threshold=0.25,
    )
    rendered = "\n".join(d.render() for d in deltas)
    assert "[REGRESSED]" in rendered
    assert "[DRIFT]" in rendered


def test_benchmark_artifact_roundtrip(tmp_path):
    path = write_benchmark_artifact(
        "ext_sweep", "cells", {"cells": [{"gpus": 16}]}, tmp_path
    )
    assert path.name == "ext_sweep.json"
    raw = load_benchmark_artifact(path)
    assert raw["schema_version"] == ARTIFACT_SCHEMA_VERSION
    assert raw["kind"] == "cells"
    assert raw["data"] == {"cells": [{"gpus": 16}]}


def test_benchmark_artifact_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 0, "data": None}))
    with pytest.raises(ValueError, match="schema version"):
        load_benchmark_artifact(path)
