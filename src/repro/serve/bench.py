"""Serve-path benchmark: sustained online submission over a real socket.

Where ``repro bench`` measures the simulators' batch throughput, this
module measures the *service*: a :class:`~repro.serve.server.ServerThread`
hosts the full stack (asyncio server, online engine, unlimited virtual
clock), and the bench submits a generated trace over the line-JSON
socket at a fixed wall-clock arrival rate, then drains. The record
captures scheduling throughput (``decisions_per_sec`` — policy rounds
per wall second, the service's end-to-end figure of merit) and the
client-observable admission→first-placement latency percentiles.

Artifacts are schema-versioned ``BENCH_serve_<scenario>.json`` files in
the same spirit as :mod:`repro.perf.record`; the field-by-field
reference lives in ``docs/SERVE.md`` and is CI-synchronised by
``tools/check_obs_docs.py``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Dict, List

from repro import units
from repro.cluster.hardware import Cluster
from repro.perf.record import (
    MetricDelta,
    anchor_delta,
    host_fingerprint,
    utc_now_iso,
)
from repro.serve.client import ServeClient
from repro.serve.clock import VirtualClock
from repro.serve.engine import OnlineEngine, _percentile
from repro.serve.server import ServeServer, ServerThread
from repro.serve.services import ServiceStack
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)
from repro.workloads.trace_io import job_to_dict

#: Version of the ``ServeBenchRecord`` JSON layout.
#: v2 added ``decision_latency_p99_ms`` (the sliding-window p99 of the
#: scheduler's wall-clock decision latency).
SERVE_BENCH_SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class ServeBenchScenario:
    """One serve-bench configuration (trace + cluster + arrival rate)."""

    name: str
    simulator: str
    num_jobs: int
    num_gpus: int
    policy: str = "fifo"
    cache: str = "silod"
    seed: int = 42
    load: float = 1.5
    duration_median_s: float = 3600.0
    reschedule_interval_s: float = 600.0
    #: Wall-clock submission rate over the socket, jobs per second.
    arrival_rate_per_s: float = 400.0
    queue_limit: int = 1024

    def build_trace(self):
        """The submitted jobs (generated outside the timed region)."""
        cfg = TraceConfig(
            num_jobs=self.num_jobs,
            seed=self.seed,
            duration_median_s=self.duration_median_s,
        )
        cfg.mean_interarrival_s = arrival_rate_for_load(
            cfg, self.num_gpus, load=self.load
        )
        return generate_trace(cfg)

    def build_cluster(self) -> Cluster:
        """Same per-GPU ratios as the batch bench (§7.2)."""
        return Cluster.build(
            num_servers=max(1, self.num_gpus // 4),
            gpus_per_server=4,
            cache_per_server_mb=4 * units.gb(368.0),
            remote_io_mbps=units.gbps(8.0 * self.num_gpus / 100.0),
        )


#: The serve scenario catalogue (``repro bench --scenario serve_*``).
SERVE_SCENARIOS: Dict[str, ServeBenchScenario] = {
    s.name: s
    for s in (
        ServeBenchScenario(
            "serve_tiny", "fluid", num_jobs=40, num_gpus=16
        ),
        ServeBenchScenario(
            "serve_smoke", "fluid", num_jobs=120, num_gpus=64
        ),
    )
}


@dataclasses.dataclass
class ServeBenchRecord:
    """One serve measurement, as persisted in ``BENCH_serve_*.json``."""

    schema_version: int
    scenario: str
    policy: str
    cache: str
    simulator: str
    num_jobs: int
    num_gpus: int
    arrival_rate_per_s: float
    wall_time_s: float
    decisions_total: int
    decisions_per_sec: float
    admit_to_place_p50_ms: float
    admit_to_place_p99_ms: float
    decision_latency_p99_ms: float
    jobs_submitted: int
    jobs_finished: int
    created_utc: str
    host: Dict[str, str]

    def to_dict(self) -> dict:
        """JSON-safe representation, one key per schema field."""
        return dataclasses.asdict(self)


#: Field names in declaration order — the code half of the doc/code
#: schema sync (``tools/check_obs_docs.py`` vs ``docs/SERVE.md``).
SERVE_BENCH_FIELDS = tuple(
    f.name for f in dataclasses.fields(ServeBenchRecord)
)


def run_serve_scenario(spec: ServeBenchScenario) -> ServeBenchRecord:
    """Measure one scenario end to end over a real socket."""
    jobs = spec.build_trace()
    cluster = spec.build_cluster()
    stack = ServiceStack.build(
        spec.policy, spec.cache, queue_limit=spec.queue_limit
    )
    sim_kwargs = {}
    if spec.simulator == "fluid":
        sim_kwargs["reschedule_interval_s"] = spec.reschedule_interval_s
    engine = OnlineEngine(
        cluster,
        stack,
        clock=VirtualClock(),  # unlimited: process events as they land
        simulator=spec.simulator,
        **sim_kwargs,
    )
    thread = ServerThread(ServeServer(engine, port=0))
    host, port = thread.start()
    interarrival_s = 1.0 / spec.arrival_rate_per_s
    # Wall-clock by design: this is the measurement, not the simulation.
    # lint: disable=DET003
    t0 = time.perf_counter()
    try:
        with ServeClient(host, port) as client:
            for job in jobs:
                client.submit(job_to_dict(job))
                time.sleep(interarrival_s)  # lint: disable=DET003
            client.shutdown(drain=True)
        thread.join()
    finally:
        thread.stop(drain=False)
    # lint: disable=DET003
    wall_time_s = time.perf_counter() - t0

    samples: List[float] = sorted(engine.latency_samples_ms)
    decisions_total = engine.sim.sched_rounds
    return ServeBenchRecord(
        schema_version=SERVE_BENCH_SCHEMA_VERSION,
        scenario=spec.name,
        policy=spec.policy,
        cache=spec.cache,
        simulator=spec.simulator,
        num_jobs=spec.num_jobs,
        num_gpus=spec.num_gpus,
        arrival_rate_per_s=spec.arrival_rate_per_s,
        wall_time_s=wall_time_s,
        decisions_total=decisions_total,
        decisions_per_sec=(
            decisions_total / wall_time_s if wall_time_s > 0 else 0.0
        ),
        admit_to_place_p50_ms=_percentile(samples, 0.50),
        admit_to_place_p99_ms=_percentile(samples, 0.99),
        decision_latency_p99_ms=engine.decision_latency_p99_ms(),
        jobs_submitted=engine.jobs_submitted,
        jobs_finished=engine.jobs_finished,
        created_utc=utc_now_iso(),
        host=host_fingerprint(),
    )


def write_serve_record(record: ServeBenchRecord, path) -> Path:
    """Persist one record as pretty-printed, key-stable JSON."""
    path = Path(path)
    path.write_text(json.dumps(record.to_dict(), indent=2) + "\n")
    return path


def load_serve_record(path) -> ServeBenchRecord:
    """Load a ``BENCH_serve_*.json`` record, validating the schema."""
    raw = json.loads(Path(path).read_text())
    version = raw.get("schema_version")
    if version != SERVE_BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: serve bench schema version {version!r} is not the "
            f"supported {SERVE_BENCH_SCHEMA_VERSION}"
        )
    known = set(SERVE_BENCH_FIELDS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"{path}: unknown serve bench fields {unknown}")
    missing = sorted(known - set(raw))
    if missing:
        raise ValueError(f"{path}: missing serve bench fields {missing}")
    return ServeBenchRecord(**raw)


def render_serve_record(record: ServeBenchRecord) -> str:
    """One human-readable summary line (mirrors the batch bench)."""
    return (
        f"{record.scenario}: serve/{record.simulator} "
        f"{record.num_jobs} jobs x {record.num_gpus} GPUs "
        f"@ {record.arrival_rate_per_s:,.0f}/s — "
        f"wall {record.wall_time_s:.2f}s, "
        f"{record.decisions_per_sec:,.1f} decisions/s, "
        f"admit→place p50 {record.admit_to_place_p50_ms:.1f} ms / "
        f"p99 {record.admit_to_place_p99_ms:.1f} ms, "
        f"decision p99 {record.decision_latency_p99_ms:.1f} ms, "
        f"{record.jobs_finished}/{record.jobs_submitted} finished"
    )


# ----------------------------------------------------------------------
# Comparison (``repro bench --compare`` on serve baselines).
# ----------------------------------------------------------------------

#: Identity anchors that must match exactly for two serve records to be
#: comparable at all (wall-clock noise never moves these).
SERVE_ANCHOR_METRICS = ("num_jobs", "jobs_submitted", "jobs_finished")
#: Metrics where bigger is better.
SERVE_THROUGHPUT_METRICS = ("decisions_per_sec",)
#: Metrics where smaller is better (regression = rise above baseline).
SERVE_COST_METRICS = (
    "wall_time_s",
    "admit_to_place_p50_ms",
    "admit_to_place_p99_ms",
    "decision_latency_p99_ms",
)


def compare_serve_records(
    current: ServeBenchRecord,
    baseline: ServeBenchRecord,
    threshold: float,
) -> List[MetricDelta]:
    """Per-metric deltas of ``current`` against a serve baseline.

    Same contract as :func:`repro.perf.record.compare_records` — anchor
    disagreement is drift, throughput regresses on a drop, cost (wall
    time, latency percentiles) regresses on a rise beyond ``threshold``.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    for field in ("scenario", "simulator", "policy", "cache", "num_gpus"):
        mine, theirs = getattr(current, field), getattr(baseline, field)
        if mine != theirs:
            raise ValueError(
                f"cannot compare: {field} differs "
                f"(current={mine!r}, baseline={theirs!r})"
            )
    deltas: List[MetricDelta] = [
        anchor_delta(
            metric,
            float(getattr(baseline, metric)),
            float(getattr(current, metric)),
        )
        for metric in SERVE_ANCHOR_METRICS
    ]
    for metric in SERVE_THROUGHPUT_METRICS:
        base = float(getattr(baseline, metric))
        cur = float(getattr(current, metric))
        deltas.append(
            MetricDelta(
                metric=metric,
                baseline=base,
                current=cur,
                ratio=(cur / base) if base else None,
                regressed=cur < base * (1.0 - threshold),
            )
        )
    for metric in SERVE_COST_METRICS:
        base = float(getattr(baseline, metric))
        cur = float(getattr(current, metric))
        deltas.append(
            MetricDelta(
                metric=metric,
                baseline=base,
                current=cur,
                ratio=(cur / base) if base else None,
                regressed=base > 0 and cur > base * (1.0 + threshold),
            )
        )
    return deltas
