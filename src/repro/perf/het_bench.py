"""Heterogeneous-fleet benchmark: cache x GPU-generation co-scheduling.

Where ``repro bench`` scales a homogeneous cluster and the serve bench
measures the online service, this module pins down the *policy value* of
heterogeneity awareness: one mixed-generation cluster, one trace, three
schedulers —

* ``fifo`` — generation-naive; every GPU is priced at the reference
  generation's speed (the pessimism a naive scheduler actually incurs);
* ``het-max-min`` — Gavel-style max-min fairness over per-(job,
  generation) ``f*``, composed with SiloD's Eq. 4 cache/IO term;
* ``het-max-throughput`` — max-sum-throughput over the same
  heterogeneous allocation space.

The record's figure of merit is per-policy **aggregate throughput**
(total completed work over the makespan, MB/s) and the
expected dominance ordering ``het-max-throughput >= het-max-min >=
fifo`` is persisted as ``ordering_ok`` — CI's ``het_tiny`` smoke
compares against a checked-in baseline, so a policy change that breaks
the ordering (or shifts any simulated metric at all) fails as drift,
not as a perf wobble. Simulated metrics are bit-exact anchors; only
``wall_time_s`` is thresholded.

Artifacts are schema-versioned ``BENCH_het_<scenario>.json`` files; the
field reference lives in ``docs/PERFORMANCE.md`` and is CI-synchronised
by ``tools/check_obs_docs.py``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import units
from repro.cluster.hardware import Cluster
from repro.perf.record import (
    MetricDelta,
    anchor_delta,
    host_fingerprint,
    utc_now_iso,
)
from repro.sim.runner import run_experiment
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)

#: Version of the ``HetBenchRecord`` JSON layout.
HET_BENCH_SCHEMA_VERSION = 1

#: The policies every het scenario sweeps, naive baseline first.
HET_POLICIES = ("fifo", "het-max-min", "het-max-throughput")


@dataclasses.dataclass(frozen=True)
class HetBenchScenario:
    """One heterogeneous-fleet configuration (mix + trace)."""

    name: str
    #: Servers per GPU generation, e.g. ``(("V100", 2), ("A100", 1))``.
    gpu_mix: Tuple[Tuple[str, int], ...]
    num_jobs: int
    gpus_per_server: int = 4
    cache: str = "silod"
    seed: int = 42
    load: float = 1.5
    duration_median_s: float = 3600.0
    reschedule_interval_s: float = 600.0

    @property
    def num_gpus(self) -> int:
        """Total GPUs across every generation."""
        return self.gpus_per_server * sum(n for _, n in self.gpu_mix)

    @property
    def mix_spec(self) -> str:
        """The mix in ``--gpu-mix`` syntax (``"V100:2,A100:1"``)."""
        return ",".join(f"{gen}:{n}" for gen, n in self.gpu_mix)

    def build_cluster(self) -> Cluster:
        """Mixed fleet with the batch bench's per-GPU ratios (§7.2)."""
        return Cluster.build_mixed(
            self.gpu_mix,
            gpus_per_server=self.gpus_per_server,
            cache_per_server_mb=self.gpus_per_server * units.gb(368.0),
            remote_io_mbps=units.gbps(8.0 * self.num_gpus / 100.0),
        )

    def build_trace(self):
        """The job stream every policy replays (outside the timing)."""
        cfg = TraceConfig(
            num_jobs=self.num_jobs,
            seed=self.seed,
            duration_median_s=self.duration_median_s,
        )
        cfg.mean_interarrival_s = arrival_rate_for_load(
            cfg, self.num_gpus, load=self.load
        )
        return generate_trace(cfg)


#: The het scenario catalogue (``repro bench --scenario het_*``).
#: ``het_philly`` mirrors a Philly-like fleet: a large legacy majority
#: with newer minority pools (Jeon et al., ATC 2019 report exactly this
#: shape for Microsoft's clusters).
HET_SCENARIOS: Dict[str, HetBenchScenario] = {
    s.name: s
    for s in (
        HetBenchScenario(
            "het_tiny",
            gpu_mix=(("V100", 2), ("A100", 1)),
            num_jobs=16,
            duration_median_s=1800.0,
        ),
        HetBenchScenario(
            "het_philly",
            gpu_mix=(("K80", 12), ("P100", 8), ("V100", 5)),
            num_jobs=120,
        ),
    )
}


@dataclasses.dataclass
class HetBenchRecord:
    """One het measurement, as persisted in ``BENCH_het_*.json``."""

    schema_version: int
    scenario: str
    simulator: str
    cache: str
    num_jobs: int
    num_gpus: int
    gpu_mix: str
    policies: List[str]
    #: Per-policy aggregate throughput: completed work / makespan, MB/s.
    agg_throughput_mbps: Dict[str, float]
    #: Per-policy mean JCT over finished jobs, minutes.
    avg_jct_min: Dict[str, float]
    #: Per-policy finished-job counts (completeness anchor).
    jobs_finished: Dict[str, int]
    #: Whether max-sum >= max-min >= fifo held on aggregate throughput.
    ordering_ok: bool
    wall_time_s: float
    created_utc: str
    host: Dict[str, str]

    def to_dict(self) -> dict:
        """JSON-safe representation, one key per schema field."""
        return dataclasses.asdict(self)


#: Field names in declaration order — the code half of the doc/code
#: schema sync (``tools/check_obs_docs.py`` vs ``docs/PERFORMANCE.md``).
HET_BENCH_FIELDS = tuple(
    f.name for f in dataclasses.fields(HetBenchRecord)
)


def _aggregate_throughput_mbps(result, work_mb: Dict[str, float]) -> float:
    """Completed work over the makespan, MB/s (0 when nothing finished)."""
    done = sum(
        work_mb.get(r.job_id, 0.0) for r in result.finished_records()
    )
    span = result.makespan_s()
    if not math.isfinite(span) or span <= 0:
        # Unfinished runs: fall back to the simulated horizon so the
        # record still carries a comparable figure.
        span = result.end_time_s
    return done / span if span > 0 else 0.0


def run_het_scenario(spec: HetBenchScenario) -> HetBenchRecord:
    """Replay one trace through every policy on the same mixed fleet."""
    jobs = spec.build_trace()
    work_mb = {job.job_id: job.total_work_mb for job in jobs}
    agg: Dict[str, float] = {}
    jct: Dict[str, float] = {}
    finished: Dict[str, int] = {}
    # Wall-clock by design: this is the measurement, not the simulation.
    # lint: disable=DET003
    t0 = time.perf_counter()
    for policy in HET_POLICIES:
        result = run_experiment(
            spec.build_cluster(),
            policy,
            spec.cache,
            jobs,
            simulator="fluid",
            reschedule_interval_s=spec.reschedule_interval_s,
        )
        agg[policy] = _aggregate_throughput_mbps(result, work_mb)
        jct[policy] = result.average_jct_minutes()
        finished[policy] = len(result.finished_records())
    # lint: disable=DET003
    wall_time_s = time.perf_counter() - t0
    tol = 1e-9
    ordering_ok = (
        agg["het-max-throughput"] >= agg["het-max-min"] - tol
        and agg["het-max-min"] >= agg["fifo"] - tol
    )
    return HetBenchRecord(
        schema_version=HET_BENCH_SCHEMA_VERSION,
        scenario=spec.name,
        simulator="fluid",
        cache=spec.cache,
        num_jobs=spec.num_jobs,
        num_gpus=spec.num_gpus,
        gpu_mix=spec.mix_spec,
        policies=list(HET_POLICIES),
        agg_throughput_mbps=agg,
        avg_jct_min=jct,
        jobs_finished=finished,
        ordering_ok=ordering_ok,
        wall_time_s=wall_time_s,
        created_utc=utc_now_iso(),
        host=host_fingerprint(),
    )


def write_het_record(record: HetBenchRecord, path) -> Path:
    """Persist one record as pretty-printed, key-stable JSON."""
    path = Path(path)
    path.write_text(json.dumps(record.to_dict(), indent=2) + "\n")
    return path


def load_het_record(path) -> HetBenchRecord:
    """Load a ``BENCH_het_*.json`` record, validating the schema."""
    raw = json.loads(Path(path).read_text())
    version = raw.get("schema_version")
    if version != HET_BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: het bench schema version {version!r} is not the "
            f"supported {HET_BENCH_SCHEMA_VERSION}"
        )
    known = set(HET_BENCH_FIELDS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"{path}: unknown het bench fields {unknown}")
    missing = sorted(known - set(raw))
    if missing:
        raise ValueError(f"{path}: missing het bench fields {missing}")
    return HetBenchRecord(**raw)


def render_het_record(record: HetBenchRecord) -> str:
    """One human-readable summary line (mirrors the batch bench)."""
    per_policy = ", ".join(
        f"{policy} {record.agg_throughput_mbps.get(policy, 0.0):,.0f}"
        for policy in record.policies
    )
    ordering = "ok" if record.ordering_ok else "VIOLATED"
    return (
        f"{record.scenario}: het/{record.simulator} "
        f"{record.num_jobs} jobs on {record.gpu_mix} "
        f"({record.num_gpus} GPUs) — wall {record.wall_time_s:.2f}s, "
        f"agg MB/s [{per_policy}], ordering {ordering}"
    )


# ----------------------------------------------------------------------
# Comparison (``repro bench --compare`` on het baselines).
# ----------------------------------------------------------------------


def compare_het_records(
    current: HetBenchRecord,
    baseline: HetBenchRecord,
    threshold: float,
) -> List[MetricDelta]:
    """Per-metric deltas of ``current`` against a het baseline.

    Both simulators are deterministic, so every simulated metric is a
    bit-exact anchor: any difference is drift (a policy/model change),
    never noise. Only ``wall_time_s`` is judged by ``threshold``.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    for field in ("scenario", "simulator", "cache", "num_jobs",
                  "num_gpus", "gpu_mix"):
        mine, theirs = getattr(current, field), getattr(baseline, field)
        if mine != theirs:
            raise ValueError(
                f"cannot compare: {field} differs "
                f"(current={mine!r}, baseline={theirs!r})"
            )
    deltas: List[MetricDelta] = []

    def anchor(metric: str, base: float, cur: float) -> None:
        deltas.append(anchor_delta(metric, base, cur))

    for policy in baseline.policies:
        anchor(
            f"agg[{policy}]",
            float(baseline.agg_throughput_mbps.get(policy, 0.0)),
            float(current.agg_throughput_mbps.get(policy, 0.0)),
        )
        anchor(
            f"jct[{policy}]",
            float(baseline.avg_jct_min.get(policy, 0.0)),
            float(current.avg_jct_min.get(policy, 0.0)),
        )
        anchor(
            f"finished[{policy}]",
            float(baseline.jobs_finished.get(policy, 0)),
            float(current.jobs_finished.get(policy, 0)),
        )
    anchor(
        "ordering_ok",
        float(baseline.ordering_ok),
        float(current.ordering_ok),
    )
    base = float(baseline.wall_time_s)
    cur = float(current.wall_time_s)
    deltas.append(
        MetricDelta(
            metric="wall_time_s",
            baseline=base,
            current=cur,
            ratio=(cur / base) if base else None,
            regressed=base > 0 and cur > base * (1.0 + threshold),
        )
    )
    return deltas
