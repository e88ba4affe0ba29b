"""The scaling-scenario suite behind ``python -m repro bench``.

Each :class:`BenchScenario` pins one (simulator, trace, cluster)
configuration; :func:`run_scenario` generates the trace (outside the
timed region), runs the simulation with a fresh *disabled* tracer (so
event emission cannot distort the measurement while the ``repro.obs``
counter registry still collects the loop/round totals), and folds wall
time, peak RSS, and the counters into a
:class:`~repro.perf.record.BenchRecord`.

Suites
------
* ``smoke`` — seconds; the CI regression gate (``tools/ci.sh``).
* ``scale`` (default) — the ROADMAP's datacenter-scale points: 1k/5k/10k
  jobs on 400/2k-GPU clusters for the fluid simulator plus a
  minibatch-emulator point; minutes on the vectorized backend.
* ``full`` — ``scale`` plus the 8k-GPU stretch scenario.

Peak RSS is read from ``getrusage`` and is a *process* high-water mark:
when several scenarios run in one process, later records inherit the
largest earlier footprint. The CLI orders scenarios smallest-first and
``docs/PERFORMANCE.md`` documents the caveat.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import sys
import time
from typing import Dict, Optional, Sequence, Tuple

from repro import units
from repro.cluster.hardware import Cluster
from repro.obs.tracer import NullTracer
from repro.perf.backend import backend_name
from repro.perf.record import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    host_fingerprint,
    utc_now_iso,
)
from repro.sim.runner import run_experiment
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)


@dataclasses.dataclass(frozen=True)
class BenchScenario:
    """One benchmark configuration (trace + cluster + simulator)."""

    name: str
    simulator: str
    num_jobs: int
    num_gpus: int
    policy: str = "fifo"
    cache: str = "silod"
    seed: int = 42
    load: float = 1.5
    duration_median_s: float = 7200.0
    duration_sigma: float = 1.2
    reschedule_interval_s: float = 1800.0
    sample_interval_s: float = 3600.0
    #: Minibatch emulation granularity (ignored by the fluid simulator).
    item_size_mb: float = 64.0
    decision_interval_s: float = 600.0

    def build_trace(self):
        """Generate the scenario's job trace (outside the timed region)."""
        cfg = TraceConfig(
            num_jobs=self.num_jobs,
            seed=self.seed,
            duration_median_s=self.duration_median_s,
            duration_sigma=self.duration_sigma,
        )
        cfg.mean_interarrival_s = arrival_rate_for_load(
            cfg, self.num_gpus, load=self.load
        )
        return generate_trace(cfg)

    def build_cluster(self) -> Cluster:
        """Build the scenario's cluster at the paper's per-GPU ratios."""
        # The paper's per-GPU ratios (§7.2): 368 GB of local cache per
        # GPU and 8 Gbps of egress per 100 GPUs.
        return Cluster.build(
            num_servers=max(1, self.num_gpus // 4),
            gpus_per_server=4,
            cache_per_server_mb=4 * units.gb(368.0),
            remote_io_mbps=units.gbps(8.0 * self.num_gpus / 100.0),
        )

    def sim_kwargs(self) -> dict:
        """Simulator-specific keyword arguments for ``run_experiment``."""
        if self.simulator == "fluid":
            return {
                "reschedule_interval_s": self.reschedule_interval_s,
                "sample_interval_s": self.sample_interval_s,
            }
        return {
            "decision_interval_s": self.decision_interval_s,
            "sample_interval_s": self.sample_interval_s,
            "item_size_mb": self.item_size_mb,
        }


#: Every known scenario by name. The 10k-job / 2k-GPU fluid point is the
#: ROADMAP's headline scale target; the minibatch points stay small
#: because the emulator pays per training step, not per event.
SCENARIOS: Dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario(
            "fluid_tiny", "fluid", num_jobs=40, num_gpus=16,
            duration_median_s=3600.0,
        ),
        # The paper's own policies on the fluid_tiny shape: CI gates
        # their anchors (SJF's score order, Gavel's max-min solve).
        BenchScenario(
            "fluid_tiny_sjf", "fluid", num_jobs=40, num_gpus=16,
            policy="sjf", duration_median_s=3600.0,
        ),
        BenchScenario(
            "fluid_tiny_gavel", "fluid", num_jobs=40, num_gpus=16,
            policy="gavel", duration_median_s=3600.0,
        ),
        BenchScenario("fluid_smoke", "fluid", num_jobs=120, num_gpus=64),
        BenchScenario(
            "minibatch_smoke", "minibatch", num_jobs=24, num_gpus=16,
            duration_median_s=3600.0,
        ),
        BenchScenario("fluid_1k_400", "fluid", num_jobs=1000, num_gpus=400),
        BenchScenario("fluid_5k_2k", "fluid", num_jobs=5000, num_gpus=2000),
        BenchScenario("fluid_10k_2k", "fluid", num_jobs=10000, num_gpus=2000),
        BenchScenario("fluid_10k_8k", "fluid", num_jobs=10000, num_gpus=8000),
        BenchScenario(
            "minibatch_200_96", "minibatch", num_jobs=200, num_gpus=96,
            duration_median_s=3600.0,
        ),
    )
}

#: Named suites, smallest scenarios first (peak-RSS caveat above).
SUITES: Dict[str, Tuple[str, ...]] = {
    "smoke": ("fluid_smoke", "minibatch_smoke"),
    "scale": (
        "fluid_1k_400",
        "minibatch_200_96",
        "fluid_5k_2k",
        "fluid_10k_2k",
    ),
    "full": (
        "fluid_1k_400",
        "minibatch_200_96",
        "fluid_5k_2k",
        "fluid_10k_2k",
        "fluid_10k_8k",
    ),
}


def scenarios_for(
    suite: Optional[str] = None,
    names: Sequence[str] = (),
) -> Tuple[BenchScenario, ...]:
    """Resolve a suite name and/or explicit scenario names to specs."""
    chosen = []
    if suite is not None:
        if suite not in SUITES:
            raise ValueError(
                f"unknown suite {suite!r}; expected one of {sorted(SUITES)}"
            )
        chosen.extend(SUITES[suite])
    for name in names:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; expected one of "
                f"{sorted(SCENARIOS)}"
            )
        if name not in chosen:
            chosen.append(name)
    return tuple(SCENARIOS[name] for name in chosen)


def peak_rss_mb() -> float:
    """Process peak resident set size in MB (high-water, monotonic)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KB on Linux, bytes on macOS; these are binary-prefix
    # memory sizes, not the decimal storage units repro.units models.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        # lint: disable=UNI001
        return rss / (1024.0 * 1024.0)
    # lint: disable=UNI001
    return rss / 1024.0


def run_scenario(spec: BenchScenario) -> BenchRecord:
    """Measure one scenario under the currently selected backend."""
    jobs = spec.build_trace()
    cluster = spec.build_cluster()
    # A fresh disabled tracer: no event payloads are built in the hot
    # loop, but the simulators publish their loop/round counters into
    # its metrics registry at the end of the run.
    tracer = NullTracer()
    gc.collect()
    # Wall-clock by design: this is the measurement itself, never
    # simulation input.
    # lint: disable=DET003
    t0 = time.perf_counter()
    result = run_experiment(
        cluster,
        spec.policy,
        spec.cache,
        jobs,
        simulator=spec.simulator,
        tracer=tracer,
        **spec.sim_kwargs(),
    )
    # lint: disable=DET003
    wall_s = time.perf_counter() - t0
    events = int(tracer.metrics.counter("sim.events"))
    rounds = int(tracer.metrics.counter("sim.sched_rounds"))
    finished = result.finished_records()
    return BenchRecord(
        schema_version=BENCH_SCHEMA_VERSION,
        scenario=spec.name,
        simulator=spec.simulator,
        policy=spec.policy,
        cache=spec.cache,
        num_jobs=spec.num_jobs,
        num_gpus=spec.num_gpus,
        backend=backend_name(),
        wall_time_s=wall_s,
        peak_rss_mb=peak_rss_mb(),
        events_total=events,
        events_per_sec=events / wall_s if wall_s > 0 else 0.0,
        rounds_total=rounds,
        rounds_per_sec=rounds / wall_s if wall_s > 0 else 0.0,
        sim_time_s=result.end_time_s,
        jobs_finished=len(finished),
        avg_jct_min=result.average_jct_minutes(),
        created_utc=utc_now_iso(),
        host=host_fingerprint(),
    )
