"""The benchmark's workloads: seeded inputs, system construction, anchors.

Every workload builds its input trace from ``--seed`` alone with
``repro.workloads.trace`` and hands it to the program through public
entry points: the simulators' stepped ``begin()``/``step()``/``finish()``
protocol for the batch workloads, the socket protocol of a ``repro
serve`` process for ``serve_paced``. Sizes are fixed here so one
worker process costs about a second (three for ``fluid_sjf_gavel``,
five, mostly pacing, for ``serve_paced``) and a run can repeat it
several times.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.cluster.hardware import Cluster
from repro.sim.fluid import FluidSimulator
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system
from repro.workloads.models import FIGURE6_JOBS
from repro.workloads.trace import (
    TraceConfig,
    arrival_rate_for_load,
    generate_trace,
)

#: The seed whose anchors are pinned in :data:`PINNED_ANCHORS`.
DEFAULT_SEED = 1

#: The cache system of every workload: the paper's.
CACHE = "silod"

#: ``serve_paced``: wall seconds over which the trace's submissions are
#: paced; the server's speedup (virtual seconds per wall second) is the
#: trace's arrival span divided by this, so every seed submits at one
#: rate (37.5 jobs/s for the 150-job trace, a small share of the
#: server's time).
PACED_SPAN_S = 4.0
#: ``serve_paced``: submissions are due this many wall seconds before
#: the paced clock reaches the job's submit time.
LEAD_S = 0.5
#: ``serve_paced``: wall seconds between interleaved reads, three
#: ``status`` to one ``metrics``. (At one to one, the two ops' cost
#: modes meet at the median and the read p50 jumps between them from
#: run to run.)
READ_INTERVAL_S = 0.05

#: Image-classification jobs on the two smaller datasets (2.2k and 10k
#: items of 64 MB), so no single job's epoch dominates a minibatch run.
SMALL_IMAGE_JOBS = tuple(
    (model, dataset)
    for model, dataset in FIGURE6_JOBS
    if dataset.name in ("imagenet-1k", "open-images")
)


def trace_seed(seed: int, instance: int) -> int:
    """The trace seed of a run's ``instance``-th repetition.

    Each repetition of a run simulates its own trace, so a run's figures
    are medians over many traces and depend little on any one of them.
    """
    return seed * 10_000 + instance


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One trace shape on one cluster, run under one or more policies."""

    name: str
    simulator: str
    num_jobs: int
    num_gpus: int
    policies: Tuple[str, ...]
    load: float = 1.5
    duration_median_s: float = 7200.0
    #: Narrower than the generator's default, so the work in one trace
    #: varies less from seed to seed.
    duration_sigma: float = 0.6
    #: Fluid: policy rerun cadence. Minibatch: decision interval.
    interval_s: float = 1800.0
    #: ``None`` keeps the simulator's default sample cadence (the serve
    #: engine never sets one, so its batch reference must not either).
    sample_interval_s: Optional[float] = 3600.0
    #: Extra ``TraceConfig`` fields, as ``(name, value)`` pairs.
    trace_knobs: Tuple[Tuple[str, object], ...] = ()
    #: Nominal wall seconds of one worker process on the host the
    #: benchmark was built on; with ``--seconds`` and ``replays`` it sets
    #: how many traces a run measures (``run.trace_count``).
    instance_s: float = 1.0
    #: Runs of each trace in a ``--trace 0`` run; each phase (batch) or
    #: request (serve) counts its fastest run (``run.combine``). A batch
    #: phase is scaled by probes run beside it in the same process, so
    #: one run suffices and the time goes to more traces. A serve request
    #: also waits on the server process and on socket wake-ups, which the
    #: generator's probe sees only in part (``STEADINESS.md``).
    replays: int = 1

    def trace(self, seed: int):
        """The seeded input trace (same seed, same jobs)."""
        cfg = TraceConfig(
            num_jobs=self.num_jobs,
            seed=seed,
            duration_median_s=self.duration_median_s,
            duration_sigma=self.duration_sigma,
            **dict(self.trace_knobs),
        )
        cfg.mean_interarrival_s = arrival_rate_for_load(
            cfg, self.num_gpus, load=self.load
        )
        return generate_trace(cfg)

    @property
    def egress_gbps(self) -> float:
        """Remote-IO egress at the paper's 8 Gbps per 100 GPUs (§7.2)."""
        return 8.0 * self.num_gpus / 100.0

    def cluster(self) -> Cluster:
        """4-GPU servers with 368 GB of local cache per GPU (§7.2)."""
        return Cluster.build(
            num_servers=max(1, self.num_gpus // 4),
            gpus_per_server=4,
            cache_per_server_mb=4 * units.gb(368.0),
            remote_io_mbps=units.gbps(self.egress_gbps),
        )

    def step_instant(self, sim) -> float:
        """The virtual time the simulator's last ``step()`` acted at.

        A fluid step processes the event at its new clock; a minibatch
        step admits, places and decides at the start of the interval it
        then runs, so its clock has moved one interval past that.
        """
        if self.simulator == "minibatch":
            return sim.clock_s - self.interval_s
        return sim.clock_s

    def simulator_for(self, policy: str, jobs: Sequence, tracer=None):
        """A fresh simulator over ``jobs`` under ``policy``."""
        scheduler, cache_system = make_system(policy, CACHE)
        kwargs = {}
        if self.sample_interval_s is not None:
            kwargs["sample_interval_s"] = self.sample_interval_s
        if tracer is not None:
            kwargs["tracer"] = tracer
        if self.simulator == "fluid":
            return FluidSimulator(
                self.cluster(), scheduler, cache_system, jobs,
                reschedule_interval_s=self.interval_s, **kwargs,
            )
        return MinibatchEmulator(
            self.cluster(), scheduler, cache_system, jobs,
            decision_interval_s=self.interval_s, item_size_mb=64.0, **kwargs,
        )


class ServeScenario(Scenario):
    """A scenario submitted open-loop to a paced ``repro serve`` process."""

    def speedup(self, jobs: Sequence) -> float:
        """Virtual seconds per wall second that pace ``jobs`` in time."""
        span = jobs[-1].submit_time_s - jobs[0].submit_time_s
        return span / PACED_SPAN_S

    def serve_args(self, speedup: float) -> List[str]:
        """``python -m repro serve`` arguments for this scenario."""
        return [
            "serve", "--paused", "--speedup", repr(speedup),
            "--host", "127.0.0.1", "--port", "0",
            "--gpus", str(self.num_gpus), "--gpus-per-server", "4",
            "--cache-per-gpu-gb", "368.0",
            "--egress-gbps", repr(self.egress_gbps),
            "--policy", self.policies[0], "--cache", CACHE,
            "--simulator", self.simulator,
            "--reschedule-s", repr(self.interval_s),
            "--queue-limit", str(self.num_jobs),
        ]


WORKLOADS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "fluid_sjf_gavel", "fluid", 200, 80, ("sjf", "gavel"), load=2.5,
            instance_s=2.7,
        ),
        Scenario(
            "minibatch_fifo", "minibatch", 100, 24, ("fifo",),
            duration_median_s=1800.0, duration_sigma=0.4, interval_s=600.0,
            trace_knobs=(
                ("job_mix", SMALL_IMAGE_JOBS), ("gpu_mix", ((1, 1.0),)),
            ),
            instance_s=1.4,
        ),
        ServeScenario(
            "serve_paced", "fluid", 150, 24, ("fifo",), load=0.3,
            duration_median_s=3600.0, sample_interval_s=None,
            instance_s=5.5, replays=3,
        ),
    )
}


def job_steps(instants: Sequence[float], record) -> Tuple[int, Optional[int]]:
    """Indices of the steps that admitted and placed a job.

    ``instants`` are the virtual instants of a run's steps in order
    (:meth:`Scenario.step_instant`). The placing step is ``None`` when
    the job was placed by the step that admitted it (or never).
    """
    # The simulators admit a job once ``submit <= clock + 1e-9``.
    admitted = bisect.bisect_left(instants, record.submit_time_s - 1e-9)
    if record.start_time_s is None:
        return admitted, None
    placed = bisect.bisect_left(instants, record.start_time_s - 1e-9)
    return admitted, (placed if placed > admitted else None)


def anchors(sim, result) -> Dict[str, float]:
    """The simulated outcome of one run; wall-clock never enters it."""
    return {
        "jobs": len(result.records),
        "finished": len(result.finished_records()),
        "avg_jct_s": result.average_jct_s(),
        "makespan_s": result.makespan_s(),
        "rounds": sim.sched_rounds,
        "decision_rounds": sim.decision_rounds,
        "events": sim.loop_events,
    }


def invariant_failures(
    scenario: Scenario, policy: str, got: Dict[str, float]
) -> List[str]:
    """Checks that hold for any seed: every job finishes, counts agree."""
    failures = []
    n = scenario.num_jobs
    if got["jobs"] != n:
        failures.append(f"{policy}: {got['jobs']} job records, expected {n}")
    if got["finished"] != n:
        failures.append(f"{policy}: {got['finished']} of {n} jobs finished")
    if not got["rounds"] >= 1 or got["decision_rounds"] < got["rounds"]:
        failures.append(
            f"{policy}: {got['rounds']} rounds vs "
            f"{got['decision_rounds']} decision rounds"
        )
    if got["events"] < n:
        failures.append(f"{policy}: {got['events']} events for {n} jobs")
    if not got["avg_jct_s"] > 0 or not got["makespan_s"] > 0:
        failures.append(f"{policy}: non-positive JCT or makespan")
    return failures


#: Anchors of the default seed's first instance, per workload and
#: policy (every job finishes, so ``jobs``/``finished`` are the trace
#: size). A change that moves any of them changed what the program
#: computes.
PINNED_ANCHORS: Dict[str, Dict[str, Dict[str, float]]] = {
    "fluid_sjf_gavel": {
        "sjf": {
            "avg_jct_s": 34767.46012406778, "makespan_s": 142129.74737248573,
            "rounds": 428, "decision_rounds": 862, "events": 901,
        },
        "gavel": {
            "avg_jct_s": 47941.945491610095,
            "makespan_s": 122885.4691747552,
            "rounds": 411, "decision_rounds": 847, "events": 881,
        },
    },
    "minibatch_fifo": {
        "fifo": {
            "avg_jct_s": 30595.284565285136, "makespan_s": 57689.73731455657,
            "rounds": 98, "decision_rounds": 98, "events": 227112,
        },
    },
    "serve_paced": {
        "fifo": {
            "avg_jct_s": 11288.50552929585, "makespan_s": 223001.6566494538,
            "rounds": 335, "decision_rounds": 477, "events": 845,
        },
    },
}


def pinned_failures(
    workload: str, seed: int, policy: str, got: Dict[str, float]
) -> List[str]:
    """Differences from the pinned default-seed anchors (exact match)."""
    if seed != DEFAULT_SEED:
        return []
    want = PINNED_ANCHORS.get(workload, {}).get(policy)
    if want is None:
        return [f"{workload}/{policy}: no pinned anchors"]
    return [
        f"{workload}/{policy}: {key} = {got.get(key)!r}, pinned {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]
