"""Multi-resource Shortest-Job-First (§5.1, Eq 6-7).

Tetris and Tiresias are unified by scoring each job with the weighted sum
of its resource demand multiplied by its estimated duration:

    score = min_R  (sum_t w_t * R_t) * numSteps * stepDataSize / perf(j, R)

with ``w_t = 1 / totalResource[t]``. Jobs with the least score run first.

In SiloD mode ``perf`` is SiloDPerf (Eq 7) and R spans GPUs, cache, and
remote IO. The inner minimisation has a closed form:

* lowering the loading throughput ``f`` below ``f*`` never helps — the IO
  cost term ``w_b * b * duration = w_b * (1 - c/d) * W`` is independent of
  ``f`` while every other term grows as ``f`` shrinks — so ``f = f*``;
* at ``f = f*`` the cost is **linear in the cache grant c**, so the optimum
  sits at an endpoint: ``c = 0`` or ``c = min(d, C)``.

Scoring therefore evaluates two candidate allocations per job.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator, SiloDPerfEstimator
from repro.core.policies.base import (
    ScheduleContext,
    SchedulingPolicy,
    admit_in_order,
    allocate_storage_greedily,
)
from repro.core.resources import (
    Allocation,
    ResourceVector,
    tetris_weights,
)


def sjf_score(
    job: Job,
    total: ResourceVector,
    estimator: SiloDPerfEstimator,
    storage_aware: bool,
) -> float:
    """Eq 6 (vanilla) / Eq 7 (SiloD) score; lower runs first."""
    weights = tetris_weights(total)
    f_star = estimator.compute_bound(job, job.num_gpus)
    if f_star <= 0:
        return float("inf")
    if not storage_aware or not job.regular:
        # Vanilla multi-resource SJF: R is compute only, duration at f*.
        demand = ResourceVector(gpus=job.num_gpus)
        return demand.weighted_sum(weights) * job.total_work_mb / f_star

    candidates = candidate_allocations(job, total)
    best = float("inf")
    for resources in candidates:
        throughput = estimator.estimate_vector(job, resources)
        if throughput <= 0:
            continue
        duration = job.total_work_mb / throughput
        best = min(best, resources.weighted_sum(weights) * duration)
    return best


def candidate_allocations(
    job: Job, total: ResourceVector
) -> Tuple[ResourceVector, ...]:
    """The two endpoint allocations of Eq 7's inner minimisation.

    Both run the job at ``f*`` (full GPUs, just-enough remote IO); they
    differ in whether the dataset is cached as fully as the cluster allows.
    """
    d = job.dataset.size_mb
    f_star = job.ideal_throughput_mbps
    no_cache = ResourceVector(
        gpus=job.num_gpus,
        cache_mb=0.0,
        remote_io_mbps=min(f_star, total.remote_io_mbps),
    )
    cache_mb = min(d, total.cache_mb)
    full_cache = ResourceVector(
        gpus=job.num_gpus,
        cache_mb=cache_mb,
        remote_io_mbps=min(
            f_star * (1.0 - cache_mb / d), total.remote_io_mbps
        ),
    )
    return (no_cache, full_cache)


class SjfPolicy(SchedulingPolicy):
    """Preemptive multi-resource SJF.

    On every scheduling round all active jobs are ranked by their Eq 6/7
    score and admitted in ascending score order — running jobs with worse
    scores than waiting ones are preempted, as in Tiresias. In SiloD
    mode, cache then goes to the most cache-efficient datasets among
    admitted jobs and remote IO is granted full-demand-first in score
    order (short jobs are never starved by long ones).

    A job's score depends only on its static fields, the cluster total,
    the storage-awareness flag and the estimator, so each job is scored
    once and the score is reused on later rounds while all four hold:
    the same ``Job`` object, an equal ``total`` (faults and partitioned
    pools change it), the same ``storage_aware`` flag and the same
    estimator object. A :class:`HetSiloDPerfEstimator` carries mutable
    generation assignments, so its rounds always re-score. The cache is
    rebuilt from each round's job list and never outlives the active set.
    It keeps one slot per ``storage_aware`` value: a storage-partitioned
    round (see :meth:`SiloDScheduler._schedule_partitioned`) scores the
    regular pool storage-aware and the irregular pool without storage,
    and each pool hits its own slot on the next round.
    """

    name = "sjf"

    def __init__(self) -> None:
        #: storage_aware -> (total, estimator, {job_id: (job, score)}):
        #: the last round's scores under that flag and what they hold for.
        self._slots: Dict[
            bool,
            Tuple[
                ResourceVector,
                SiloDPerfEstimator,
                Dict[str, Tuple[Job, float]],
            ],
        ] = {}

    def scores(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, float]:
        """Every job's Eq 6/7 score this round, scoring only new jobs."""
        estimator = ctx.estimator
        storage_aware = ctx.storage_aware
        cacheable = not isinstance(estimator, HetSiloDPerfEstimator)
        previous: Dict[str, Tuple[Job, float]] = {}
        slot = self._slots.get(storage_aware)
        if (
            cacheable
            and slot is not None
            and slot[1] is estimator
            and slot[0] == total
        ):
            previous = slot[2]
        kept: Dict[str, Tuple[Job, float]] = {}
        scores: Dict[str, float] = {}
        for job in jobs:
            entry = previous.get(job.job_id)
            if entry is not None and entry[0] is job:
                score = entry[1]
            else:
                score = sjf_score(job, total, estimator, storage_aware)
            kept[job.job_id] = (job, score)
            scores[job.job_id] = score
        if cacheable:
            self._slots[storage_aware] = (total, estimator, kept)
        else:
            self._slots.pop(storage_aware, None)
        return scores

    def order(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> List[Job]:
        """Jobs in ascending Eq 6/7 score."""
        return _ranked(jobs, self.scores(jobs, total, ctx))

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        allocation = Allocation()
        scores = self.scores(jobs, total, ctx)
        ctx.job_scores.update(scores)
        ordered = _ranked(jobs, scores)
        admitted = admit_in_order(ordered, total.gpus, allocation)
        if ctx.storage_aware and admitted:
            allocate_storage_greedily(
                admitted,
                total,
                allocation,
                ctx,
                io_priority_order=[j.job_id for j in ordered],
            )
        return allocation


def _ranked(jobs: Sequence[Job], scores: Dict[str, float]) -> List[Job]:
    """``jobs`` by ascending score, ties by job id."""
    return sorted(jobs, key=lambda job: (scores[job.job_id], job.job_id))
