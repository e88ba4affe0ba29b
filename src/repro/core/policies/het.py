"""Heterogeneity-aware objectives over (GPU generation, cache, IO).

Gavel (Narayanan et al., OSDI 2020) generalises max-min fairness to
heterogeneous fleets by making throughput a function of *which* GPU
generation a job runs on: ``f*(job, gen)``. This module composes that
idea with SiloD's Eq. 4 cache/IO term, so one allocation round trades
cache shares against generation placement:

* :class:`HetMaxMinPolicy` — max-min fairness over heterogeneous
  allocations. The generation assignment is chosen to maximise the
  common throughput ratio (exhaustive enumeration on small instances,
  deterministic greedy beyond :data:`_ENUM_LIMIT` candidates); the
  joint (GPU share, cache, IO) division then reuses
  :class:`~repro.core.policies.gavel.GavelPolicy`'s progressive-filling
  machinery with per-generation GPU pools added to the feasibility
  check.
* :class:`HetMaxThroughputPolicy` — max-sum-throughput. Fast
  generations go to the jobs with the highest data-rate density
  (``f*`` per requested GPU), and the water-filling normaliser is the
  job's own heterogeneous compute bound, so the common ratio *is* the
  fraction of aggregate peak throughput achieved — maximising the
  ratio maximises the sum within the filling family.

Both policies publish per-generation compute bounds into
``ctx.gen_scores`` (job_id -> {generation: f*}) and their placement
into ``ctx.gen_assignments``; lint rule POL004 enforces the former for
every ``heterogeneity_aware`` policy, and the provenance layer carries
both into ``decision_job`` events.

On a homogeneous fleet (``ctx.gpu_pools`` absent or single-generation)
:class:`HetMaxMinPolicy` delegates to the parent unchanged — with the
speedup table anchored at the fleet's generation the factors are
exactly 1.0, so allocations are bit-identical to ``GavelPolicy``
(the collapse property of ``tests/core/test_het_perf_model.py``).

Like ``gavel.py``, this module imports numpy unconditionally: the
joint solver is deliberately outside the ``REPRO_NO_NUMPY`` fallback
surface, so backend choice never changes policy numerics. The
assignment search helper (:func:`common_ratio_for_assignment`) is pure
Python for the same reason — the brute-force property test calls it
directly.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import _EPS, _ITERS, GavelPolicy
from repro.core.resources import Allocation, ResourceVector

#: Exhaustive assignment enumeration is used only while
#: ``len(pools) ** len(jobs)`` stays at or below this; larger instances
#: fall back to the deterministic greedy placer.
_ENUM_LIMIT = 256


def _greedy_cache_plan(
    jobs: Sequence[Job],
    targets: Dict[str, float],
    budget_mb: float,
) -> Dict[str, float]:
    """Pure-Python mirror of ``_JointArrays.cache_plan_with_budget``.

    Greedy by marginal IO saving ``sum_{j on D} T_j / d_D``, stable on
    ties by first-appearance order (matching numpy's stable argsort
    over the same dataset ordering).
    """
    order: List[str] = []
    sizes: Dict[str, float] = {}
    saving: Dict[str, float] = {}
    for job in jobs:
        name = job.dataset.name
        if name not in sizes:
            order.append(name)
            sizes[name] = job.dataset.size_mb
            saving[name] = 0.0
        saving[name] += targets.get(job.job_id, 0.0) / job.dataset.size_mb
    ranked = sorted(
        order, key=lambda name: (-saving[name], order.index(name))
    )
    grants: Dict[str, float] = {}
    before = 0.0
    for name in ranked:
        grants[name] = min(sizes[name], max(0.0, budget_mb - before))
        before += sizes[name]
    return grants


def common_ratio_for_assignment(
    jobs: Sequence[Job],
    assignment: Dict[str, str],
    pools: Dict[str, int],
    total: ResourceVector,
    estimator: HetSiloDPerfEstimator,
    normalisers: Dict[str, float],
    effective_cache_mb=None,
    iters: int = _ITERS,
) -> float:
    """Largest common ratio ``t`` reachable under a generation map.

    Every job must reach ``t * normalisers[job_id]`` subject to its
    heterogeneous compute bound, per-generation GPU pool capacities,
    the shared cache budget (greedy IO-minimising plan), and the shared
    remote-IO budget. Pure Python — the max-min brute-force property
    test scores candidate assignments with exactly this function.
    """
    jobs = list(jobs)
    if not jobs:
        return 0.0
    f_star: Dict[str, float] = {}
    for job in jobs:
        by_gen = estimator.f_star_by_generation(job)
        generation = assignment.get(job.job_id, estimator.default_generation)
        f_star[job.job_id] = by_gen[generation]
    if effective_cache_mb is None:
        eff = {job.job_id: job.dataset.size_mb for job in jobs}
    else:
        eff = {job.job_id: effective_cache_mb(job) for job in jobs}

    def feasible(ratio: float) -> bool:
        targets = {
            job.job_id: ratio * normalisers[job.job_id] for job in jobs
        }
        for job in jobs:
            if targets[job.job_id] > f_star[job.job_id] * (1.0 + _EPS):
                return False
        for gen, capacity in pools.items():
            demand = 0.0
            for job in jobs:
                if (
                    assignment.get(
                        job.job_id, estimator.default_generation
                    )
                    != gen
                ):
                    continue
                if f_star[job.job_id] > 0:
                    demand += (
                        targets[job.job_id]
                        / f_star[job.job_id]
                        * job.num_gpus
                    )
            if demand > capacity * (1.0 + _EPS):
                return False
        cache = _greedy_cache_plan(jobs, targets, total.cache_mb)
        total_io = 0.0
        for job in jobs:
            hits = min(
                cache.get(job.dataset.name, 0.0), eff[job.job_id]
            )
            miss = 1.0 - min(1.0, hits / job.dataset.size_mb)
            total_io += targets[job.job_id] * miss
        return total_io <= total.remote_io_mbps * (1.0 + _EPS)

    hi = min(
        f_star[job.job_id] / max(normalisers[job.job_id], 1e-12)
        for job in jobs
    )
    if feasible(hi):
        return hi
    lo = 0.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


class _HetGavelBase(GavelPolicy):
    """Shared machinery: assignment hand-off + pool-aware feasibility."""

    #: Marks the policy for lint rule POL004 (must publish per-
    #: generation scores) and for the scheduler's provenance plumbing.
    heterogeneity_aware = True

    #: Per-round state consumed by :meth:`_feasible`: each pool's
    #: capacity and the mask of its jobs (in job order); ``None``
    #: outside a heterogeneous scheduling round.
    _pool_masks: Optional[List[Tuple[int, np.ndarray]]] = None

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        estimator = ctx.estimator
        het = isinstance(estimator, HetSiloDPerfEstimator)
        if het:
            for job in jobs:
                ctx.gen_scores[job.job_id] = (
                    estimator.f_star_by_generation(job)
                )
        pools = ctx.gpu_pools
        if not het or not pools or len(pools) <= 1:
            # Homogeneous fleet (or no generation model): the speedup
            # factor is 1.0 everywhere, so the parent's allocation is
            # already optimal — delegate bit-identically.
            if het:
                for job in jobs:
                    ctx.gen_assignments[job.job_id] = (
                        estimator.default_generation
                    )
            self._pool_masks = None
            return super().schedule(jobs, total, ctx)
        assignment = self._assign(list(jobs), dict(pools), total, ctx)
        for job_id, generation in assignment.items():
            estimator.assignments[job_id] = generation
            ctx.gen_assignments[job_id] = generation
        n = len(jobs)
        self._pool_masks = [
            (
                capacity,
                np.fromiter(
                    (assignment.get(job.job_id) == gen for job in jobs),
                    bool,
                    count=n,
                ),
            )
            for gen, capacity in pools.items()
        ]
        try:
            return super().schedule(jobs, total, ctx)
        finally:
            self._pool_masks = None

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        raise NotImplementedError

    def _feasible(
        self,
        ratio: float,
        arrays,
        frozen: np.ndarray,
        frozen_targets: np.ndarray,
        total: ResourceVector,
    ) -> bool:
        """Parent feasibility plus per-generation GPU pool capacities.

        GPU slack distributed after the max-min targets are met still
        draws on the shared total (a deliberate approximation — slack
        only raises throughputs, never the binding minimum).
        """
        if not super()._feasible(
            ratio, arrays, frozen, frozen_targets, total
        ):
            return False
        if not self._pool_masks:
            return True
        targets = np.where(
            frozen, frozen_targets, ratio * arrays.perf_eq
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(
                arrays.f_star > 0, targets / arrays.f_star, 0.0
            )
        demand = fractions * arrays.gpus
        for capacity, mask in self._pool_masks:
            if float(demand[mask].sum()) > capacity * (1.0 + _EPS):
                return False
        return True

    @staticmethod
    def _pools_fastest_first(
        pools: Dict[str, int], estimator: HetSiloDPerfEstimator
    ) -> List[str]:
        """Pool names by descending speedup (ties: name) — greedy order."""
        return sorted(
            pools,
            key=lambda gen: (-estimator.speedups.get(gen, 1.0), gen),
        )


class HetMaxMinPolicy(_HetGavelBase):
    """Max-min fairness over heterogeneous (gen, cache, IO) allocations.

    The generation assignment maximising the common throughput ratio is
    found exhaustively while ``len(pools) ** len(jobs)`` stays within
    :data:`_ENUM_LIMIT` (ties broken by the lexicographically first
    assignment tuple, so rounds are deterministic); larger instances
    use a greedy placer that sends the highest-density jobs to the
    fastest pools. :attr:`last_assignment_ratio` records the chosen
    assignment's score for diagnostics and the property test.
    """

    name = "het-max-min"

    #: Common ratio of the most recent heterogeneous assignment search.
    last_assignment_ratio: float = 0.0

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        estimator = ctx.estimator
        # Normalisers must be assignment-independent: clear any stale
        # generation map before evaluating equal shares.
        for job in jobs:
            estimator.assignments.pop(job.job_id, None)
        normalisers = dict(
            zip(
                [job.job_id for job in jobs],
                self._normalisers(jobs, total, ctx).tolist(),
            )
        )
        gens = sorted(pools)
        n = len(jobs)
        if n == 0:
            return {}
        if len(gens) ** n <= _ENUM_LIMIT:
            best: Optional[Tuple[str, ...]] = None
            best_ratio = -1.0
            for candidate in itertools.product(gens, repeat=n):
                assignment = {
                    job.job_id: gen
                    for job, gen in zip(jobs, candidate)
                }
                ratio = common_ratio_for_assignment(
                    jobs,
                    assignment,
                    pools,
                    total,
                    estimator,
                    normalisers,
                    ctx.effective_cache_mb,
                )
                if ratio > best_ratio * (1.0 + _EPS) + 1e-15:
                    best_ratio = ratio
                    best = candidate
            self.last_assignment_ratio = best_ratio
            assert best is not None
            return {
                job.job_id: gen for job, gen in zip(jobs, best)
            }
        assignment = self._greedy_assign(jobs, pools, estimator)
        self.last_assignment_ratio = common_ratio_for_assignment(
            jobs,
            assignment,
            pools,
            total,
            estimator,
            normalisers,
            ctx.effective_cache_mb,
        )
        return assignment

    def _greedy_assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        estimator: HetSiloDPerfEstimator,
    ) -> Dict[str, str]:
        """Deterministic fallback: densest jobs onto the fastest pools."""
        order = self._pools_fastest_first(pools, estimator)
        remaining = dict(pools)
        assignment: Dict[str, str] = {}
        ranked = sorted(
            jobs,
            key=lambda j: (
                -estimator.f_star_by_generation(j)[
                    estimator.default_generation
                ]
                / max(j.num_gpus, 1),
                j.job_id,
            ),
        )
        for job in ranked:
            placed = None
            for gen in order:
                if remaining[gen] >= job.num_gpus:
                    placed = gen
                    break
            if placed is None:
                # Nothing fits wholly: time-share the emptiest pool.
                placed = max(
                    order, key=lambda gen: (remaining[gen], gen)
                )
            remaining[placed] = max(
                0, remaining[placed] - job.num_gpus
            )
            assignment[job.job_id] = placed
        return assignment


class HetMaxThroughputPolicy(_HetGavelBase):
    """Max-sum-throughput over heterogeneous allocations.

    Fast generations are assigned to the jobs with the highest
    data-rate density (``f*`` per requested GPU), and the water-filling
    normaliser is each job's own heterogeneous compute bound — so the
    progressive-filling ratio is the fraction of aggregate peak
    throughput achieved, and maximising it maximises the sum. The Eq. 4
    cache/IO coupling is unchanged: cache still goes to the datasets
    with the highest marginal IO saving at the chosen targets.
    """

    name = "het-max-throughput"

    def _normalisers(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> np.ndarray:
        """Normalise by the job's compute bound, not the equal share."""
        f_star = np.array(
            ctx.estimator.compute_bound_batch(
                jobs, [job.num_gpus for job in jobs]
            ),
            dtype=float,
        )
        weight = np.fromiter(
            (job.weight for job in jobs), float, count=len(jobs)
        )
        return np.maximum(np.maximum(f_star, 1e-12) * weight, 1e-12)

    def _assign(
        self,
        jobs: List[Job],
        pools: Dict[str, int],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Dict[str, str]:
        estimator = ctx.estimator
        for job in jobs:
            estimator.assignments.pop(job.job_id, None)
        order = self._pools_fastest_first(pools, estimator)
        remaining = dict(pools)
        assignment: Dict[str, str] = {}
        ranked = sorted(
            jobs,
            key=lambda j: (
                -estimator.f_star_by_generation(j)[
                    estimator.default_generation
                ]
                / max(j.num_gpus, 1),
                j.job_id,
            ),
        )
        for job in ranked:
            placed = None
            for gen in order:
                if remaining[gen] >= job.num_gpus:
                    placed = gen
                    break
            if placed is None:
                placed = max(
                    order, key=lambda gen: (remaining[gen], gen)
                )
            remaining[placed] = max(
                0, remaining[placed] - job.num_gpus
            )
            assignment[job.job_id] = placed
        return assignment
