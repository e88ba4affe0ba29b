"""Gavel max-min fairness (§5.2, Eq 8-9).

Gavel maximises the minimum, over jobs, of the job's throughput relative to
what it would get under an **equal division** of the cluster
(``R_equal``). Vanilla Gavel sees only compute, so it reduces to
proportional GPU time-sharing; SiloD-Gavel replaces ``perf`` with SiloDPerf
and adds cache and remote IO as allocation dimensions (Eq 9).

SiloDPerf is quasi-concave in the allocation — the super-level set
"throughput >= T" is ``{x >= T/f*} ∩ {b >= T (1 - c/d)}``, an intersection
of half-spaces — so the max-min programme is solved *exactly* by bisection
on the common ratio ``t``:

* GPU feasibility is linear: ``sum_j (T_j / f*_j) g_j <= G``.
* Storage feasibility is a one-dimensional greedy: to minimise total
  remote IO subject to the cache budget, give cache to the datasets with
  the highest marginal saving ``sum_{j on D} T_j / d_D`` (cache efficiency
  evaluated at the targets), then check ``sum_j b_j <= B``.

Lexicographic (progressive-filling) max-min: jobs whose ``f*`` cap binds at
the current ratio are frozen at ``f*`` and the ratio keeps rising for the
rest; when a shared resource binds, the loop ends and remaining slack is
handed out in a final filling pass.

The joint solver is vectorised with numpy: it runs on every scheduling
round of cluster-scale simulations, where the active job set reaches
hundreds of jobs. Each round builds one columnar frame of the job set
(:class:`_JointArrays`); the normalisers, every bisection probe and the
slack pass read its columns, and whatever a bisection's ~41 feasibility
probes share (the active mask, the capped ``f*`` and the capacity
limits) is computed once per bisection. The vectorised paths mirror the
scalar estimator operation for operation, so allocations are
bit-identical to evaluating :func:`equal_share` and
:meth:`SiloDPerfEstimator.estimate` job by job.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.job import Job
from repro.core import perf_model
from repro.core.estimator import (
    SiloDPerfEstimator,
    linear_compute_estimator,
)
from repro.core.policies.base import ScheduleContext, SchedulingPolicy
from repro.core.resources import Allocation, ResourceVector

#: Bisection iterations (relative precision ~1e-9 on the ratio).
_ITERS = 40
_EPS = 1e-9
#: ``perf_model.io_throughput``'s full-coverage tolerance: at or below
#: this miss ratio Eq 3 is infinite. The column mirrors branch on it.
_MISS_EPS = 1e-12


@dataclasses.dataclass(frozen=True)
class EqualShare:
    """A job's slice of ``R_equal`` and its performance under it."""

    gpus: float
    cache_mb: float
    remote_io_mbps: float
    perf_mbps: float


def equal_share(
    job: Job,
    num_jobs: int,
    total: ResourceVector,
    estimator: SiloDPerfEstimator,
    storage_aware: bool,
) -> EqualShare:
    """``R_equal``: the cluster divided evenly among ``num_jobs`` jobs.

    GPU share is capped at the job's request; cache share at its dataset
    size. Vanilla Gavel's equal-share performance ignores storage.
    """
    if num_jobs < 1:
        raise ValueError("need at least one job")
    gpus = min(job.num_gpus, total.gpus / num_jobs)
    cache_mb = min(job.dataset.size_mb, total.cache_mb / num_jobs)
    io_mbps = total.remote_io_mbps / num_jobs
    if storage_aware and job.regular:
        perf = estimator.estimate(job, gpus, cache_mb, io_mbps)
    else:
        perf = estimator.compute_bound(job, gpus)
    return EqualShare(gpus, cache_mb, io_mbps, perf)


def has_default_estimator(estimator: SiloDPerfEstimator) -> bool:
    """Whether ``estimator`` is the plain linear-scaling SiloDPerf.

    Only then do the column mirrors below reproduce its estimates;
    any other estimator is evaluated job by job.
    """
    return (
        type(estimator) is SiloDPerfEstimator
        and estimator.compute_estimator is linear_compute_estimator
    )


def silod_perf_columns(
    f_star: np.ndarray,
    requested: np.ndarray,
    dataset_mb: np.ndarray,
    storage_bound: np.ndarray,
    gpus: np.ndarray,
    cache_mb: np.ndarray,
    remote_io_mbps,
) -> np.ndarray:
    """:meth:`SiloDPerfEstimator.estimate` over columns of jobs.

    Mirrors the default estimator operation for operation: the linear
    compute bound ``f* * min(1, gpus / requested)``, then, where
    ``storage_bound`` is set, ``min`` with Eq 3's
    ``io / (1 - min(1, c / d))`` (``inf`` once the miss ratio is at
    most ``_MISS_EPS``). Rows without ``storage_bound`` keep
    the compute bound, as irregular jobs and vanilla policies do.
    """
    f = f_star * np.minimum(1.0, gpus / requested)
    miss = 1.0 - np.minimum(1.0, cache_mb / dataset_mb)
    with np.errstate(divide="ignore", invalid="ignore"):
        io_perf = np.where(
            miss <= _MISS_EPS, np.inf, remote_io_mbps / miss
        )
    return np.where(storage_bound, np.minimum(f, io_perf), f)


def _column(values, n: int, dtype=float) -> np.ndarray:
    return np.fromiter(values, dtype, count=n)


def slice_perf_columns(
    jobs: Sequence[Job],
    gpus: float,
    cache_mb: float,
    remote_io_mbps: float,
    storage_aware: bool,
) -> np.ndarray:
    """Default-estimator SiloDPerf of every job on one slice of the cluster.

    Each job gets ``min(request, gpus)`` GPUs, ``min(dataset, cache_mb)``
    cache and ``remote_io_mbps`` of IO — :func:`equal_share`'s division
    when the slice is the total over ``n``. Irregular jobs, and every job
    when not ``storage_aware``, keep the compute bound.
    """
    n = len(jobs)
    requested = _column((float(j.num_gpus) for j in jobs), n)
    d = _column((j.dataset.size_mb for j in jobs), n)
    return silod_perf_columns(
        _column((j.ideal_throughput_mbps for j in jobs), n),
        requested,
        d,
        _column((storage_aware and j.regular for j in jobs), n, bool),
        np.minimum(requested, gpus),
        np.minimum(d, cache_mb),
        remote_io_mbps,
    )


class _JointArrays:
    """The round frame: column arrays of the job set for the joint solver.

    Built once per round. :meth:`prepare_bisection` adds the invariants
    of one bisection (fixed frozen set), which :meth:`GavelPolicy._feasible`
    reads on every probe.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        perf_eq: np.ndarray,
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> None:
        self.jobs = list(jobs)
        jobs = self.jobs
        n = len(jobs)
        self.f_star = np.array(
            ctx.estimator.compute_bound_batch(
                jobs, [job.num_gpus for job in jobs]
            ),
            dtype=float,
        )
        self.perf_eq = perf_eq
        self.gpus = _column((float(j.num_gpus) for j in jobs), n)
        self.d = _column((j.dataset.size_mb for j in jobs), n)
        self.regular = _column((j.regular for j in jobs), n, bool)
        # Effective cached bytes visible right now (§6): the IO cost of a
        # target must be paid against hits the job can actually take.
        # Without an effective view, assume warm caches (steady state).
        eff_map = ctx.effective_cache_map
        #: Whether the context limits hits to an effective view.
        self.has_view = True
        if eff_map is not None:
            self.eff = _column((eff_map.get(j.job_id, 0.0) for j in jobs), n)
        elif ctx.effective_cache_mb is None:
            self.eff = self.d.copy()
            self.has_view = False
        else:
            self.eff = _column((ctx.effective_cache_mb(j) for j in jobs), n)
        names: List[str] = []
        index: Dict[str, int] = {}
        ds_index: List[int] = []
        ds_sizes: List[float] = []
        for job in jobs:
            name = job.dataset.name
            k = index.get(name)
            if k is None:
                k = index[name] = len(names)
                names.append(name)
                ds_sizes.append(job.dataset.size_mb)
            ds_index.append(k)
        self.ds_index = np.array(ds_index, dtype=np.intp)
        self.ds_names = names
        self.ds_size = np.array(ds_sizes, dtype=float)
        # Capacity limits of every feasibility probe this round.
        self.gpu_limit = total.gpus * (1.0 + _EPS)
        self.io_limit = total.remote_io_mbps * (1.0 + _EPS)
        # The greedy plan depends on the targets only through the order
        # of the datasets' savings; a bisection's probes mostly share an
        # order, so each order's miss ratios are kept for the round.
        self._miss_by_order: Dict[Tuple[float, bytes], np.ndarray] = {}

    def prepare_bisection(self, frozen: np.ndarray) -> None:
        """Fix the per-bisection invariants for the frozen set ``frozen``."""
        active = ~frozen
        self.perf_eq_active = self.perf_eq[active]
        self.f_cap_active = self.f_star[active] * (1.0 + _EPS)

    def cache_plan_with_budget(
        self, targets: np.ndarray, budget_mb: float
    ) -> np.ndarray:
        """IO-minimising cache grant per dataset for the given targets.

        Greedy by marginal saving ``sum_{j on D} T_j / d_D``, vectorised
        via argsort + cumulative sums over the dataset sizes.
        ``bincount`` adds each dataset's terms in job order, as a
        sequential accumulation would.
        """
        return self._plan_for_order(self._greedy_order(targets), budget_mb)

    def _greedy_order(self, targets: np.ndarray) -> np.ndarray:
        """Datasets by descending marginal saving (stable on ties)."""
        saving = np.bincount(
            self.ds_index,
            weights=targets / self.d,
            minlength=len(self.ds_size),
        )
        return np.argsort(-saving, kind="stable")

    def _plan_for_order(
        self, order: np.ndarray, budget_mb: float
    ) -> np.ndarray:
        sizes = self.ds_size[order]
        before = np.concatenate(([0.0], np.cumsum(sizes)[:-1]))
        grants_sorted = np.clip(budget_mb - before, 0.0, sizes)
        grants = np.empty_like(grants_sorted)
        grants[order] = grants_sorted
        return grants

    def miss_ratios(self, cache_grants: np.ndarray) -> np.ndarray:
        """Per-job instantaneous miss ratios under a cache plan.

        Hits are limited to the *effective* slice of the plan:
        ``min(grant, effective) / d``.
        """
        hits = np.minimum(cache_grants[self.ds_index], self.eff)
        return 1.0 - np.minimum(1.0, hits / self.d)

    def planned_remote_io(self, targets: np.ndarray, budget_mb: float) -> float:
        """Total remote IO demand at the targets under the greedy plan."""
        order = self._greedy_order(targets)
        key = (budget_mb, order.tobytes())
        miss = self._miss_by_order.get(key)
        if miss is None:
            miss = self.miss_ratios(self._plan_for_order(order, budget_mb))
            self._miss_by_order[key] = miss
        return float((targets * miss).sum())


class GavelPolicy(SchedulingPolicy):
    """Max-min fairness over (GPU share, cache, remote IO)."""

    name = "gavel"

    def schedule(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> Allocation:
        allocation = Allocation()
        if not jobs:
            return allocation
        if ctx.storage_aware:
            perf_eq = self._normalisers(jobs, total, ctx)
            self._schedule_joint(jobs, total, ctx, perf_eq, allocation)
        else:
            self._schedule_compute_only(
                jobs, total, self._gpu_shares(jobs, total), allocation, ctx
            )
        return allocation

    def _normalisers(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
    ) -> np.ndarray:
        """Per-job normalisation of the max-min objective (``perf_eq``).

        Gavel's default normalises by the equal-division performance
        (Eq 8), scaled by the job's fair-share weight (a weight-2 job is
        entitled to twice the equal share), floored at ``1e-12``.
        Subclasses substitute other normalisers to express other Gavel
        objectives (e.g. finish-time fairness normalises by the job's
        exclusive-run performance). Returns one float64 array in job
        order; with the default estimator it is computed over columns,
        bit-identical to ``equal_share(...).perf_mbps * job.weight``.
        """
        n = len(jobs)
        if not has_default_estimator(ctx.estimator):
            return np.array(
                [
                    max(
                        equal_share(
                            job, n, total, ctx.estimator, ctx.storage_aware
                        ).perf_mbps
                        * job.weight,
                        1e-12,
                    )
                    for job in jobs
                ],
                dtype=float,
            )
        perf = slice_perf_columns(
            jobs,
            total.gpus / n,
            total.cache_mb / n,
            total.remote_io_mbps / n,
            ctx.storage_aware,
        )
        weight = _column((j.weight for j in jobs), n)
        return np.maximum(perf * weight, 1e-12)

    def _gpu_shares(
        self, jobs: Sequence[Job], total: ResourceVector
    ) -> Dict[str, float]:
        """Each job's GPU slice of the normalising division.

        Vanilla Gavel fills GPU shares in proportion to it: the equal
        division capped at the job's request, as in :func:`equal_share`.
        """
        n = len(jobs)
        return {job.job_id: min(job.num_gpus, total.gpus / n) for job in jobs}

    # ------------------------------------------------------------------
    # Vanilla Gavel: GPUs only.
    # ------------------------------------------------------------------

    def _schedule_compute_only(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        shares: Dict[str, float],
        allocation: Allocation,
        ctx: ScheduleContext,
    ) -> None:
        """Progressive filling of GPU shares; ratio is x_j / x_eq_j."""
        active = list(jobs)
        grants: Dict[str, float] = {job.job_id: 0.0 for job in jobs}
        free_gpus = total.gpus
        while active and free_gpus > 1e-9:
            denom = sum(shares[j.job_id] for j in active)
            if denom <= 0:
                break
            headroom = min(
                (j.num_gpus - grants[j.job_id]) / shares[j.job_id]
                for j in active
            )
            step = min(headroom, free_gpus / denom)
            for job in active:
                grants[job.job_id] += step * shares[job.job_id]
            free_gpus -= step * denom
            saturated = [
                j for j in active if grants[j.job_id] >= j.num_gpus - 1e-9
            ]
            if not saturated:
                break
            active = [j for j in active if j not in saturated]
        for job_id, gpus in grants.items():
            allocation.grant_gpus(job_id, gpus)
            ctx.job_scores[job_id] = gpus

    # ------------------------------------------------------------------
    # SiloD-Gavel: joint GPU + cache + IO max-min (Eq 9).
    # ------------------------------------------------------------------

    def _schedule_joint(
        self,
        jobs: Sequence[Job],
        total: ResourceVector,
        ctx: ScheduleContext,
        perf_eq: np.ndarray,
        allocation: Allocation,
    ) -> None:
        arrays = _JointArrays(jobs, perf_eq, total, ctx)
        n = len(arrays.jobs)
        frozen = np.zeros(n, dtype=bool)
        targets = np.zeros(n)

        while not frozen.all():
            active = ~frozen
            ratio = self._bisect_ratio(arrays, frozen, targets, total)
            proposed = ratio * arrays.perf_eq
            capped = active & (
                proposed >= arrays.f_star * (1.0 - 1e-6)
            )
            if capped.any():
                targets[capped] = arrays.f_star[capped]
                frozen |= capped
                continue
            targets[active] = proposed[active]
            frozen[:] = True

        for job, target in zip(arrays.jobs, targets.tolist()):
            ctx.job_scores[job.job_id] = target

        cache_grants = arrays.cache_plan_with_budget(targets, total.cache_mb)
        for name, grant in zip(arrays.ds_names, cache_grants.tolist()):
            if grant > 0:
                allocation.grant_cache(name, grant)
        io_grants = targets * arrays.miss_ratios(cache_grants)
        used_io = float(np.sum(io_grants))
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(
                arrays.f_star > 0,
                np.minimum(1.0, targets / arrays.f_star),
                0.0,
            )
        gpu_grants = fractions * arrays.gpus
        for job, gpus, io in zip(
            arrays.jobs, gpu_grants.tolist(), io_grants.tolist()
        ):
            allocation.grant_gpus(job.job_id, gpus)
            allocation.grant_remote_io(job.job_id, io)
        self._distribute_slack(
            arrays,
            total,
            allocation,
            ctx,
            used_io,
            cache_grants[arrays.ds_index],
            gpu_grants,
            io_grants,
        )

    def _feasible(
        self,
        ratio: float,
        arrays: _JointArrays,
        frozen: np.ndarray,
        frozen_targets: np.ndarray,
        total: ResourceVector,
    ) -> bool:
        """Whether active jobs can all reach ``ratio`` x equal share.

        Reads the invariants :meth:`_JointArrays.prepare_bisection` fixed
        for ``frozen``; the capacity limits derive from ``total``, the
        round's totals the frame was built with.
        """
        if (ratio * arrays.perf_eq_active > arrays.f_cap_active).any():
            return False
        targets = np.where(
            frozen, frozen_targets, ratio * arrays.perf_eq
        )
        gpu_needed = float((targets / arrays.f_star * arrays.gpus).sum())
        if gpu_needed > arrays.gpu_limit:
            return False
        return (
            arrays.planned_remote_io(targets, total.cache_mb)
            <= arrays.io_limit
        )

    def _bisect_ratio(
        self,
        arrays: _JointArrays,
        frozen: np.ndarray,
        frozen_targets: np.ndarray,
        total: ResourceVector,
    ) -> float:
        """Largest common ratio every active job can reach."""
        arrays.prepare_bisection(frozen)
        hi = float(np.min(arrays.f_star[~frozen] / arrays.perf_eq_active))
        if self._feasible(hi, arrays, frozen, frozen_targets, total):
            return hi
        lo = 0.0
        for _ in range(_ITERS):
            mid = (lo + hi) / 2.0
            if self._feasible(mid, arrays, frozen, frozen_targets, total):
                lo = mid
            else:
                hi = mid
        return lo

    def _distribute_slack(
        self,
        arrays: _JointArrays,
        total: ResourceVector,
        allocation: Allocation,
        ctx: ScheduleContext,
        used_io: float,
        cache_mb: np.ndarray,
        gpu_grants: np.ndarray,
        io_grants: np.ndarray,
    ) -> None:
        """Hand leftover GPUs/IO to jobs in ascending-throughput order.

        After the max-min targets are met, GPU or IO slack can remain (e.g.
        when cache fully covers a dataset). Filling it raises utilisation
        without lowering anyone's ratio. Extra GPUs go only as far as a
        job's storage can feed them — over-feeding IO-bound jobs is the
        GPU-underutilisation failure the paper pins on vanilla Gavel.

        ``cache_mb``, ``gpu_grants`` and ``io_grants`` are the per-job
        columns of the allocation just granted (cache of the job's
        dataset, GPUs, remote IO).
        """
        free_gpus = total.gpus - sum(allocation.gpus.values())
        free_io = total.remote_io_mbps - used_io
        if free_gpus <= 1e-9 and free_io <= 1e-9:
            return
        jobs = arrays.jobs
        estimator = ctx.estimator
        if has_default_estimator(estimator):
            throughput = silod_perf_columns(
                _column((j.ideal_throughput_mbps for j in jobs), len(jobs)),
                arrays.gpus,
                arrays.d,
                arrays.regular,
                gpu_grants,
                cache_mb,
                io_grants,
            )
        else:
            throughput = np.array(
                [
                    estimator.estimate(j, g, c, b)
                    for j, g, c, b in zip(
                        jobs,
                        gpu_grants.tolist(),
                        cache_mb.tolist(),
                        io_grants.tolist(),
                    )
                ],
                dtype=float,
            )
        # What a job can hit (``ScheduleContext.effective_hits_mb``) and
        # its remote-IO demand at f* (``perf_model.remote_io_demand``) do
        # not change while slack is handed out.
        hits = np.minimum(cache_mb, arrays.eff) if arrays.has_view else cache_mb
        miss = 1.0 - np.minimum(1.0, hits / arrays.d)
        demand = (arrays.f_star * miss).tolist()
        io_bound = (miss > _MISS_EPS).tolist()
        miss = miss.tolist()
        f_star = arrays.f_star.tolist()
        requested = arrays.gpus.tolist()
        gpus_now = gpu_grants.tolist()
        io_now = io_grants.tolist()
        for i in np.argsort(throughput, kind="stable").tolist():
            job_id = jobs[i].job_id
            # Extra IO first: it raises what the job can load.
            io = io_now[i]
            extra_io = min(free_io, max(0.0, demand[i] - io))
            if extra_io > 1e-9:
                io += extra_io
                allocation.grant_remote_io(job_id, io)
                free_io -= extra_io
            # Then GPUs, but only as far as storage can feed them
            # (``perf_model.silod_perf``: f* capped by Eq 3).
            f_star_full = f_star[i]
            achievable = (
                min(f_star_full, io / miss[i]) if io_bound[i] else f_star_full
            )
            fraction = (
                min(1.0, achievable / f_star_full) if f_star_full > 0 else 0.0
            )
            extra_gpus = min(
                free_gpus,
                max(0.0, fraction * requested[i] - gpus_now[i]),
            )
            if extra_gpus > 1e-9:
                allocation.grant_gpus(job_id, gpus_now[i] + extra_gpus)
                free_gpus -= extra_gpus
            if free_gpus <= 1e-9 and free_io <= 1e-9:
                break


def fairness_ratio(
    jobs: Sequence[Job],
    throughputs: Dict[str, float],
    total: ResourceVector,
    estimator: SiloDPerfEstimator,
    storage_aware: bool = True,
    num_jobs: int = None,
) -> float:
    """Eq 8's objective value: ``min_j perf_j / perf_j(R_equal)``.

    Used by the simulators to report Figure 13's fairness-ratio timeline
    for any scheduler/cache combination: each job's achieved throughput is
    compared with what it would get under an equal division of all
    resources (with uniform caching — the reference is system-independent).

    The simulators evaluate the min over jobs past their first epoch (the
    delayed-effectiveness warmup is a bounded transient every system pays
    identically; §6 measures >91% of cached data effective) while still
    dividing ``R_equal`` by the full running-job count — pass that count
    as ``num_jobs``.
    """
    if not jobs:
        return float("nan")
    n = num_jobs if num_jobs is not None else len(jobs)
    ratios = []
    for job in jobs:
        share = equal_share(job, n, total, estimator, storage_aware)
        if share.perf_mbps <= 0:
            continue
        ratios.append(throughputs.get(job.job_id, 0.0) / share.perf_mbps)
    return min(ratios) if ratios else float("nan")
