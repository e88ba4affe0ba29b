"""Additional Gavel-family objectives (§5.2)."""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import GavelPolicy
from repro.core.policies.objectives import (
    FinishTimeFairnessPolicy,
    MaxTotalThroughputPolicy,
)
from repro.core.resources import ResourceVector

GB = 1024.0
ESTIMATOR = SiloDPerfEstimator()


def job(job_id, f_star, d_gb, gpus=1):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(f"d-{job_id}", d_gb * GB),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=2 * d_gb * GB,
    )


def throughput_under(alloc, j):
    return ESTIMATOR.estimate(
        j,
        alloc.gpus_of(j.job_id),
        alloc.cache_of(j.dataset.name),
        alloc.remote_io_of(j.job_id),
    )


def ctx(storage_aware=True):
    return ScheduleContext(estimator=ESTIMATOR, storage_aware=storage_aware)


class TestMaxTotalThroughput:
    def test_prefers_cache_efficient_jobs_for_io(self):
        # Egress of 50 MB/s. The cached job converts IO at 1:2; the
        # uncached one 1:1 — utilisation wants the cached job fed first.
        total = ResourceVector(gpus=2, cache_mb=50.0 * GB, remote_io_mbps=50.0)
        jobs = [
            job("efficient", f_star=100.0, d_gb=100.0),
            job("bulky", f_star=100.0, d_gb=10_000.0),
        ]
        alloc = MaxTotalThroughputPolicy().schedule(jobs, total, ctx())
        t_eff = throughput_under(alloc, jobs[0])
        t_bulky = throughput_under(alloc, jobs[1])
        assert t_eff > t_bulky
        # The egress budget is respected and fully used.
        assert sum(alloc.remote_io.values()) <= 50.0 + 1e-6

    def test_total_throughput_beats_gavel(self):
        """Utilisation sacrifices fairness for aggregate throughput."""
        total = ResourceVector(gpus=4, cache_mb=50.0 * GB, remote_io_mbps=60.0)
        jobs = [
            job("a", f_star=100.0, d_gb=100.0),
            job("b", f_star=100.0, d_gb=2_000.0),
            job("c", f_star=50.0, d_gb=2_000.0),
        ]
        util = MaxTotalThroughputPolicy().schedule(jobs, total, ctx())
        fair = GavelPolicy().schedule(jobs, total, ctx())
        total_util = sum(throughput_under(util, j) for j in jobs)
        total_fair = sum(throughput_under(fair, j) for j in jobs)
        assert total_util >= total_fair - 1e-6

    def test_vanilla_mode_packs_by_density(self):
        total = ResourceVector(gpus=2, cache_mb=0.0, remote_io_mbps=0.0)
        jobs = [
            job("dense", f_star=200.0, d_gb=100.0, gpus=1),
            job("sparse", f_star=50.0, d_gb=100.0, gpus=2),
        ]
        alloc = MaxTotalThroughputPolicy().schedule(
            jobs, total, ctx(storage_aware=False)
        )
        assert alloc.gpus_of("dense") == 1
        assert alloc.gpus_of("sparse") == 0  # does not fit after dense

    def test_empty(self):
        alloc = MaxTotalThroughputPolicy().schedule(
            [], ResourceVector(gpus=1), ctx()
        )
        assert alloc.gpus == {}


class TestFinishTimeFairness:
    def test_all_jobs_progress(self):
        total = ResourceVector(gpus=2, cache_mb=100.0 * GB, remote_io_mbps=50.0)
        jobs = [
            job("fast-alone", f_star=200.0, d_gb=50.0),
            job("slow-alone", f_star=20.0, d_gb=1_000.0),
        ]
        alloc = FinishTimeFairnessPolicy().schedule(jobs, total, ctx())
        for j in jobs:
            assert throughput_under(alloc, j) > 0

    def test_normaliser_uses_exclusive_performance(self):
        total = ResourceVector(gpus=4, cache_mb=100.0 * GB, remote_io_mbps=50.0)
        jobs = [job("a", f_star=100.0, d_gb=50.0), job("b", f_star=10.0, d_gb=50.0)]
        policy = FinishTimeFairnessPolicy()
        perf_eq = policy._normalisers(jobs, total, ctx())
        # Job a runs at 100 exclusively; its 1/2 slice reference is 50.
        assert perf_eq.tolist() == pytest.approx([50.0, 5.0])

    def test_budget_respected(self):
        total = ResourceVector(gpus=2, cache_mb=20.0 * GB, remote_io_mbps=40.0)
        jobs = [job(f"j{i}", f_star=80.0, d_gb=100.0) for i in range(3)]
        alloc = FinishTimeFairnessPolicy().schedule(jobs, total, ctx())
        used = alloc.total()
        assert used.gpus <= total.gpus + 1e-6
        assert used.cache_mb <= total.cache_mb + 1e-6
        assert used.remote_io_mbps <= total.remote_io_mbps + 1e-6

    def test_favours_jobs_with_high_exclusive_rates(self):
        """Against plain max-min, finish-time fairness shifts throughput
        toward the job that would run fastest alone."""
        total = ResourceVector(gpus=2, cache_mb=0.0, remote_io_mbps=60.0)
        jobs = [
            job("fast-alone", f_star=200.0, d_gb=1_000.0),
            job("slow-alone", f_star=30.0, d_gb=1_000.0),
        ]
        ftf = FinishTimeFairnessPolicy().schedule(jobs, total, ctx())
        maxmin = GavelPolicy().schedule(jobs, total, ctx())
        assert throughput_under(ftf, jobs[0]) >= throughput_under(
            maxmin, jobs[0]
        )
