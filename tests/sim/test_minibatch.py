"""Minibatch testbed emulator semantics."""

import pytest

from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system

GB = 1024.0


def small_cluster(cache_gb=60.0, io_mbps=40.0, gpus=4):
    return Cluster.build(1, gpus, cache_gb * GB, io_mbps)


def simple_job(job_id, d_gb=50.0, f_star=100.0, epochs=3.0, submit=0.0, gpus=1):
    return Job(
        job_id=job_id,
        model="test",
        dataset=Dataset(f"d-{job_id}", d_gb * GB),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=epochs * d_gb * GB,
        submit_time_s=submit,
    )


def run(jobs, cluster=None, policy="fifo", cache="silod", **kwargs):
    scheduler, cache_system = make_system(policy, cache)
    emulator = MinibatchEmulator(
        cluster or small_cluster(),
        scheduler,
        cache_system,
        jobs,
        item_size_mb=256.0,
        **kwargs,
    )
    return emulator.run()


def test_compute_bound_job_matches_ideal_duration():
    job = simple_job("a", d_gb=20.0, f_star=50.0, epochs=2.0)
    cluster = small_cluster(io_mbps=200.0)
    result = run([job], cluster=cluster)
    assert result.records[0].finish_time_s == pytest.approx(
        job.ideal_duration_s, rel=0.05
    )


def test_io_bound_then_cached_epochs():
    job = simple_job("a", d_gb=50.0, f_star=100.0, epochs=3.0)
    cluster = small_cluster(cache_gb=60.0, io_mbps=40.0)
    result = run([job], cluster=cluster)
    d = 50.0 * GB
    expected = d / 40.0 + 2 * d / 100.0
    assert result.records[0].finish_time_s == pytest.approx(expected, rel=0.06)


def test_lru_pool_thrashes_versus_uniform():
    """Same job, cache smaller than the dataset: Alluxio's LRU pool takes
    visibly longer than SiloD's uniform caching (the §7.1.1 thrashing)."""
    cluster = small_cluster(cache_gb=30.0, io_mbps=40.0)

    def fresh_job():
        return simple_job("a", d_gb=50.0, f_star=100.0, epochs=6.0)

    silod = run([fresh_job()], cluster=cluster, cache="silod")
    alluxio = run([fresh_job()], cluster=cluster, cache="alluxio")
    assert (
        alluxio.records[0].finish_time_s
        > silod.records[0].finish_time_s * 1.05
    )


def test_arrival_and_queueing():
    jobs = [
        simple_job("a", gpus=4, d_gb=10.0, epochs=1.0),
        simple_job("b", gpus=4, d_gb=10.0, epochs=1.0, submit=5.0),
    ]
    result = run(jobs, cluster=small_cluster(gpus=4, io_mbps=500.0))
    by_id = {r.job_id: r for r in result.records}
    assert by_id["b"].start_time_s >= by_id["a"].finish_time_s - 120.0


def test_max_time_cuts_off():
    job = simple_job("slow", d_gb=100.0, f_star=10.0, epochs=10.0)
    result = run([job], max_time_s=2000.0)
    assert result.records[0].finish_time_s is None


def test_timeline_reports_throughput():
    job = simple_job("a", d_gb=20.0, f_star=50.0, epochs=2.0)
    result = run([job], cluster=small_cluster(io_mbps=200.0))
    busy = [s for s in result.timeline if s.total_throughput_mbps > 0]
    assert busy
    for s in busy:
        assert s.total_throughput_mbps <= 60.0  # ~f* plus sampling noise
