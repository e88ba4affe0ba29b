"""SJF's per-policy score cache: each job is scored once, never stale.

``SjfPolicy`` reuses a job's Eq 6/7 score across rounds while the same
``Job`` object, an equal cluster total, the same ``storage_aware`` flag
and the same estimator object hold. These tests pin each invalidation
key, the bound on what the cache holds, and that a cached policy orders
and allocates exactly like a fresh one on every round.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import HetSiloDPerfEstimator, SiloDPerfEstimator
from repro.core.perf_model import default_speedup_table
from repro.core.policies import sjf
from repro.core.policies.base import ScheduleContext
from repro.core.policies.sjf import SjfPolicy, sjf_score
from repro.core.resources import ResourceVector
from repro.core.silod import SiloDScheduler

TB = 1024.0 * 1024.0
TOTAL = ResourceVector(gpus=8, cache_mb=2 * TB, remote_io_mbps=200.0)


def job(job_id, f_star=114.0, d_mb=1.3 * TB, work_epochs=2.0, gpus=1):
    return Job(
        job_id=job_id,
        model="m",
        dataset=Dataset(f"d-{job_id}", d_mb),
        num_gpus=gpus,
        ideal_throughput_mbps=f_star,
        total_work_mb=work_epochs * d_mb,
    )


def cached_ids(policy, storage_aware=True):
    """Job ids the policy's cache slot for ``storage_aware`` holds."""
    return set(policy._slots[storage_aware][2])


@pytest.fixture
def scored(monkeypatch):
    """Job ids passed to ``sjf_score``, in call order."""
    calls = []
    original = sjf.sjf_score

    def counting(job, total, estimator, storage_aware):
        calls.append(job.job_id)
        return original(job, total, estimator, storage_aware)

    monkeypatch.setattr(sjf, "sjf_score", counting)
    return calls


def test_each_job_is_scored_once_across_rounds(scored):
    policy = SjfPolicy()
    estimator = SiloDPerfEstimator()
    jobs = [job("a"), job("b", work_epochs=5.0), job("c", gpus=4)]
    for _ in range(3):
        ctx = ScheduleContext(estimator=estimator)
        policy.schedule(jobs, TOTAL, ctx)
        # Provenance still sees every job's score on every round.
        assert ctx.job_scores == {
            j.job_id: sjf_score(j, TOTAL, estimator, True) for j in jobs
        }
    assert sorted(scored) == ["a", "b", "c"]


def test_rescores_when_the_total_shrinks(scored):
    """(a) A fault shrinks the cluster: every cached score is stale."""
    policy = SjfPolicy()
    estimator = SiloDPerfEstimator()
    jobs = [job("a"), job("b", work_epochs=5.0)]
    policy.schedule(jobs, TOTAL, ScheduleContext(estimator=estimator))
    shrunk = dataclasses.replace(TOTAL, gpus=4, remote_io_mbps=100.0)
    ctx = ScheduleContext(estimator=estimator)
    policy.schedule(jobs, shrunk, ctx)
    assert scored == ["a", "b", "a", "b"]
    assert ctx.job_scores["a"] == sjf_score(jobs[0], shrunk, estimator, True)
    assert ctx.job_scores["a"] != sjf_score(jobs[0], TOTAL, estimator, True)
    # An equal (not identical) total keeps the scores.
    policy.schedule(
        jobs,
        dataclasses.replace(shrunk),
        ScheduleContext(estimator=estimator),
    )
    assert len(scored) == 4


def test_rescores_a_new_job_object_under_an_old_id(scored):
    """(b) Cancel then resubmit: same job_id, different ``Job``."""
    policy = SjfPolicy()
    estimator = SiloDPerfEstimator()
    first = job("a", work_epochs=1.0)
    policy.schedule([first], TOTAL, ScheduleContext(estimator=estimator))
    again = dataclasses.replace(first, total_work_mb=first.total_work_mb * 9)
    ctx = ScheduleContext(estimator=estimator)
    policy.schedule([again], TOTAL, ctx)
    assert scored == ["a", "a"]
    assert ctx.job_scores["a"] == sjf_score(again, TOTAL, estimator, True)


def test_rescores_on_a_new_estimator_or_storage_flag(scored):
    policy = SjfPolicy()
    jobs = [job("a")]
    first = SiloDPerfEstimator()
    policy.schedule(jobs, TOTAL, ScheduleContext(estimator=first))
    policy.schedule(jobs, TOTAL, ScheduleContext(estimator=first))
    assert scored == ["a"]
    policy.schedule(jobs, TOTAL, ScheduleContext(estimator=SiloDPerfEstimator()))
    assert scored == ["a", "a"]
    ctx = ScheduleContext(estimator=first, storage_aware=False)
    policy.schedule(jobs, TOTAL, ctx)
    assert scored == ["a", "a", "a"]
    assert ctx.job_scores["a"] == sjf_score(jobs[0], TOTAL, first, False)


def test_het_estimator_always_rescores(scored):
    """Generation assignments are mutable, so nothing is cached."""
    policy = SjfPolicy()
    estimator = HetSiloDPerfEstimator(speedups=default_speedup_table())
    jobs = [job("a"), job("b")]
    for _ in range(3):
        policy.schedule(jobs, TOTAL, ScheduleContext(estimator=estimator))
    assert scored == ["a", "b"] * 3


def test_cache_holds_only_the_current_round(scored):
    """(c) Departed jobs are dropped, not kept for later rounds."""
    policy = SjfPolicy()
    estimator = SiloDPerfEstimator()
    jobs = [job("a"), job("b"), job("c")]
    policy.schedule(jobs, TOTAL, ScheduleContext(estimator=estimator))
    policy.schedule(jobs[1:2], TOTAL, ScheduleContext(estimator=estimator))
    assert cached_ids(policy) == {"b"}
    # "a" comes back: it was dropped, so it is scored again.
    policy.schedule(jobs[:2], TOTAL, ScheduleContext(estimator=estimator))
    assert scored == ["a", "b", "c", "a"]
    assert cached_ids(policy) == {"a", "b"}


def test_partitioned_rounds_hit_one_slot_per_storage_flag(scored):
    """Regular and irregular pools are scored once, not every round.

    With irregular jobs a SiloD round calls the policy twice: the
    regular pool storage-aware, the irregular pool without storage.
    Each flag keeps its own cache slot, so a second round with the same
    membership makes no ``sjf_score`` call at all.
    """
    scheduler = SiloDScheduler(SjfPolicy())
    jobs = [
        dataclasses.replace(
            job(f"j{i}", work_epochs=1.0 + i), regular=(i % 4 != 3)
        )
        for i in range(8)
    ]
    first = scheduler.schedule(jobs, TOTAL)
    assert sorted(scored) == sorted(j.job_id for j in jobs)
    del scored[:]
    second = scheduler.schedule(jobs, TOTAL)
    assert scored == []
    assert set(scheduler.policy._slots) == {True, False}
    assert (second.gpus, second.cache, second.remote_io) == (
        first.gpus, first.cache, first.remote_io,
    )
    fresh = SiloDScheduler(SjfPolicy())
    assert fresh.schedule(jobs, TOTAL).gpus == second.gpus
    assert fresh.last_scores == scheduler.last_scores


def test_order_reuses_the_cached_scores(scored):
    policy = SjfPolicy()
    estimator = SiloDPerfEstimator()
    jobs = [job("long", work_epochs=9.0), job("short", work_epochs=1.0)]
    ctx = ScheduleContext(estimator=estimator)
    policy.schedule(jobs, TOTAL, ctx)
    ordered = policy.order(jobs, TOTAL, ScheduleContext(estimator=estimator))
    assert [j.job_id for j in ordered] == ["short", "long"]
    assert len(scored) == 2


@settings(max_examples=30, deadline=None)
@given(
    rounds=st.lists(
        st.tuples(
            st.lists(st.integers(0, 9), min_size=1, max_size=8, unique=True),
            st.sampled_from([8, 6, 3]),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_cached_policy_matches_a_fresh_one_every_round(rounds):
    pool = [
        job(
            f"j{i}",
            f_star=40.0 + 17.0 * i,
            d_mb=(0.2 + 0.3 * (i % 4)) * TB,
            work_epochs=1.0 + (i * 7 % 5),
            gpus=1 + i % 3,
        )
        for i in range(10)
    ]
    cached = SjfPolicy()
    estimator = SiloDPerfEstimator()
    for members, gpus, storage_aware in rounds:
        jobs = [pool[i] for i in members]
        total = dataclasses.replace(TOTAL, gpus=gpus)
        ctx_a = ScheduleContext(estimator=estimator, storage_aware=storage_aware)
        ctx_b = ScheduleContext(estimator=estimator, storage_aware=storage_aware)
        a = cached.schedule(jobs, total, ctx_a)
        b = SjfPolicy().schedule(jobs, total, ctx_b)
        assert (a.gpus, a.cache, a.remote_io) == (b.gpus, b.cache, b.remote_io)
        assert ctx_a.job_scores == ctx_b.job_scores
        assert cached_ids(cached, storage_aware) == set(ctx_a.job_scores)
