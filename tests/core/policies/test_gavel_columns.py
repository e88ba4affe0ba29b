"""Gavel's columnar round: the vectorised paths equal the scalar ones bit for bit.

With the default estimator, Gavel computes its normalisers, cache plan
and slack order over column arrays of the job set. Every one of them
must reproduce the scalar definitions exactly (``float.hex``), not
merely closely: the simulators' result anchors depend on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dataset import Dataset
from repro.cluster.job import Job
from repro.core.estimator import SiloDPerfEstimator, linear_compute_estimator
from repro.core.policies.base import ScheduleContext
from repro.core.policies.gavel import GavelPolicy, _JointArrays, equal_share
from repro.core.policies.het import (
    HetMaxThroughputPolicy,
    _greedy_cache_plan,
)
from repro.core.policies.objectives import FinishTimeFairnessPolicy
from repro.core.resources import ResourceVector

GB = 1024.0

#: (f*, dataset index, gpus, weight, regular) per job.
job_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=800.0),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=5.0)),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)
#: Dataset sizes in GB, indexed by the job spec's dataset index.
dataset_sizes = st.lists(
    st.floats(min_value=0.5, max_value=400.0), min_size=5, max_size=5
)
totals = st.tuples(
    st.integers(min_value=1, max_value=64),
    # Zero cache, partial cache, and enough to hold every dataset in
    # full (miss ratio 0 -> Eq 3's infinite loading rate).
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=800.0),
        st.just(1e9),
    ),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2_000.0)),
)


def build_jobs(specs, sizes_gb):
    return [
        Job(
            job_id=f"g{i}",
            model="m",
            dataset=Dataset(f"d-{k}", sizes_gb[k] * GB),
            num_gpus=gpus,
            ideal_throughput_mbps=f_star,
            total_work_mb=2 * sizes_gb[k] * GB,
            weight=weight,
            regular=regular,
        )
        for i, (f_star, k, gpus, weight, regular) in enumerate(specs)
    ]


def build_total(gpus, cache_gb, io_mbps):
    return ResourceVector(
        gpus=gpus, cache_mb=cache_gb * GB, remote_io_mbps=io_mbps
    )


def scalar_estimator():
    """The default estimator's numbers behind a non-default object.

    Policies take their scalar, job-by-job paths for it, so comparing
    it with :class:`SiloDPerfEstimator` compares the two paths.
    """
    return SiloDPerfEstimator(
        compute_estimator=lambda job, gpus: linear_compute_estimator(
            job, gpus
        )
    )


def hexes(values):
    return [float(v).hex() for v in values]


def allocation_hexes(allocation):
    return tuple(
        sorted((key, value.hex()) for key, value in grants.items())
        for grants in (allocation.gpus, allocation.cache, allocation.remote_io)
    )


@settings(max_examples=200, deadline=None)
@given(specs=job_specs, sizes=dataset_sizes, total=totals,
       storage_aware=st.booleans())
def test_vectorised_perf_eq_equals_equal_share(specs, sizes, total,
                                               storage_aware):
    """(d) ``perf_eq`` is ``equal_share(...).perf_mbps * weight`` exactly."""
    jobs = build_jobs(specs, sizes)
    total = build_total(*total)
    estimator = SiloDPerfEstimator()
    ctx = ScheduleContext(estimator=estimator, storage_aware=storage_aware)
    perf_eq = GavelPolicy()._normalisers(jobs, total, ctx)
    expected = [
        max(
            equal_share(job, len(jobs), total, estimator, storage_aware)
            .perf_mbps
            * job.weight,
            1e-12,
        )
        for job in jobs
    ]
    assert perf_eq.dtype == float
    assert hexes(perf_eq) == hexes(expected)


@settings(max_examples=100, deadline=None)
@given(specs=job_specs, sizes=dataset_sizes, total=totals,
       storage_aware=st.booleans())
def test_normaliser_overrides_match_their_scalar_paths(specs, sizes, total,
                                                       storage_aware):
    jobs = build_jobs(specs, sizes)
    total = build_total(*total)
    for policy in (
        GavelPolicy(),
        FinishTimeFairnessPolicy(),
        HetMaxThroughputPolicy(),
    ):
        fast = policy._normalisers(
            jobs,
            total,
            ScheduleContext(
                estimator=SiloDPerfEstimator(), storage_aware=storage_aware
            ),
        )
        slow = policy._normalisers(
            jobs,
            total,
            ScheduleContext(
                estimator=scalar_estimator(), storage_aware=storage_aware
            ),
        )
        assert hexes(fast) == hexes(slow), policy.name


@settings(max_examples=60, deadline=None)
@given(specs=job_specs, sizes=dataset_sizes, total=totals,
       effective=st.lists(st.floats(min_value=0.0, max_value=500.0),
                          min_size=12, max_size=12),
       use_map=st.booleans())
def test_joint_schedule_matches_the_scalar_path(specs, sizes, total,
                                                effective, use_map):
    """Normalisers, bisection and slack: the whole round, both paths."""
    jobs = build_jobs(specs, sizes)
    total = build_total(*total)
    eff = {job.job_id: mb * GB for job, mb in zip(jobs, effective)}

    def context(estimator):
        if use_map:
            return ScheduleContext(
                estimator=estimator,
                effective_cache_mb=lambda job: eff.get(job.job_id, 0.0),
                effective_cache_map=eff,
            )
        return ScheduleContext(estimator=estimator)

    for policy_cls in (GavelPolicy, FinishTimeFairnessPolicy):
        ctx_fast = context(SiloDPerfEstimator())
        ctx_slow = context(scalar_estimator())
        fast = policy_cls().schedule(jobs, total, ctx_fast)
        slow = policy_cls().schedule(jobs, total, ctx_slow)
        assert allocation_hexes(fast) == allocation_hexes(slow)
        assert hexes(ctx_fast.job_scores.values()) == hexes(
            ctx_slow.job_scores.values()
        )


@settings(max_examples=200, deadline=None)
@given(specs=job_specs, sizes=dataset_sizes,
       targets=st.lists(st.floats(min_value=0.0, max_value=1_000.0),
                        min_size=12, max_size=12),
       budget_gb=st.one_of(st.just(0.0),
                           st.floats(min_value=0.0, max_value=1_500.0)))
def test_bincount_cache_plan_equals_the_pure_python_mirror(specs, sizes,
                                                           targets,
                                                           budget_gb):
    """(e) The frame's greedy plan equals het's ``_greedy_cache_plan``."""
    jobs = build_jobs(specs, sizes)
    target_list = targets[: len(jobs)]
    ctx = ScheduleContext(estimator=SiloDPerfEstimator())
    total = build_total(8, budget_gb, 100.0)
    arrays = _JointArrays(
        jobs, GavelPolicy()._normalisers(jobs, total, ctx), total, ctx
    )
    grants = arrays.cache_plan_with_budget(
        np.array(target_list), budget_gb * GB
    )
    mirror = _greedy_cache_plan(
        jobs,
        {job.job_id: t for job, t in zip(jobs, target_list)},
        budget_gb * GB,
    )
    assert {
        name: grant.hex() for name, grant in zip(arrays.ds_names, grants)
    } == {name: grant.hex() for name, grant in mirror.items()}


def test_fully_cached_dataset_is_compute_bound():
    """Miss ratio 0: Eq 3 is infinite, so the normaliser is f* itself."""
    jobs = build_jobs([(120.0, 0, 2, 1.0, True)], [10.0] * 5)
    total = build_total(2, 1e6, 0.0)
    perf_eq = GavelPolicy()._normalisers(
        jobs, total, ScheduleContext(estimator=SiloDPerfEstimator())
    )
    assert perf_eq.tolist() == [120.0]
    share = equal_share(jobs[0], 1, total, SiloDPerfEstimator(), True)
    assert share.perf_mbps == pytest.approx(120.0)


def test_miss_tolerance_matches_the_scalar_model():
    from repro.core import perf_model
    from repro.core.policies import gavel

    assert gavel._MISS_EPS == perf_model._EPS
