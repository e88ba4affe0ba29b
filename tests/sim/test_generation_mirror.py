"""The fluid simulator's generation mirror writes a row only on change.

Every scheduling round, ``FluidSimulator._allocation_changed`` copies
each active job's GPU generation into the job table's gen column, which
``generation_of`` reads back. A row is written only when its stored
generation differs, so on a homogeneous fleet each admitted row is
written once; on a mixed fleet the column still follows every
reassignment.
"""

import pytest

from repro import units
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.perf.backend import BACKEND_FALLBACK, BACKEND_VECTORIZED, using_backend
from repro.sim.fluid import FluidSimulator
from repro.sim.jobtable import JobTable
from repro.sim.runner import make_system
from repro.workloads.models import make_job

BACKENDS = (BACKEND_VECTORIZED, BACKEND_FALLBACK)


def jobs(count=6):
    return [
        make_job(
            f"job-{i}",
            "resnet50",
            Dataset(name=f"d-{i % 2}", size_mb=units.gb(8 + 4 * (i % 2))),
            num_gpus=1 + (i % 3),
            num_epochs=2,
            submit_time_s=120.0 * i,
        )
        for i in range(count)
    ]


def homogeneous():
    return Cluster.build(
        num_servers=3,
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )


def mixed():
    return Cluster.build_mixed(
        [("V100", 2), ("A100", 1)],
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )


@pytest.fixture
def writes(monkeypatch):
    """``(row, generation)`` pairs passed to ``JobTable.set_generation``."""
    calls = []
    original = JobTable.set_generation

    def counting(self, row, name):
        calls.append((row, name))
        return original(self, row, name)

    monkeypatch.setattr(JobTable, "set_generation", counting)
    return calls


def stepped(cluster, policy, trace):
    """Run to completion, checking the mirror after every step."""
    scheduler, cache = make_system(policy, "silod")
    sim = FluidSimulator(
        cluster, scheduler, cache, trace, reschedule_interval_s=600.0
    )
    sim.begin()
    while sim.step():
        # Every job the last round placed reads back that placement.
        for job_id, generation in scheduler.last_generations.items():
            assert sim.generation_of(job_id) == generation
    return sim, sim.finish()


@pytest.mark.parametrize("backend", BACKENDS)
def test_homogeneous_fleet_writes_each_row_once(backend, writes):
    trace = jobs()
    with using_backend(backend):
        sim, result = stepped(homogeneous(), "fifo", trace)
    assert len(result.finished_records()) == len(trace)
    rows = [row for row, _name in writes]
    assert len(rows) == len(set(rows)) == len(trace)
    assert {name for _row, name in writes} == {"V100"}
    for job in trace:
        assert sim.generation_of(job.job_id) == "V100"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy", ["het-max-min", "het-max-throughput"])
def test_mixed_fleet_mirror_follows_reassignment(backend, policy, writes):
    trace = jobs()
    with using_backend(backend):
        sim, result = stepped(mixed(), policy, trace)
    assert len(result.finished_records()) == len(trace)
    # Every write changed the row's stored generation.
    last = {}
    for row, name in writes:
        assert last.get(row) != name
        last[row] = name
    if policy == "het-max-throughput":
        # This trace moves job-2 from the V100 to the A100 pool mid-run.
        assert len(writes) > len(trace)
    for job in trace:
        assert sim.generation_of(job.job_id) in ("V100", "A100")


@pytest.mark.parametrize("backend", BACKENDS)
def test_readmitted_id_starts_unassigned(backend):
    """A row admitted for a returning job id never inherits a code."""
    with using_backend(backend):
        table = JobTable(
            capacity=1, rate_eps=1e-9, work_eps_mb=1e-9, snap_mb=1e-3
        )
        row = table.admit("a", total_work_mb=10.0, epoch_mb=5.0)
        table.set_generation(row, "A100")
        table.retire(row)
        again = table.admit("a", total_work_mb=10.0, epoch_mb=5.0)
    assert again != row
    assert table.row_of("a") == again
    assert table.generation(again) is None
    assert table.generation(row) == "A100"
