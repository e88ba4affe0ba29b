"""The repository benchmark's wrap targets stay reachable.

``perfbench`` measures the program by wrapping named methods and module
functions (``perfbench.spans.TARGETS``): each simulator's own ``step``
and the ``emit_decision_provenance`` binding in ``repro.sim.fluid`` and
``repro.sim.minibatch``. A refactor that moves one of them out of reach
makes a traced benchmark run fail or silently lose a layer; these tests
fail first, in the tier-1 suite.
"""

import pytest

from perfbench.spans import Instrumentation, SpanRecorder
from repro import units
from repro.cluster.dataset import Dataset
from repro.cluster.hardware import Cluster
from repro.obs.tracer import Tracer
from repro.sim.fluid import FluidSimulator
from repro.sim.minibatch import MinibatchEmulator
from repro.sim.runner import make_system
from repro.workloads.models import make_job


@pytest.fixture
def instrumentation():
    inst = Instrumentation(SpanRecorder())
    inst.install()
    try:
        yield inst
    finally:
        inst.uninstall()


def test_every_wrap_target_exists(instrumentation):
    assert instrumentation.missing == []


def test_step_is_defined_on_each_simulator_class():
    assert "step" in FluidSimulator.__dict__
    assert "step" in MinibatchEmulator.__dict__


@pytest.mark.parametrize(
    "simulator", [FluidSimulator, MinibatchEmulator], ids=["fluid", "minibatch"]
)
def test_traced_run_records_step_and_provenance_spans(
    instrumentation, simulator
):
    dataset = Dataset(name="d-wrap", size_mb=units.gb(4))
    jobs = [
        make_job(
            f"job-{i}", "resnet50", dataset, num_gpus=1, num_epochs=1,
            submit_time_s=60.0 * i,
        )
        for i in range(2)
    ]
    scheduler, cache = make_system("fifo", "silod")
    cluster = Cluster.build(
        num_servers=1,
        gpus_per_server=4,
        cache_per_server_mb=units.gb(25),
        remote_io_mbps=units.gbps(1.6),
    )
    simulator(cluster, scheduler, cache, jobs, tracer=Tracer()).run()
    names = {span[0] for span in instrumentation.recorder.spans}
    assert {"sim.step", "obs.provenance", "core.schedule"} <= names
