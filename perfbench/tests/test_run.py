"""How a run combines replays, sizes itself and fails its checks."""

from perfbench import run
from perfbench.workloads import WORKLOADS


def _batch_run(phases, reads, job_steps, anchors=None):
    return {
        "anchors": anchors or {"fifo": {"events": 2}},
        "phases_s": {"fifo": phases},
        "reads_s": {"fifo": reads},
        "job_steps": {"fifo": job_steps},
    }


def test_combine_takes_each_phase_at_its_fastest_replay():
    # Phases: begin, step 0, step 1, the final step, finish.
    steps = [(0, None), (0, 1)]
    first = _batch_run([0.1, 0.004, 0.002, 0.001, 0.2], [0.3, 0.1], steps)
    second = _batch_run([0.3, 0.001, 0.005, 0.001, 0.1], [0.2, 0.2], steps)
    got = run.combine([first, second])
    assert got["wall_s"] == 0.1 + 0.001 + 0.002 + 0.001 + 0.1
    assert got["read_ms"] == [200.0, 100.0]
    # Both jobs were admitted by step 0; the second was placed by step 1.
    assert got["submit_ms"] == [1.0, 1.0]
    assert got["place_ms"] == [2.0]


def test_combine_takes_each_serve_request_at_its_fastest_run():
    first = {"wall_s": 8.1, "submit_ms": [1.0, 3.0], "read_ms": [0.5],
             "place_ms": [2.0, 9.0, 4.0], "anchors": {}}
    second = {"wall_s": 8.0, "submit_ms": [2.0, 1.5], "read_ms": [0.7],
              "place_ms": [1.0, 8.0], "anchors": {}}
    # The third placement happened during the second run's drain.
    assert run.combine([first, second]) == {
        "wall_s": 8.0, "submit_ms": [1.0, 1.5], "place_ms": [1.0, 8.0],
        "read_ms": [0.5],
    }


def test_replays_must_take_the_same_steps():
    a = _batch_run([0.1, 0.1, 0.1], [0.1], [(0, None)])
    b = _batch_run([0.1, 0.1], [0.1], [(0, None)])
    assert run._same_steps(a, a)
    assert not run._same_steps(b, a)
    c = _batch_run([0.1, 0.1, 0.1], [0.1], [(0, None)],
                   anchors={"fifo": {"events": 3}})
    assert not run._same_steps(c, a)


def test_trace_count_depends_on_the_arguments_only():
    for name, scenario in WORKLOADS.items():
        n = run.trace_count(name, 30.0)
        assert n == run.trace_count(name, 30.0) >= run.MIN_TRACES
        assert run.trace_count(name, 0.0) == run.MIN_TRACES
        assert run.trace_count(name, 600.0) > n


def test_a_missing_wrap_target_fails_the_run():
    scenario = WORKLOADS["minibatch_fifo"]
    n = scenario.num_jobs
    anchors = {"fifo": {
        "jobs": n, "finished": n, "avg_jct_s": 1.0, "makespan_s": 2.0,
        "rounds": 3, "decision_rounds": 3, "events": 10 * n,
    }}
    untraced = {"anchors": anchors, "instance": 0}
    traced = {"anchors": anchors, "instance": 0,
              "layers": {"missing": ["repro.sim.jobtable.JobTable.gone"]}}
    # A seed other than the pinned one, so only these checks apply.
    made, failures = run.check(
        "minibatch_fifo", 2, [[untraced]], [traced], []
    )
    assert made >= 3
    assert failures == [
        "traced run of trace 0: no repro.sim.jobtable.JobTable.gone to trace"
    ]
