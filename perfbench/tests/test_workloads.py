"""Seeded inputs and the serve command line match the batch scenario."""

from perfbench.workloads import WORKLOADS, invariant_failures


def _dicts(jobs):
    from repro.workloads.trace_io import job_to_dict

    return [job_to_dict(job) for job in jobs]


def test_same_seed_gives_identical_traces():
    for scenario in WORKLOADS.values():
        first = _dicts(scenario.trace(11))
        assert first == _dicts(scenario.trace(11))
        assert len(first) == scenario.num_jobs
        assert first != _dicts(scenario.trace(12))


def test_serve_arguments_build_the_batch_cluster():
    from repro.cli import _build_cluster, build_parser

    scenario = WORKLOADS["serve_paced"]
    args = build_parser().parse_args(scenario.serve_args(1234.5))
    served = _build_cluster(args)
    batch = scenario.cluster()
    assert served.total_gpus == batch.total_gpus
    assert served.total_cache_mb == batch.total_cache_mb
    assert served.remote_io_mbps == batch.remote_io_mbps
    assert args.reschedule_s == scenario.interval_s
    assert args.speedup == 1234.5


def test_invariants_flag_unfinished_jobs():
    scenario = WORKLOADS["minibatch_fifo"]
    good = {
        "jobs": scenario.num_jobs, "finished": scenario.num_jobs,
        "avg_jct_s": 1.0, "makespan_s": 2.0, "rounds": 3,
        "decision_rounds": 3, "events": 10 * scenario.num_jobs,
    }
    assert invariant_failures(scenario, "fifo", good) == []
    bad = dict(good, finished=scenario.num_jobs - 1)
    assert invariant_failures(scenario, "fifo", bad)


def _stepped(scenario, jobs):
    """Drive the stepped protocol; returns instants, events per step, result."""
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    sim = scenario.simulator_for(scenario.policies[0], jobs, tracer=tracer)
    instants, step_of_event = [], {}
    sim.begin()
    while sim.step():
        for event in tracer.events[len(step_of_event):]:
            step_of_event[len(step_of_event)] = len(instants)
        instants.append(scenario.step_instant(sim))
    return instants, tracer.events, step_of_event, sim.finish()


def test_job_steps_name_the_steps_that_admitted_and_placed_each_job():
    import dataclasses

    from perfbench.workloads import job_steps

    for name in ("fluid_sjf_gavel", "minibatch_fifo"):
        scenario = dataclasses.replace(
            WORKLOADS[name], num_jobs=24, num_gpus=8
        )
        instants, events, step_of_event, result = _stepped(
            scenario, scenario.trace(5)
        )
        admitted_in, started_in = {}, {}
        for index, event in enumerate(events):
            if event.etype == "job_submit":
                admitted_in[event.job_id] = step_of_event[index]
            elif event.etype == "job_start":
                started_in.setdefault(event.job_id, step_of_event[index])
        waited = 0
        for record in result.records:
            admitted, placed = job_steps(instants, record)
            assert admitted == admitted_in[record.job_id], name
            expected = started_in[record.job_id]
            if placed is None:
                assert expected == admitted, name
            else:
                waited += 1
                assert placed == expected, name
        assert waited > 0, name
