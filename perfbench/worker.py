"""One run of one workload trace in its own process; prints one JSON line.

Usage (``perfbench/run.py`` spawns it; run from the checkout root)::

    python3 perfbench/worker.py --workload fluid_sjf_gavel --seed 1 --instance 0 [--trace]
    python3 perfbench/worker.py --workload serve_paced --seed 1 --reference 3

``--instance k`` selects the run's ``k``-th trace, generated from
``workloads.trace_seed(seed, k)``. A batch run builds the trace and the
simulator(s), then drives ``begin()``/``step()``/``finish()`` once per
policy, timing every phase and scaling it to the reference host speed
(``perfbench/speed.py``). A ``serve_paced`` run is the open-loop
load generator: it starts a ``repro serve`` process
(``perfbench/serve_host.py``), submits the trace over one connection at
each job's paced due time with interleaved ``status``/``metrics`` reads,
then drains the server. ``--reference K`` runs traces ``0..K-1`` of
``serve_paced`` as batch runs instead, for the online/batch anchor check.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import speed  # noqa: E402

# The host's speed as set-up begins; the probes' own time is left out of
# set-up (:func:`_setup_s`).
_t = time.perf_counter()
START_PROBE_S = speed.steady_probe()
START_PROBE_COST_S = time.perf_counter() - _t

#: Wall seconds a server may take to announce its port, and to exit
#: after a drain request.
SERVER_TIMEOUT_S = 60.0
#: ``serve_paced``: the generator stays awake this many seconds before
#: each due time (``OpenLoop``), yielding its CPU to the server.
SPIN_S = 0.002
#: Timed reads of each finished batch run's result (``read_ms``).
RESULT_READS = 20


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _read_result(result) -> None:
    """One read of a finished run: the summary figures a user asks for."""
    result.average_jct_s()
    result.makespan_s()
    result.jct_cdf()
    result.average_fairness_ratio()
    result.average_effective_cache_fraction()
    result.peak_remote_io_mbps()
    result.throughput_series()


def _setup_probe_s() -> float:
    """The host's speed over set-up: the mean of the probes taken as it
    began and now."""
    return (START_PROBE_S + speed.steady_probe()) / 2.0


def _setup_s(end_s: float, probe_s: float) -> float:
    """Set-up seconds from ``T0`` to ``end_s`` at the reference speed."""
    return speed.scale(end_s - T0 - START_PROBE_COST_S, probe_s)


def _replay(scenario, sim):
    """One stepped run; returns step instants, phase seconds, probes and
    the result.

    The phases are ``begin()``, every ``step()`` (the last one, which
    returns False, included) and ``finish()``, in order; a host-speed
    probe runs before the first phase and after each one.
    """
    clock, probe = time.perf_counter, speed.probe
    instants, phases, probes = [], [], [probe()]
    t = clock()
    sim.begin()
    phases.append(clock() - t)
    probes.append(probe())
    more = True
    while more:
        t = clock()
        more = sim.step()
        phases.append(clock() - t)
        probes.append(probe())
        if more:
            instants.append(scenario.step_instant(sim))
    t = clock()
    result = sim.finish()
    phases.append(clock() - t)
    probes.append(probe())
    return instants, phases, probes, result


def _timed_reads(result) -> List[float]:
    """``RESULT_READS`` reads of ``result``, scaled to the reference speed."""
    reads, probes = [], [speed.probe()]
    for _ in range(RESULT_READS):
        t = time.perf_counter()
        _read_result(result)
        reads.append(time.perf_counter() - t)
        probes.append(speed.probe())
    return speed.scale_between(reads, probes)


def run_batch(args, scenario) -> dict:
    """Setup, then one stepped run of every policy.

    Per policy it returns the seconds of every phase and result read,
    scaled to the reference host speed, and per job the indices of the
    steps that admitted and placed it; ``run.py`` combines these over
    replays of the same trace.
    """
    from perfbench.workloads import anchors, job_steps

    t_import = time.perf_counter()
    jobs = scenario.trace(args.trace_seed)
    t_trace = time.perf_counter()
    sims = [scenario.simulator_for(policy, jobs) for policy in scenario.policies]
    t_build = time.perf_counter()
    setup_s = _setup_s(t_build, _setup_probe_s())

    out = {
        "setup_s": setup_s,
        "setup": {
            "import_s": t_import - T0,
            "trace_s": t_trace - t_import,
            "build_s": t_build - t_trace,
        },
        "raw_wall_s": 0.0,
        "anchors": {},
        "phases_s": {},
        "reads_s": {},
        "job_steps": {},
        "rounds": 0,
        "decision_rounds": 0,
        "wall_s": 0.0,
        "operations": 0,
    }
    probes_s = []
    for index, policy in enumerate(scenario.policies):
        # One simulator alive at a time, so the peak RSS is one run's.
        sim, sims[index] = sims[index], None
        instants, raw_phases, probes, result = _replay(scenario, sim)
        phases = speed.scale_between(raw_phases, probes)
        out["anchors"][policy] = anchors(sim, result)
        out["phases_s"][policy] = phases
        out["raw_wall_s"] += sum(raw_phases)
        probes_s += probes
        out["reads_s"][policy] = _timed_reads(result)
        out["job_steps"][policy] = [
            job_steps(instants, record) for record in result.records
        ]
        out["wall_s"] += sum(phases)
        out["rounds"] += sim.sched_rounds
        out["decision_rounds"] += sim.decision_rounds
        out["operations"] += len(result.records) + RESULT_READS
        del sim, result
    # How much slower than the reference speed the host ran, for the
    # record; every figure above is already scaled.
    out["slowdown"] = statistics.median(probes_s) / speed.REFERENCE_PROBE_S
    return out


def run_reference(args, scenario) -> dict:
    """Serve traces as batch runs with the server's settings.

    The jobs take the path the server's take (``job_to_dict``, then
    ``job_from_dict`` with one shared dataset table) and the simulator
    gets the same kind of tracer, so only online driving differs.
    """
    from perfbench.workloads import anchors, trace_seed
    from repro.obs.stream import StreamingTracer
    from repro.workloads.trace_io import job_from_dict, job_to_dict

    policy = scenario.policies[0]
    out = []
    for instance in range(args.reference):
        datasets: dict = {}
        jobs = [
            job_from_dict(job_to_dict(job), datasets)
            for job in scenario.trace(trace_seed(args.seed, instance))
        ]
        sim = scenario.simulator_for(policy, jobs, tracer=StreamingTracer())
        out.append({policy: anchors(sim, sim.run())})
    return {"anchors": out}


def _start_server(scenario, speedup: float, trace: bool, chrome: str):
    cmd = [sys.executable, str(ROOT / "perfbench" / "serve_host.py")]
    if trace:
        cmd.append("--trace")
    if chrome:
        cmd += ["--chrome", chrome]
    cmd += ["--", *scenario.serve_args(speedup)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
    )
    # The generator and the server on one CPU, so a round trip is two
    # context switches on it. Left to the kernel, the two processes share
    # a CPU in some runs and not in others; across CPUs a round trip also
    # waits for the other CPU to wake, which on a shared VM host costs
    # more or less with the host's load, and a run's latencies move with
    # that.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(proc.pid, {cpu})
    for line in proc.stdout:
        match = re.match(r"serve: listening on ([\d.]+):(\d+)", line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.wait(timeout=SERVER_TIMEOUT_S)
    raise RuntimeError(f"server exited ({proc.returncode}) before listening")


def run_serve(args, scenario) -> dict:
    """Open-loop generator against a paced server in another process."""
    from perfbench.openloop import OpenLoop
    from perfbench.workloads import LEAD_S, READ_INTERVAL_S
    from repro.serve.client import ServeClient, ServeError
    from repro.workloads.trace_io import job_to_dict

    t_import = time.perf_counter()
    jobs = scenario.trace(args.trace_seed)
    speedup = scenario.speedup(jobs)
    payloads = [job_to_dict(job) for job in jobs]
    t_trace = time.perf_counter()
    proc, host, port = _start_server(scenario, speedup, args.trace, args.chrome)
    failures = []
    try:
        client = ServeClient(host, port, timeout_s=SERVER_TIMEOUT_S)
        t_build = time.perf_counter()
        # Set-up ends at the first accepted submit; the host's speed is
        # taken before the paced requests begin.
        setup_probe_s = _setup_probe_s()
        first_s = payloads[0]["submit_time_s"]
        last_due = (payloads[-1]["submit_time_s"] - first_s) / speedup
        # Requests sorted by due offset; a read goes out every interval.
        plan = [
            ((p["submit_time_s"] - first_s) / speedup, 0, i)
            for i, p in enumerate(payloads)
        ]
        n_reads = int(last_due / READ_INTERVAL_S)
        plan += [((k + 1) * READ_INTERVAL_S, 1, k)
                 for k in range(n_reads)]
        plan.sort()
        loop = OpenLoop(clock=time.perf_counter, spin_s=SPIN_S)
        # The paced clock starts ``LEAD_S`` of wall time before the first
        # submit time, so each submission is due that long before the
        # server may process its arrival.
        client.clock("step", to_s=first_s - LEAD_S * speedup)
        loop.start()
        client.clock("resume")
        submit_s, read_s, late, first_accept = [], [], 0, None
        probes = []
        for due, kind, index in plan:
            if kind == 0:
                payload = payloads[index]
                request = lambda: client.submit(payload)  # noqa: E731
            elif index % 4 == 3:
                request = client.metrics
            else:
                request = client.status
            try:
                response, timing = loop.call(due, request)
            except ServeError as exc:
                failures.append(f"request {kind}/{index} rejected: {exc}")
                continue
            # The host's speed now; the next request is due later.
            probes.append(speed.probe())
            if kind == 0:
                submit_s.append(timing.latency_s)
                if response["submit_time_s"] != payload["submit_time_s"]:
                    late += 1
                if first_accept is None:
                    first_accept = timing.done_s
            else:
                read_s.append(timing.latency_s)
        if first_accept is None:
            raise RuntimeError(f"no submission accepted: {failures[:3]}")
        first_submit_sent = loop.timings[0].sent_s
        client.shutdown(drain=True)
        client.close()
        tail, _ = proc.communicate(timeout=SERVER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"server exited with {proc.returncode}")
    server = json.loads(tail.strip().splitlines()[-1])
    (served,) = server["anchors"].values()
    lags = [_ms(t.generator_lag_s) for t in loop.timings]
    return {
        "setup_s": _setup_s(first_accept, setup_probe_s),
        "setup": {
            "import_s": t_import - T0,
            "trace_s": t_trace - t_import,
            "build_s": t_build - t_trace,
        },
        "slowdown": statistics.median(probes) / speed.REFERENCE_PROBE_S,
        # Comparable across processes: on Linux perf_counter reads the
        # system-wide CLOCK_MONOTONIC.
        "wall_s": server["drained_at"] - first_submit_sent,
        # The pacing, not host work: never scaled.
        "raw_wall_s": server["drained_at"] - first_submit_sent,
        "peak_rss_mb": server["peak_rss_mb"],
        "anchors": server["anchors"],
        "rounds": served["rounds"],
        "decision_rounds": served["decision_rounds"],
        "submit_ms": [_ms(x) for x in speed.scale_by_median(submit_s, probes)],
        "read_ms": [_ms(x) for x in speed.scale_by_median(read_s, probes)],
        "place_ms": server["place_lag_ms"],
        "late_submits": late,
        "generator_lag_ms": lags,
        "submitted": len(submit_s),
        "operations": len(submit_s) + len(read_s),
        "failures": failures,
        "layers": server.get("layers"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instance", type=int, default=0,
                        help="index of the run's trace")
    parser.add_argument("--trace", action="store_true",
                        help="record per-layer spans and counts")
    parser.add_argument("--chrome", default="",
                        help="write the spans as a Chrome trace here")
    parser.add_argument("--reference", type=int, default=0, metavar="K",
                        help="serve_paced only: run traces 0..K-1 as "
                        "batch runs")
    args = parser.parse_args()

    from perfbench.workloads import WORKLOADS, trace_seed

    scenario = WORKLOADS[args.workload]
    args.trace_seed = trace_seed(args.seed, args.instance)
    if args.reference:
        out = run_reference(args, scenario)
    elif args.workload == "serve_paced":
        out = run_serve(args, scenario)
    else:
        tracing = None
        if args.trace:
            from perfbench.layers import start_tracing

            tracing = start_tracing()
        out = run_batch(args, scenario)
        from perfbench import peak_rss_mb

        out["peak_rss_mb"] = peak_rss_mb()
        if tracing is not None:
            from perfbench.layers import finish_tracing

            out["layers"] = finish_tracing(
                tracing, args.chrome,
                f"{args.workload} seed {args.seed} instance {args.instance}",
            )
    out["instance"] = args.instance
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
