"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fluid_sjf_gavel --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run measures a fixed set of seeded traces, each in fresh processes
(``perfbench/worker.py``) one at a time; ``--seconds`` sets how many
traces (:func:`trace_count`). With ``--trace 0`` each trace runs
``Scenario.replays`` times, round-robin over the traces so that the
replays of one trace lie far apart in time; each phase of the stepped
protocol (batch) or each request (serve) counts its fastest replay
(:func:`combine`). The run then checks the outputs and prints the
metrics: a
table, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with no instrumentation. With ``--trace 1`` each of
``TRACED_PAIRS`` traces runs twice, untraced then traced; the metrics
are the per-layer ones from the traced runs plus
``trace.overhead_frac``, and each traced run's anchors must equal its
untraced twin's. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fewest traces a ``--trace 0`` run measures, whatever ``--seconds``:
#: a tail percentile then rests on more than one trace's quirks.
MIN_TRACES = 3
#: Untraced/traced run pairs a ``--trace 1`` run measures.
TRACED_PAIRS = 2
#: Longest one worker process may take before it is killed.
INSTANCE_TIMEOUT_S = 60.0

#: ``(metric, unit)`` reported with ``--trace 0``, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("submit_ms_p50", "ms"),
    ("submit_ms_p90", "ms"),
    ("read_ms_p50", "ms"),
    ("place_lag_ms_p50", "ms"),
    ("place_lag_ms_p90", "ms"),
)


class InstanceError(RuntimeError):
    """A worker process failed or timed out."""


def run_instance(workload: str, seed: int, *flags: str) -> dict:
    """One worker process; returns its JSON result line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), *flags,
    ]
    # A session of its own, so a timeout also kills a serve worker's
    # server process.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise InstanceError(f"{workload} instance timed out") from None
    except BaseException:  # interrupted: leave no process behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise InstanceError(
            f"{workload} instance exited {proc.returncode}:\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _samples_ok(combined: List[dict], key: str, pct: int) -> bool:
    from perfbench import stats

    n = sum(len(trace[key]) for trace in combined)
    return stats.supported_tail(n) >= pct


def trace_count(workload: str, seconds: float) -> int:
    """Traces a ``--trace 0`` run measures: enough to fill ``seconds``
    at the workload's nominal process time, at least ``MIN_TRACES``.

    It depends on the arguments only, so a seed gives the same inputs on
    a fast host and a slow one.
    """
    from perfbench.workloads import WORKLOADS

    scenario = WORKLOADS[workload]
    nominal_s = scenario.instance_s * scenario.replays
    return max(MIN_TRACES, round(seconds / nominal_s))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload's processes; returns ``(replays, traced)``.

    ``replays[k]`` lists the untraced runs of trace ``k``. With
    ``trace``, traces ``0 .. TRACED_PAIRS - 1`` each run once untraced
    and once traced (``traced[k]``).
    """
    from perfbench.workloads import WORKLOADS

    chrome = HERE / "out" / f"{workload}-seed{seed}.trace.json"
    if trace:
        replays, traced = [], []
        for k in range(TRACED_PAIRS):
            replays.append([run_instance(workload, seed, "--instance", str(k))])
            flags = ["--instance", str(k), "--trace"]
            if k == 0:
                flags += ["--chrome", str(chrome)]
            traced.append(run_instance(workload, seed, *flags))
        return replays, traced
    replays = [[] for _ in range(trace_count(workload, seconds))]
    # Round-robin: a slow stretch of the host shorter than a round hits
    # one replay of a trace, not all of them.
    for _ in range(WORKLOADS[workload].replays):
        for k, runs in enumerate(replays):
            runs.append(run_instance(workload, seed, "--instance", str(k)))
    return replays, []


def _same_steps(run: dict, other: dict) -> bool:
    """Two runs of one trace computed the same and took the same steps."""
    return run["anchors"] == other["anchors"] and all(
        len(phases) == len(other["phases_s"][policy])
        for policy, phases in run.get("phases_s", {}).items()
    )


def combine(runs: List[dict]) -> dict:
    """One trace's timed figures from its runs.

    Batch: each phase (``begin()``, every ``step()``, ``finish()``) and
    each result read at its fastest run; ``wall_s`` sums the phases, a
    job's submit and place samples are the steps that admitted and
    placed it. Serve: each request and each placement at its fastest
    run, ``wall_s`` the shortest. The runs send the same requests at the
    same offsets and place the same jobs in the same order; a job placed
    while paced in one run may be placed during the drain in another, so
    only the placements every run made while paced count.
    """
    first = runs[0]
    if "phases_s" not in first:
        out = {"wall_s": min(run["wall_s"] for run in runs)}
        for key in ("submit_ms", "place_ms", "read_ms"):
            out[key] = [min(column) for column in zip(*(r[key] for r in runs))]
        return out
    out = {"wall_s": 0.0, "submit_ms": [], "place_ms": [], "read_ms": []}
    for policy, job_steps in first["job_steps"].items():
        fastest = [
            min(column)
            for column in zip(*(run["phases_s"][policy] for run in runs))
        ]
        out["wall_s"] += sum(fastest)
        out["read_ms"] += [
            _ms(min(column))
            for column in zip(*(run["reads_s"][policy] for run in runs))
        ]
        step_ms = [_ms(dt) for dt in fastest[1:-1]]
        for admitted, placed in job_steps:
            out["submit_ms"].append(step_ms[admitted])
            if placed is not None:
                out["place_ms"].append(step_ms[placed])
    return out


def check(workload: str, seed: int, replays: List[List[dict]],
          traced: List[dict], combined: List[dict]) -> Tuple[int, List[str]]:
    """Output checks; returns ``(checks made, failure messages)``."""
    from perfbench import workloads

    scenario = workloads.WORKLOADS[workload]
    runs = [run for group in replays for run in group]
    failures: List[str] = []
    made = 0
    for run in runs + traced:
        for policy in scenario.policies:
            made += 1
            failures += workloads.invariant_failures(
                scenario, policy, run["anchors"][policy]
            )
    for policy in scenario.policies:
        made += 1
        failures += workloads.pinned_failures(
            workload, seed, policy, replays[0][0]["anchors"][policy]
        )
    # Runs of one trace are the same computation.
    for k, group in enumerate(replays):
        for run in group[1:]:
            made += 1
            if not _same_steps(run, group[0]):
                failures.append(
                    f"trace {k}: a replay's anchors {run['anchors']} or "
                    f"step counts differ from the first run's "
                    f"{group[0]['anchors']}"
                )
    # Every wrapped entry point must still exist, or its layer's
    # metrics would read 0 and pass for an improvement.
    for run in traced:
        made += 1
        failures += [
            f"traced run of trace {run['instance']}: no {target} to trace"
            for target in run["layers"]["missing"]
        ]
    # Instrumentation must not change what the program computes.
    for group, run in zip(replays, traced):
        made += 1
        if run["anchors"] != group[0]["anchors"]:
            failures.append(
                f"traced run of trace {run['instance']}: anchors "
                f"{run['anchors']} differ from untraced {group[0]['anchors']}"
            )
    if workload == "serve_paced":
        # Online and batch runs of one trace must agree exactly.
        batch = run_instance(
            workload, seed, "--reference", str(len(replays))
        )["anchors"]
        for run in runs:
            made += 1
            want = batch[run["instance"]]
            if run["anchors"] != want:
                failures.append(
                    f"serve trace {run['instance']} anchors "
                    f"{run['anchors']} != batch {want}"
                )
        for run in runs + traced:
            made += 1
            if run["submitted"] != scenario.num_jobs:
                failures.append(
                    f"{run['submitted']} of {scenario.num_jobs} submitted"
                )
    if not traced:
        for key, pct in (("submit_ms", 90), ("place_ms", 90), ("read_ms", 50)):
            made += 1
            if not _samples_ok(combined, key, pct):
                failures.append(f"too few {key} samples for p{pct}")
    return made, failures


def end_to_end(runs: List[dict], combined: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics: set-up as the median and peak RSS as the
    mean over every process, ``wall_s`` as the median over traces,
    latencies as percentiles of the samples pooled over traces."""
    from perfbench import stats

    def pct(key: str, p: int) -> float:
        # ``check`` fails a run whose samples cannot carry ``p``.
        samples = [x for trace in combined for x in trace[key]]
        return stats.percentile(samples, p / 100.0)

    return {
        "setup_s": stats.median([run["setup_s"] for run in runs]),
        "wall_s": stats.median([trace["wall_s"] for trace in combined]),
        # A mean, not a median: each trace has its own peak, and the
        # median of a few traces' peaks jumps between them.
        "peak_rss_mb": statistics.fmean(run["peak_rss_mb"] for run in runs),
        "submit_ms_p50": pct("submit_ms", 50),
        "submit_ms_p90": pct("submit_ms", 90),
        "read_ms_p50": pct("read_ms", 50),
        "place_lag_ms_p50": pct("place_ms", 50),
        "place_lag_ms_p90": pct("place_ms", 90),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure and check one workload; returns the result object."""
    from perfbench import layers, stats

    replays, traced = measure(workload, seed, seconds, trace)
    # A trace whose replays disagree fails ``check``; only its first
    # run's figures are used.
    combined = [
        combine([run for run in group if _same_steps(run, group[0])])
        for group in replays
    ]
    made, failures = check(workload, seed, replays, traced, combined)
    runs = [run for group in replays for run in group]
    attempted = made + sum(run["operations"] for run in runs + traced)
    failed = len(failures) + sum(
        run.get("late_submits", 0) + len(run.get("failures", ()))
        for run in runs + traced
    )
    metrics: Dict[str, dict] = {}
    if trace:
        for name, (value, unit) in layers.layer_metrics(
            traced, runs
        ).items():
            metrics[name] = {"value": value, "unit": unit}
        # Each traced run against its untraced twin (same trace).
        overhead = stats.median([
            t["wall_s"] / u["wall_s"] for u, t in zip(runs, traced)
        ]) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        values = end_to_end(runs, combined)
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    for message in failures:
        print(f"CHECK FAILED [{workload}]: {message}")
    print(
        f"{workload}: {len(replays)} traces, {len(runs)} untraced + "
        f"{len(traced)} traced runs, {attempted} operations, {failed} failed"
    )
    for name, entry in metrics.items():
        print(f"  {name:<38} {entry['value']:>14.6g} {entry['unit']}")
    # Figures are scaled to the reference host speed; how slow the host
    # ran is shown here, not reported.
    slowdowns = [run["slowdown"] for run in runs + traced]
    print(f"  host slowdown (median probe / reference): "
          f"{stats.median(slowdowns):.3f}, "
          f"{min(slowdowns):.3f}-{max(slowdowns):.3f} over processes")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
    )
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so ``run_instance`` can stop its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT} holds no repro sources (src/repro); run from "
            "the root of a checkout", file=sys.stderr,
        )
        return 2
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; expected one of "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
