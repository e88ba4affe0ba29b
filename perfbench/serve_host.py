"""``python -m repro serve`` with the benchmark's probes attached.

Usage (the ``serve_paced`` load generator starts it)::

    python3 perfbench/serve_host.py [--trace] [--chrome PATH] -- serve ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged, so the
process runs exactly the ``repro serve`` command. The host wraps
``repro.serve.cli.build_server`` to reach the server it builds and adds
one tracer sink: at each ``job_start`` emitted while the clock is
paced, the placement lag ``(clock.target_s() - event.ts_s) / speedup``,
the wall time since the paced clock reached the job's start, scaled to
the reference host speed by the run's median probe
(``perfbench/speed.py``). When the
service has drained, the host prints one JSON line: the lags, the
drain time, the run's anchors, peak RSS and (with ``--trace``) the
per-layer spans.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

#: Placement lags are scaled to the reference host speed by the median
#: of probes taken through the run (``perfbench/speed.py``), at most one
#: per this many seconds.
PROBE_INTERVAL_S = 0.02


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome", default="")
    parser.add_argument("serve_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_argv = args.serve_argv
    if serve_argv[:1] == ["--"]:
        serve_argv = serve_argv[1:]

    import repro.cli
    import repro.serve.cli
    from perfbench import peak_rss_mb, speed
    from perfbench.workloads import anchors

    tracing = None
    if args.trace:
        from perfbench.layers import start_tracing

        tracing = start_tracing()

    lags_s, probes = [], []
    state = {"probed_at": -math.inf}
    build_server = repro.serve.cli.build_server

    def probed_build_server(ns):
        server = build_server(ns)
        engine = server.engine
        clock = engine.clock

        def on_event(event):
            if (
                event.etype == "job_start"
                and not clock.paused
                and clock.speedup
            ):
                lag_s = (clock.target_s() - event.ts_s) / clock.speedup
                lags_s.append(lag_s)
                now = time.perf_counter()
                # One probe per burst of placements, so the later jobs of
                # a step do not wait for probes.
                if now - state["probed_at"] > PROBE_INTERVAL_S:
                    probes.append(speed.probe())
                    state["probed_at"] = now

        engine.tracer.add_sink(on_event)
        drain = engine.drain

        def timed_drain():
            result = drain()
            state["drained_at"] = time.perf_counter()
            return result

        engine.drain = timed_drain
        state["engine"] = engine
        return server

    repro.serve.cli.build_server = probed_build_server
    code = repro.cli.main(serve_argv)
    engine = state["engine"]
    out = {
        "place_lag_ms": [
            lag_s * 1000.0 for lag_s in speed.scale_by_median(lags_s, probes)
        ],
        "drained_at": state["drained_at"],
        "anchors": {engine.stack.policy: anchors(engine.sim, engine.result)},
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracing is not None:
        from perfbench.layers import finish_tracing

        out["layers"] = finish_tracing(tracing, args.chrome, "repro serve")
    print(json.dumps(out), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
