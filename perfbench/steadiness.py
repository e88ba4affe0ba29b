"""Measure the benchmark's own run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload fluid_sjf_gavel --seeds 1-10
    python3 perfbench/steadiness.py --workload fluid_sjf_gavel --seeds 1x5

Runs ``perfbench/run.py`` once per seed (``--trace 0``; ``1x5`` is seed
1 five times, an A/A check on identical inputs) and prints, per
end-to-end metric, the median and the spread each bound is checked
against:
the distance between the first and third quartile of the runs, as a
share of their median. ``STEADINESS.md`` records what it printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[0:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import stats  # noqa: E402


def _seeds(text: str):
    if "x" in text:
        seed, _, times = text.partition("x")
        return [int(seed)] * int(times)
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="a range (1-10) or one seed repeated (1x5)")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    values = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        slowdown = next(
            (line.split(":")[1].split(",")[0].strip() for line in lines
             if "host slowdown" in line), "?"
        )
        print(f"seed {seed}: correct={result['correct']} "
              f"slowdown={slowdown} " + " ".join(
            f"{name}={entry['value']:.4g}"
            for name, entry in result["metrics"].items()
        ), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name, series in values.items():
        got = stats.spread(series)
        print(f"{name:<20} median {got['median']:<10.4g} "
              f"spread {got['iqr_frac']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
