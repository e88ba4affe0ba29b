"""Host-speed probe: time intervals at the reference speed of the host.

The benchmark's host is a shared VM whose speed changes under it: for
stretches of a tenth of a second to minutes it runs the same Python code
about half as fast (``STEADINESS.md``). Taking each phase at its fastest
replay removes a slow stretch only when some replay missed it; in a slow
minute every replay meets it. So each timed interval is paired with a
probe, a fixed pure-Python loop run right next to it, and scaled by how
much slower than :data:`REFERENCE_PROBE_S` the probe ran then::

    scaled = interval * REFERENCE_PROBE_S / probe

The probe is the benchmark's own code, never the program's, so a change
to the program moves the scaled figure as it moves the interval, and a
change to the host's speed moves neither. Scaled figures are seconds at
the reference speed: the fast speed of the host in ``STEADINESS.md``.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: Seconds one :func:`probe` takes when the host runs at its fast speed
#: (the 5th percentile of the probes on the host of ``STEADINESS.md``).
#: It sets the scale of every scaled figure, not its steadiness.
REFERENCE_PROBE_S = 40e-6

#: Dictionary updates per probe: about 40 µs, short beside the
#: second-long stretches of one host speed and long beside the clock's
#: resolution.
PROBE_OPS = 400


def probe() -> float:
    """Seconds one fixed loop of dictionary updates takes now."""
    clock = time.perf_counter
    t = clock()
    d: dict = {}
    for i in range(PROBE_OPS):
        d[i & 63] = d.get(i & 63, 0) + i
    return clock() - t


def steady_probe(samples: int = 5) -> float:
    """The fastest of ``samples`` probes: the host's speed now, with an
    interrupt in one probe left out."""
    return min(probe() for _ in range(samples))


def scale(interval_s: float, probe_s: float) -> float:
    """``interval_s`` at the reference speed, given a probe beside it."""
    return interval_s * REFERENCE_PROBE_S / probe_s


def scale_between(intervals: Sequence[float],
                  probes: Sequence[float]) -> List[float]:
    """Scale back-to-back intervals, each between two probes.

    ``probes[i]`` ran just before ``intervals[i]`` and ``probes[i + 1]``
    just after it; the faster of the two stands for the interval, so an
    interrupt in one probe does not shrink the interval.
    """
    if len(probes) != len(intervals) + 1:
        raise ValueError(
            f"{len(intervals)} intervals need {len(intervals) + 1} probes, "
            f"got {len(probes)}"
        )
    return [
        scale(dt, min(before, after))
        for dt, before, after in zip(intervals, probes, probes[1:])
    ]


def scale_by_median(intervals: Sequence[float],
                    probes: Sequence[float]) -> List[float]:
    """Scale intervals by the median of the probes taken through one run.

    For a serve run, whose intervals also wait on another process and on
    socket wake-ups: one probe beside such an interval tracks its cost
    less well than the run's typical speed does, and the fastest of the
    replays (``run.combine``) takes out the slow stretches within a run.
    """
    if not intervals:
        return []
    probe_s = statistics.median(probes)
    return [scale(dt, probe_s) for dt in intervals]
