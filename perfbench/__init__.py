"""The repository benchmark: end-to-end and per-layer cost of SiloD runs.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout; see ``perfbench/README.md``.
"""

import resource


def peak_rss_mb() -> float:
    """This process's peak resident set size, MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
