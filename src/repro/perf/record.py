"""Schema-versioned performance records (``BENCH_*.json``).

A :class:`BenchRecord` is one machine-comparable measurement of one
scaling scenario: identity fields pin *what* ran (scenario, simulator,
policy, cache, trace/cluster size, backend), result fields pin *what
came out* (simulated time, finished jobs, mean JCT — the anchors that
prove two records are comparable), and metric fields carry *how fast*
(wall time, peak RSS, events/sec, rounds/sec). The field-by-field
reference lives in ``docs/PERFORMANCE.md`` and is CI-synchronised with
this dataclass by ``tools/check_obs_docs.py``.

``compare_records`` implements ``repro bench --compare``: per-metric
deltas against a baseline record, with a relative threshold deciding
which deltas count as regressions (throughput metrics regress when they
*drop*, cost metrics when they *rise*). Records whose result anchors
disagree are flagged as drift — a perf comparison between diverging
simulations is meaningless, so drift is reported as a failure, not a
slowdown.

:func:`benchmark_artifact` wraps arbitrary benchmark payloads
(the ``benchmarks/`` suite's tables and sweep cells) in the same
versioned envelope so every artifact under ``benchmarks/results/``
is self-describing and diffable across revisions.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Version of the ``BenchRecord`` JSON layout. Bump on any field change
#: and teach :func:`load_record` the migration.
BENCH_SCHEMA_VERSION = 1

#: Version of the generic benchmark-artifact envelope.
ARTIFACT_SCHEMA_VERSION = 1

#: Metrics where larger is better (regression = drop below baseline).
THROUGHPUT_METRICS = ("events_per_sec", "rounds_per_sec")
#: Metrics where smaller is better (regression = rise above baseline).
COST_METRICS = ("wall_time_s", "peak_rss_mb")
#: Result anchors that must agree for two records to be comparable.
ANCHOR_METRICS = ("sim_time_s", "jobs_finished", "avg_jct_min")


@dataclasses.dataclass
class BenchRecord:
    """One scenario measurement, as persisted in ``BENCH_<scenario>.json``."""

    schema_version: int
    scenario: str
    simulator: str
    policy: str
    cache: str
    num_jobs: int
    num_gpus: int
    backend: str
    wall_time_s: float
    peak_rss_mb: float
    events_total: int
    events_per_sec: float
    rounds_total: int
    rounds_per_sec: float
    sim_time_s: float
    jobs_finished: int
    avg_jct_min: float
    created_utc: str
    host: Dict[str, str]

    def to_dict(self) -> dict:
        """Plain-dict view in field declaration order (JSON layout)."""
        return dataclasses.asdict(self)


#: Field names of the record, in declaration order — the code half of
#: the doc/code schema sync in ``tools/check_obs_docs.py``.
BENCH_FIELDS = tuple(
    f.name for f in dataclasses.fields(BenchRecord)
)


def host_fingerprint() -> Dict[str, str]:
    """Where a record was measured (context for cross-machine deltas)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy-less hosts
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy_version,
    }


def utc_now_iso() -> str:
    """Current UTC time, ISO-8601 with seconds precision."""
    # Wall-clock by design: records are stamped with real measurement
    # time; it never feeds back into simulation.
    # lint: disable=DET003
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def write_record(record: BenchRecord, path) -> Path:
    """Persist one record as pretty-printed, key-stable JSON."""
    path = Path(path)
    path.write_text(json.dumps(record.to_dict(), indent=2) + "\n")
    return path


def load_record(path) -> BenchRecord:
    """Load a ``BENCH_*.json`` record, validating the schema version."""
    raw = json.loads(Path(path).read_text())
    version = raw.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema version {version!r} is not the "
            f"supported {BENCH_SCHEMA_VERSION}"
        )
    known = {f.name for f in dataclasses.fields(BenchRecord)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"{path}: unknown bench fields {unknown}")
    missing = sorted(known - set(raw))
    if missing:
        raise ValueError(f"{path}: missing bench fields {missing}")
    return BenchRecord(**raw)


# ----------------------------------------------------------------------
# Comparison (``repro bench --compare``).
# ----------------------------------------------------------------------


@dataclasses.dataclass
class MetricDelta:
    """One per-metric comparison row.

    ``ratio`` is ``current / baseline`` (``None`` when the baseline is
    zero); ``regressed`` applies the caller's threshold in the metric's
    better-direction; ``drift`` marks result anchors that disagree,
    invalidating the whole comparison.
    """

    metric: str
    baseline: float
    current: float
    ratio: Optional[float]
    regressed: bool
    drift: bool = False

    def render(self) -> str:
        """One aligned, human-readable comparison line."""
        ratio = f"{self.ratio:.3f}x" if self.ratio is not None else "n/a"
        flag = ""
        if self.drift:
            flag = "  [DRIFT]"
        elif self.regressed:
            flag = "  [REGRESSED]"
        return (
            f"{self.metric:>16}: {self.baseline:>14.4f} -> "
            f"{self.current:>14.4f}  ({ratio}){flag}"
        )


def anchor_delta(metric: str, base: float, cur: float) -> MetricDelta:
    """The comparison row of one result anchor.

    The simulators are deterministic, so an anchor is compared bit for
    bit: any difference at all is drift, never noise.
    """
    return MetricDelta(
        metric=metric,
        baseline=base,
        current=cur,
        ratio=(cur / base) if base else None,
        regressed=False,
        drift=cur != base,
    )


def compare_records(
    current: BenchRecord,
    baseline: BenchRecord,
    threshold: float,
) -> List[MetricDelta]:
    """Per-metric deltas of ``current`` against ``baseline``.

    ``threshold`` is the tolerated relative change (0.25 = 25%):
    throughput metrics regress when ``current < baseline * (1 - t)``,
    cost metrics when ``current > baseline * (1 + t)``. Mismatched
    scenario identities raise; mismatched result anchors are returned
    as drift rows.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    for field in ("scenario", "simulator", "policy", "cache",
                  "num_jobs", "num_gpus"):
        mine, theirs = getattr(current, field), getattr(baseline, field)
        if mine != theirs:
            raise ValueError(
                f"cannot compare: {field} differs "
                f"(current={mine!r}, baseline={theirs!r})"
            )
    deltas: List[MetricDelta] = [
        anchor_delta(
            metric,
            float(getattr(baseline, metric)),
            float(getattr(current, metric)),
        )
        for metric in ANCHOR_METRICS
    ]
    for metric in THROUGHPUT_METRICS:
        base = float(getattr(baseline, metric))
        cur = float(getattr(current, metric))
        deltas.append(
            MetricDelta(
                metric=metric,
                baseline=base,
                current=cur,
                ratio=(cur / base) if base else None,
                regressed=cur < base * (1.0 - threshold),
            )
        )
    for metric in COST_METRICS:
        base = float(getattr(baseline, metric))
        cur = float(getattr(current, metric))
        deltas.append(
            MetricDelta(
                metric=metric,
                baseline=base,
                current=cur,
                ratio=(cur / base) if base else None,
                regressed=base > 0 and cur > base * (1.0 + threshold),
            )
        )
    return deltas


def has_failures(deltas: List[MetricDelta]) -> bool:
    """Whether any delta row should fail a ``--compare`` run."""
    return any(d.regressed or d.drift for d in deltas)


# ----------------------------------------------------------------------
# Generic benchmark artifacts (``benchmarks/results/*.json``).
# ----------------------------------------------------------------------


def benchmark_artifact(name: str, kind: str, data) -> dict:
    """Wrap a benchmark payload in the versioned artifact envelope.

    ``kind`` names the payload shape (``"table"`` for rendered report
    text, ``"cells"`` for sweep-cell lists, ...); ``data`` must be
    JSON-serialisable.
    """
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "name": name,
        "kind": kind,
        "created_utc": utc_now_iso(),
        "host": host_fingerprint(),
        "data": data,
    }


def write_benchmark_artifact(name: str, kind: str, data, directory) -> Path:
    """Persist one enveloped artifact as ``<directory>/<name>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(
        json.dumps(benchmark_artifact(name, kind, data), indent=2) + "\n"
    )
    return path


def load_benchmark_artifact(path) -> dict:
    """Load and validate one enveloped benchmark artifact."""
    raw = json.loads(Path(path).read_text())
    if raw.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: artifact schema version "
            f"{raw.get('schema_version')!r} is not the supported "
            f"{ARTIFACT_SCHEMA_VERSION}"
        )
    return raw
