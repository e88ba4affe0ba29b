"""BENCHMARK.json names exactly the metrics the command prints."""

import json
from pathlib import Path

from perfbench import run
from perfbench.layers import LAYER_METRICS
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_command():
    spec = _spec()
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_metrics_match_the_command():
    declared = [(m["name"], m["unit"]) for m in _spec()["per_layer"]]
    printed = [(name, unit) for name, unit, _ in LAYER_METRICS]
    assert declared == printed + [("trace.overhead_frac", "ratio")]


def test_workloads_match():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)
