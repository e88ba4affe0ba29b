"""Self-time arithmetic, the Chrome trace, and transparent wrappers."""

import pytest

from perfbench.spans import (
    Instrumentation,
    SpanRecorder,
    chrome_trace,
    self_times,
    summarize,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        ["p", 0.0, 10.0, -1],
        ["x", 2.0, 6.0, 0],
        ["y", 4.0, 8.0, 0],   # overlaps x: union is [2, 8]
        ["z", 9.0, 12.0, 0],  # sticks out of p: only [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_and_summarizes():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    outer = rec.open("sim.step")
    clock.now = 1.0
    inner = rec.open("core.schedule")
    clock.now = 3.0
    rec.close(inner)
    clock.now = 4.0
    rec.close(outer)
    summary = summarize(rec.spans)
    assert summary["sim.step"]["total_s"] == 4.0
    assert summary["sim.step"]["self_s"] == 2.0
    assert summary["core.schedule"]["self_s"] == 2.0
    assert summary["sim.step"]["durations_s"] == [4.0]
    # Self times of all layers add up to the root's wall time.
    assert sum(e["self_s"] for e in summary.values()) == 4.0


def test_recorder_rejects_out_of_order_close():
    rec = SpanRecorder(clock=FakeClock())
    first = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(first)


def test_chrome_trace_has_complete_events_in_microseconds():
    spans = [["sim.step", 5.0, 5.5, -1], ["core.schedule", 5.1, 5.2, 0]]
    trace = chrome_trace(spans, pid=3, label="x")
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["sim.step", "core.schedule"]
    assert events[0]["ts"] == 0.0
    assert events[0]["dur"] == pytest.approx(500_000.0)
    assert events[1]["ts"] == pytest.approx(100_000.0)
    assert events[1]["args"]["parent"] == 0
    assert trace["otherData"] == {"spans": 2, "written": 2}


def test_instrumentation_is_transparent_and_removable():
    from perfbench.workloads import Scenario, anchors
    from repro.sim.fluid import FluidSimulator

    scenario = Scenario("tiny", "fluid", 30, 16, ("sjf",))
    jobs = scenario.trace(7)

    def run():
        sim = scenario.simulator_for("sjf", jobs)
        return anchors(sim, sim.run())

    plain = run()
    original = FluidSimulator.__dict__["step"]
    rec = SpanRecorder()
    inst = Instrumentation(rec)
    inst.install()
    try:
        traced = run()
    finally:
        inst.uninstall()
    assert traced == plain
    assert FluidSimulator.__dict__["step"] is original
    summary = summarize(rec.spans)
    assert summary["sim.step"]["calls"] == plain["events"] + 1
    assert summary["core.schedule"]["calls"] == plain["rounds"]
    assert rec.counts["core.sjf_score.calls"] > 0


def test_inherited_and_missing_targets(monkeypatch):
    import sys
    import types

    from perfbench import spans

    module = types.ModuleType("perfbench_fake_target")

    class Base:
        def work(self):
            return 7

    class Child(Base):
        pass

    module.Child = Child
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(spans, "TARGETS", (
        (module.__name__, "Child.work", "fake.work", "span"),
        (module.__name__, "Child.gone", "fake.gone", "span"),
    ))
    rec = SpanRecorder()
    inst = Instrumentation(rec)
    inst.install()
    try:
        assert Child().work() == 7
        assert Base().work() == 7  # only the named class is wrapped
    finally:
        inst.uninstall()
    assert inst.missing == [f"{module.__name__}.Child.gone"]
    assert "work" not in Child.__dict__
    assert [span[0] for span in rec.spans] == ["fake.work"]
