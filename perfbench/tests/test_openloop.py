"""The open-loop timer counts latency from the due time."""

from perfbench.openloop import OpenLoop


class FakeTime:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_on_time_request_waits_for_its_due_time():
    t = FakeTime()
    loop = OpenLoop(clock=t.clock, sleep=t.sleep)
    loop.start()

    def request():
        t.now += 0.25
        return "ok"

    result, timing = loop.call(2.0, request)
    assert result == "ok"
    assert t.slept == [2.0]
    assert timing.generator_lag_s == 0.0
    assert timing.latency_s == 0.25


def test_stall_is_charged_to_the_requests_it_delayed():
    t = FakeTime()
    loop = OpenLoop(clock=t.clock, sleep=t.sleep)
    loop.start()

    def slow():
        t.now += 5.0  # the server stalls for five seconds

    def fast():
        t.now += 0.5

    loop.call(0.0, slow)
    _, late = loop.call(1.0, fast)  # due at 1 s, sent at 5 s
    assert late.generator_lag_s == 4.0
    assert late.latency_s == 4.5  # from due time, not from send time
    assert [tm.latency_s for tm in loop.timings] == [5.0, 4.5]


def test_the_last_stretch_before_a_due_time_is_spent_awake():
    t = FakeTime()
    spins = []

    def spin():
        spins.append(t.now)
        t.now += 0.0005

    loop = OpenLoop(clock=t.clock, sleep=t.sleep, spin_s=0.002, spin=spin)
    loop.start()
    _, timing = loop.call(1.0, lambda: None)
    assert t.slept == [0.998]
    assert len(spins) == 4
    assert timing.sent_s >= timing.due_s
