"""Open-loop request pacing.

An open-loop generator sends each request when it is *due*, whatever
happened to the requests before it. Latency is timed from the due time,
not from the moment the request actually went out, so a stall that
delays later sends is charged to every request it delayed. How late
the generator itself sent (send time minus due time) is reported on
its own, so a slow generator is visible rather than hidden.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, List


@dataclasses.dataclass
class Timing:
    """One request: when it was due, sent and answered (seconds)."""

    due_s: float
    sent_s: float
    done_s: float

    @property
    def latency_s(self) -> float:
        """Due time to answer."""
        return self.done_s - self.due_s

    @property
    def generator_lag_s(self) -> float:
        """How late the request went out."""
        return self.sent_s - self.due_s


class OpenLoop:
    """Waits for due times measured from :meth:`start`, times requests."""

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        spin_s: float = 0.0,
        spin: Callable[[], None] = os.sched_yield,
    ) -> None:
        """``spin_s``: the last this many seconds before a due time are
        spent calling ``spin`` instead of sleeping, so the generator is
        awake when the request is due. On a VM a sleeping process wakes
        late by however long the host takes to wake its vCPU, and that
        would count in every request's latency."""
        self.clock = clock
        self.sleep = sleep
        self.spin_s = spin_s
        self.spin = spin
        self.origin_s = 0.0
        self.timings: List[Timing] = []

    def start(self) -> float:
        """Fix the origin that due offsets count from; returns it."""
        self.origin_s = self.clock()
        return self.origin_s

    def call(self, due_offset_s: float, request: Callable[[], object]):
        """Wait until ``origin + due_offset_s``, run ``request``, time it.

        Returns ``(result, timing)``; the timing is also appended to
        :attr:`timings`. A request that is already overdue is sent at
        once and its latency still counts from its due time.
        """
        due = self.origin_s + due_offset_s
        now = self.clock()
        if due - now > self.spin_s:
            self.sleep(due - now - self.spin_s)
        while self.clock() < due:
            self.spin()
        sent = self.clock()
        result = request()
        timing = Timing(due_s=due, sent_s=sent, done_s=self.clock())
        self.timings.append(timing)
        return result, timing
