"""The job lifecycle both simulators share.

:class:`SimulatorCore` is the base of :class:`repro.sim.fluid.FluidSimulator`
and :class:`repro.sim.minibatch.MinibatchEmulator`. It owns what a job
goes through in either of them — arrival, admission, the scheduling
round's start/alloc-change bookkeeping, fault application, cancellation,
retirement, sampling and the final result — plus the stepped protocol
``begin()`` / ``step(limit_s)`` / ``finish()`` that ``run`` and
``repro.serve`` drive. Each subclass keeps only its data plane (the
fluid job table, rates and residency store; or the minibatch per-item
pipeline and item caches) and its own ``step``, and reaches the core
through the hooks at the end of :class:`SimulatorCore`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.base import CacheSystem, StorageDecision
from repro.cluster.hardware import Cluster
from repro.cluster.job import Job
from repro.core.policies.gavel import fairness_ratio
from repro.core.resources import Allocation, ResourceVector
from repro.core.silod import SiloDScheduler
from repro.faults.injector import FaultInjector
from repro.faults.spec import ScheduleLike, as_schedule
from repro.obs.slo import SLOTracker
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.metrics import JobRecord, RunResult, TimelineSample

#: Steps ``run`` takes before it gives up on a runaway simulation.
_MAX_STEPS = 20_000_000


class SimulatorCore:
    """Job lifecycle shared by the fluid simulator and minibatch emulator.

    Subclasses call ``super().__init__`` with the arguments common to
    both constructors, set up their data plane, and implement ``step``
    and the data-plane hooks at the end of this class.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SiloDScheduler,
        cache_system: CacheSystem,
        jobs: Sequence[Job],
        sample_interval_s: float,
        max_time_s: Optional[float],
        faults: ScheduleLike,
        tracer: Optional[Tracer],
    ) -> None:
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")
        #: Every id ever seen (trace + online submissions) — duplicate
        #: submissions are rejected for the life of the simulator, even
        #: after the original job finished.
        self._known_ids = set(ids)
        self.cluster = cluster
        self.scheduler = scheduler
        self.cache_system = cache_system
        # Adopt the cluster's GPU-generation mix (no-op numerics on
        # homogeneous fleets; installs the het estimator on mixed ones).
        scheduler.enable_heterogeneity(cluster)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            scheduler.tracer = tracer
        self.total = ResourceVector(
            gpus=cluster.total_gpus,
            cache_mb=cluster.total_cache_mb,
            remote_io_mbps=cluster.remote_io_mbps,
        )
        self._trace = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
        self._sample_interval_s = sample_interval_s
        self._max_time_s = max_time_s
        schedule = as_schedule(faults)
        self._injector = (
            FaultInjector(schedule, cluster, tracer=self._tracer)
            if schedule is not None
            else None
        )
        #: The pristine capacity vector churn is measured against; when a
        #: fault schedule is active, ``self.total`` is rebuilt from it.
        self._base_total = self.total
        #: Jobs held out of scheduling by an explicit ``job_preempt``.
        self._blocked: set = set()

        #: Units of simulated work (``repro bench`` events/sec): fluid
        #: event-loop iterations, or emulated minibatch training steps.
        self.loop_events = 0
        #: Scheduling rounds run (``repro bench`` rounds/sec).
        self.sched_rounds = 0
        #: Storage-decision rounds run; every round gets a unique index
        #: in the ``decision_epoch``/``decision_job`` provenance events.
        self.decision_rounds = 0
        #: Deadline (``deadline_s``) watcher; checked only from the
        #: simulation loop so warn/violation sequences are deterministic.
        self._slo = SLOTracker(self._tracer)

        self.clock_s = 0.0
        self._arrival_idx = 0
        #: Per-job state of admitted, unfinished jobs (``_admit``'s).
        self._active: Dict[str, object] = {}
        self._finished: List[object] = []
        self._allocation = Allocation()
        self._decision = StorageDecision({}, {}, {})
        self._timeline: List[TimelineSample] = []
        #: Next timeline sample time (``step`` advances it).
        self._next_sample = 0.0
        self._begun = False

    # ------------------------------------------------------------------
    # The stepped protocol (``repro.serve`` drives it one step at a time).
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to completion (or ``max_time_s``) and return the result."""
        self.begin()
        for _ in range(_MAX_STEPS):
            if not self.step():
                break
        else:
            raise RuntimeError("simulation exceeded the step budget")
        return self.finish()

    def begin(self) -> None:
        """Arm the loop (idempotent; ``run`` calls it for you).

        ``run`` is exactly ``begin()``, then ``step()`` until it returns
        ``False``, then ``finish()``; ``repro.serve`` drives the same
        three methods against a virtual clock, so online and batch
        execution share a single code path.
        """
        if self._begun:
            return
        self._begun = True
        self.cache_system.reset()

    def step(self, limit_s: Optional[float] = None) -> bool:
        """Process the next step; ``False`` when nothing (more) happened."""
        raise NotImplementedError

    def finish(self) -> RunResult:
        """Final sample + counters; returns the run's result."""
        self._sample()
        self._publish_counters()
        return self._result()

    def _done(self) -> bool:
        return self._arrival_idx >= len(self._trace) and not self._active

    def _publish_counters(self) -> None:
        """Push the run's loop/round totals into the obs registry.

        ``repro bench`` reads these through a fresh (disabled)
        ``NullTracer`` — counting costs nothing in the hot loop and the
        shared :data:`~repro.obs.tracer.NULL_TRACER` singleton is never
        written.
        """
        if self._tracer is NULL_TRACER:
            return
        self._tracer.metrics.inc("sim.events", float(self.loop_events))
        self._tracer.metrics.inc("sim.sched_rounds", float(self.sched_rounds))

    # ------------------------------------------------------------------
    # Online mutation (``repro.serve``).
    # ------------------------------------------------------------------

    def submit_job(self, job: Job) -> None:
        """Inject a job into the pending trace (online admission).

        The job is inserted in ``(submit_time_s, job_id)`` order among
        the not-yet-admitted tail, so the admission sequence — and with
        it every order-sensitive downstream structure, such as the
        minibatch shuffle seeds hanging off the admission index — is
        identical to a batch run whose trace held the job from the start.
        """
        if job.job_id in self._known_ids:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        self._known_ids.add(job.job_id)
        key = (job.submit_time_s, job.job_id)
        lo, hi = self._arrival_idx, len(self._trace)
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self._trace[mid]
            if (probe.submit_time_s, probe.job_id) <= key:
                lo = mid + 1
            else:
                hi = mid
        self._trace.insert(lo, job)

    def cancel_job(self, job_id: str, reason: str = "user") -> bool:
        """Withdraw a job (online cancellation); ``True`` if it existed.

        A still-pending job is removed from the trace; an active one
        retires immediately with no finish time, and ``_cancel_active``
        releases its data-plane state (the fluid simulator re-runs the
        scheduler at once; the minibatch emulator re-allocates at the
        next decision-interval boundary, as it does for faults).
        """
        for idx in range(self._arrival_idx, len(self._trace)):
            if self._trace[idx].job_id == job_id:
                del self._trace[idx]
                self._slo.discard(job_id)
                if self._tracer.enabled:
                    self._tracer.job_cancel(
                        self.clock_s, job_id, reason=reason,
                        work_done_mb=0.0,
                    )
                return True
        state = self._active.pop(job_id, None)
        if state is None:
            return False
        self._finished.append(state)
        self._blocked.discard(job_id)
        self._slo.discard(job_id)
        if self._tracer.enabled:
            self._tracer.job_cancel(
                self.clock_s, job_id, reason=reason,
                work_done_mb=self._work_done_mb(state),
            )
        self._cancel_active(job_id, state)
        return True

    # ------------------------------------------------------------------
    # Arrival, retirement and faults.
    # ------------------------------------------------------------------

    def _admit_arrivals(self) -> bool:
        """Admit every trace job due by now; ``True`` if any arrived."""
        admitted = False
        while (
            self._arrival_idx < len(self._trace)
            and self._trace[self._arrival_idx].submit_time_s
            <= self.clock_s + 1e-9
        ):
            job = self._trace[self._arrival_idx]
            self._arrival_idx += 1
            self._active[job.job_id] = self._admit(job)
            if self._tracer.enabled:
                self._tracer.job_submit(
                    job.submit_time_s,
                    job.job_id,
                    model=job.model,
                    dataset=job.dataset.name,
                    num_gpus=job.num_gpus,
                    dataset_mb=job.dataset.size_mb,
                    total_work_mb=job.total_work_mb,
                    deadline_s=job.deadline_s,
                )
            self._slo.register(
                job.job_id, job.submit_time_s, job.deadline_s
            )
            admitted = True
        return admitted

    def _retire(self, job_id: str, finish_s: float) -> None:
        """Move a completed job from the active set to the finished list."""
        state = self._active.pop(job_id)
        self._finished.append(state)
        if self._tracer.enabled:
            self._tracer.job_finish(
                finish_s,
                job_id,
                jct_s=finish_s - state.job.submit_time_s,
                epochs_done=self._epoch_of(state),
            )
        self._slo.finish(job_id, finish_s)

    def _apply_fault_schedule(self) -> bool:
        """Apply due ``repro.faults`` schedule entries (churn model).

        Returns ``True`` when any fault landed. The fluid simulator then
        re-runs the scheduler in the same round (faults take hold at
        their exact time); the minibatch emulator sees them at the first
        decision-interval boundary at or after their time, and the
        reschedule every interval runs re-allocates on the new capacity.
        """
        if self._injector is None:
            return False
        due = self._injector.pop_due(self.clock_s)
        if not due:
            return False
        for event in due:
            effect = self._injector.apply(event, self.clock_s)
            if effect.evict_fraction > 0:
                self._invalidate_fraction(
                    effect.evict_fraction, cause=event.kind
                )
            if effect.preempt_gpus > 0:
                victims = self._injector.select_victims(
                    {
                        job_id: self._allocation.gpus_of(job_id)
                        for job_id in self._active
                    },
                    effect.preempt_gpus,
                )
                for job_id in victims:
                    self._preempt_job(job_id, reason=event.kind)
            if event.kind == "job_preempt" and effect.job_id in self._active:
                self._blocked.add(effect.job_id)
                self._preempt_job(effect.job_id, reason=event.kind)
            elif event.kind == "job_restart":
                self._blocked.discard(effect.job_id)
                if self._tracer.enabled and effect.job_id in self._active:
                    self._tracer.job_restart(
                        self.clock_s,
                        effect.job_id,
                        reason=event.kind,
                        epoch=self._epoch_of(self._active[effect.job_id]),
                    )
        self.total = self._injector.effective_total(self._base_total)
        self._capacity_changed()
        return True

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------

    def _reschedule(self) -> None:
        """Run the policy, start newly granted jobs, decide storage."""
        self.sched_rounds += 1
        jobs = [
            state.job
            for state in self._active.values()
            if state.job.job_id not in self._blocked
        ]
        tracer = self._tracer
        old_gpus = dict(self._allocation.gpus) if tracer.enabled else {}
        self._allocation = self.scheduler.schedule(
            jobs, self.total, now_s=self.clock_s, **self._schedule_inputs()
        )
        self._allocation_changed()
        if tracer.enabled:
            start_candidates = self._active.values()
        else:
            # Only granted jobs can start; walking the (short) grant dict
            # beats scanning the whole active set. State outcomes are
            # identical — starts are independent per job — but the
            # traced path keeps active-set order for stable event order.
            start_candidates = [
                self._active[job_id]
                for job_id, gpus in self._allocation.gpus.items()
                if gpus > 0 and job_id in self._active
            ]
        for state in start_candidates:
            job_id = state.job.job_id
            if (
                state.start_time_s is None
                and self._allocation.gpus_of(job_id) > 0
            ):
                state.start_time_s = self.clock_s
                key, effective_mb = self._start(state)
                if tracer.enabled:
                    tracer.job_start(
                        self.clock_s,
                        job_id,
                        gpus=self._allocation.gpus_of(job_id),
                        queue_delay_s=self.clock_s - state.job.submit_time_s,
                    )
                    tracer.promote_effective(
                        self.clock_s,
                        job_id,
                        key=key,
                        effective_mb=effective_mb,
                        reason="job_start",
                    )
        if tracer.enabled:
            seen = set(old_gpus) | set(self._allocation.gpus)
            for job_id in sorted(seen):
                if job_id not in self._active:
                    continue
                before = old_gpus.get(job_id, 0.0)
                after = self._allocation.gpus_of(job_id)
                if abs(before - after) > 1e-9:
                    tracer.alloc_change(
                        self.clock_s,
                        job_id,
                        gpus_before=before,
                        gpus_after=after,
                    )
        self._storage_decide()

    # ------------------------------------------------------------------
    # Sampling and results.
    # ------------------------------------------------------------------

    def _append_sample(
        self,
        running: Sequence[Job],
        throughput: Dict[str, float],
        achieved_mbps: float,
        ideal_mbps: float,
        io_used_mbps: float,
        resident_mb: float,
        effective_mb: float,
    ) -> None:
        """Record one timeline sample from the data plane's measures.

        Fairness is measured over the *mature* running jobs (first epoch
        done), whose hit ratios reflect their cache grants.
        """
        mature = [job for job in running if self._first_epoch_done(job)]
        fairness = fairness_ratio(
            mature,
            throughput,
            self.total,
            self.scheduler.estimator,
            storage_aware=True,
            num_jobs=len(running),
        )
        self._timeline.append(
            TimelineSample(
                time_s=self.clock_s,
                running_jobs=len(running),
                queued_jobs=len(self._active) - len(running),
                total_throughput_mbps=achieved_mbps,
                ideal_throughput_mbps=ideal_mbps,
                remote_io_used_mbps=io_used_mbps,
                fairness_ratio=fairness,
                resident_cache_mb=resident_mb,
                effective_cache_mb=effective_mb,
            )
        )

    def _result(self) -> RunResult:
        everything = self._finished + list(self._active.values())
        records = [
            JobRecord(
                job_id=state.job.job_id,
                model=state.job.model,
                dataset=state.job.dataset.name,
                num_gpus=state.job.num_gpus,
                submit_time_s=state.job.submit_time_s,
                start_time_s=state.start_time_s,
                finish_time_s=state.finish_time_s,
            )
            for state in sorted(everything, key=lambda s: s.job.submit_time_s)
        ]
        return RunResult(
            scheduler_name=self.scheduler.policy.name,
            cache_name=self.cache_system.name,
            records=records,
            timeline=self._timeline,
            end_time_s=self.clock_s,
        )

    # ------------------------------------------------------------------
    # Data-plane hooks (see the module docstring).
    # ------------------------------------------------------------------

    def _admit(self, job: Job) -> object:
        """Per-job state of an arriving job (kept in ``_active``)."""
        raise NotImplementedError

    def _work_done_mb(self, state) -> float:
        """MB the job has trained so far."""
        raise NotImplementedError

    def _epoch_of(self, state) -> int:
        """The job's epoch index (``job_finish``/``job_restart``)."""
        raise NotImplementedError

    def _first_epoch_done(self, job: Job) -> bool:
        """Whether an active job finished its first epoch."""
        raise NotImplementedError

    def _cancel_active(self, job_id: str, state) -> None:
        """Release a cancelled active job's data-plane state."""
        raise NotImplementedError

    def _schedule_inputs(self) -> dict:
        """Extra keyword arguments of ``SiloDScheduler.schedule``."""
        raise NotImplementedError

    def _allocation_changed(self) -> None:
        """Follow a new allocation (mirror its GPU generations)."""
        raise NotImplementedError

    def _start(self, state) -> Tuple[str, float]:
        """Set a newly started job's effective bytes from what is resident.

        Returns ``(cache key, effective MB)`` for the ``promote_effective``
        event.
        """
        raise NotImplementedError

    def _storage_decide(self) -> None:
        """The storage decision that ends every scheduling round."""
        raise NotImplementedError

    def _invalidate_fraction(self, fraction: float, cause: str) -> None:
        """A fault destroyed ``fraction`` of every cache's contents."""
        raise NotImplementedError

    def _preempt_job(self, job_id: str, reason: str) -> None:
        """Roll a preempted job back to its last epoch boundary."""
        raise NotImplementedError

    def _capacity_changed(self) -> None:
        """Follow a change of ``self.total`` after faults landed."""
        raise NotImplementedError

    def _sample(self) -> None:
        """Measure the data plane and call :meth:`_append_sample`."""
        raise NotImplementedError
