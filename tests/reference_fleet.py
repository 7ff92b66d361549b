"""Reference oracle for the fleet event loop: one heap event per round.

:class:`ReferenceFleetSimulator` replaces only ``FleetSimulator._run_loop``
with the seed loop: every gang round is its own heap event, and the
queue is a plain list scanned in FIFO order.  The product loop must give
byte-identical ``FleetResult.to_dict(include_overhead=False)`` and the
same fleet tracker.  The oracle does not checkpoint, and its
``events_processed`` counts rounds, not segment ends.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Iterator

from repro.core.interference import InterferenceTracker
from repro.fleet import faults as faultlib
from repro.fleet.arrivals import AdmissionController
from repro.fleet.estimates import scale_step_time
from repro.fleet.faults import FaultInjector, FaultInstant
from repro.fleet.job import Job
from repro.fleet.simulator import (
    _ARRIVAL,
    _EXPIRE,
    _FAULT,
    _ROUND_END,
    FleetSimulator,
    FleetStalled,
    JobCompletion,
    JobFailure,
    JobRejection,
    _QueueDepthLog,
)
from repro.fleet.state import FleetState, MachineState, Placement


class ReferenceFleetSimulator(FleetSimulator):
    """A :class:`~repro.fleet.FleetSimulator` running the seed
    one-event-per-round loop."""

    def _run_loop(
        self,
        stream: Iterator[Job],
        machines: list[MachineState],
        injector: FaultInjector,
        controller: AdmissionController,
    ) -> tuple:
        if self._ckpt is not None or self._resume_payload is not None:
            raise NotImplementedError("the reference fleet loop does not checkpoint")
        by_id = {m.machine_id: m for m in machines}
        queue: list[Job] = []
        placements: list[Placement] = []
        completions: list[JobCompletion] = []
        failures: list[JobFailure] = []
        rejections: list[JobRejection] = []
        depth_log = _QueueDepthLog(self.series_window)
        queue_limit = controller.queue_limit
        drop_oldest = controller.drop_oldest
        deadline = controller.deadline
        offered = 0
        start_times: dict[str, float] = {}
        #: Execution attempts per job.  Entries exist only for jobs a
        #: crash has requeued (or failed): completions read
        #: ``attempts.get(name, 1)``, and a *missing* entry marks the job
        #: still deadline-eligible (a retried job is exempt).
        attempts: dict[str, int] = {}
        #: Remaining steps of requeued jobs: a crash/preempt restores the
        #: job's progress to the last completed round boundary, and its
        #: next placement resumes from here instead of ``num_steps``.
        remaining_override: dict[str, int] = {}
        max_retries = injector.max_retries
        overhead = 0.0
        now = 0.0
        seq = 0
        events_processed = 0

        #: (time, kind, seq, payload) — kind orders round-ends before
        #: faults before deadline expiries before arrivals at equal
        #: timestamps, seq keeps FIFO among equals (fault instants replay
        #: in plan order).  Arrivals are pulled lazily: exactly one
        #: future arrival lives in the heap, and popping it pushes the
        #: next — heap order is decided by (time, kind) before seq, and
        #: equal-time arrivals keep their relative push order, so the
        #: outcome is byte-identical to pushing the whole trace up front.
        events: list[tuple[float, int, int, object]] = []

        def push_next_arrival() -> None:
            nonlocal seq
            job = next(stream, None)
            if job is not None:
                heapq.heappush(events, (job.arrival_time, _ARRIVAL, seq, job))
                seq += 1

        push_next_arrival()
        for instant in injector.timeline():
            heapq.heappush(events, (instant.time, _FAULT, seq, instant))
            seq += 1

        def reject(job: Job, reason: str) -> None:
            rejections.append(
                JobRejection(
                    job=job.name,
                    kind=job.kind,
                    arrival_time=job.arrival_time,
                    rejected_time=now,
                    reason=reason,
                )
            )

        def shed(job: Job, reason: str) -> None:
            # The job just left the central queue unserved; any progress
            # restored from an earlier preemption dies with it.
            remaining_override.pop(job.name, None)
            reject(job, reason)
            depth_log.record(now, len(queue))

        def fleet_state() -> FleetState:
            # Read the dirty-flag cache directly: a thousand-machine fleet
            # pays one method call per *touched* machine instead of one
            # per machine per placement.
            return FleetState(
                time=now,
                machines=tuple(m._view_cache or m.view() for m in machines),
                queue=tuple(queue),
                queue_limit=queue_limit,
            )

        def start_round(machine: MachineState) -> None:
            machine.residents.extend(machine.waiting)
            machine.waiting.clear()
            machine.touch()
            if not machine.residents:
                return
            for job in machine.residents:
                start_times.setdefault(job.name, now)
            base = self.estimator.step_time(machine.machine_name, machine.residents)
            machine.round_base = base
            round_time = scale_step_time(base, machine.straggle)
            machine.round_time = round_time
            machine.busy_until = now + round_time
            machine.round_active = True
            # Round-end events tie-break on the machine's stable numeric
            # index (machine ids are dense ``m<index>``), not a global
            # sequence counter: equal-instant round ends then replay in
            # an order reconstructible from per-machine state alone,
            # which the compressed loop's boundary calendar relies on.
            heapq.heappush(
                events,
                (machine.busy_until, _ROUND_END, int(machine.machine_id[1:]),
                 (machine.machine_id, machine.epoch)),
            )

        def finish_round(machine: MachineState) -> None:
            machine.round_active = False
            residents = list(machine.residents)
            # The round completed: only now does it count (an aborted
            # round contributes to lost_steps instead).
            machine.busy_time += machine.round_time
            machine.rounds += 1
            if len(residents) > 1:
                machine.corun_rounds += 1
            # Observe pairing slowdowns before anyone departs.  The
            # *unscaled* duration is compared against the solo estimates:
            # a straggling machine is uniformly slow, not a bad pairing.
            if len(residents) > 1:
                duration = machine.round_base
                delta = InterferenceTracker(threshold=self.tracker.threshold)
                solos = {
                    job.name: self.estimator.solo_time(machine.machine_name, job)
                    for job in residents
                }
                for i, job_a in enumerate(residents):
                    for job_b in residents[i + 1 :]:
                        baseline = max(solos[job_a.name], solos[job_b.name])
                        slowdown = duration / baseline - 1.0 if baseline > 0 else 0.0
                        delta.record(job_a.kind, job_b.kind, slowdown)
                snapshot = delta.snapshot()
                machine.tracker.merge(snapshot)
                self.tracker.merge(snapshot)
            # Advance every resident by one step; retire the finished.
            still_running: list[Job] = []
            for job in residents:
                remaining = machine.remaining_steps[job.name] - 1
                machine.remaining_steps[job.name] = remaining
                if remaining <= 0:
                    del machine.remaining_steps[job.name]
                    completions.append(
                        JobCompletion(
                            job=job.name,
                            kind=job.kind,
                            machine_id=machine.machine_id,
                            arrival_time=job.arrival_time,
                            start_time=start_times.pop(job.name),
                            finish_time=now,
                            num_steps=job.num_steps,
                            attempts=attempts.get(job.name, 1),
                        )
                    )
                else:
                    still_running.append(job)
            machine.residents = still_running
            machine.touch()
            if machine.draining and not machine.residents and not machine.waiting:
                machine.alive = False
                machine.draining = False
                machine.dead_since = now

        def dispatch() -> None:
            nonlocal overhead
            # FIFO over the queue; a job the policy declines stays queued
            # (later jobs may still fit — no head-of-line blocking).
            for job in list(queue):
                state = fleet_state()
                tick = _time.perf_counter()
                choice = self.policy.place(job, state)
                overhead += _time.perf_counter() - tick
                if choice is None:
                    continue
                machine = by_id[choice]
                if machine.free_slots <= 0:
                    raise RuntimeError(
                        f"policy {self.policy.name!r} placed {job.name!r} on full "
                        f"machine {choice!r}"
                    )
                queue.remove(job)
                depth_log.record(now, len(queue))
                machine.waiting.append(job)
                machine.remaining_steps[job.name] = remaining_override.pop(
                    job.name, job.num_steps
                )
                machine.touch()
                placements.append(
                    Placement(
                        job=job.name, kind=job.kind, machine_id=choice, time=now
                    )
                )
                if not machine.round_active:
                    start_round(machine)

        def fail_job(job: Job, time: float, count: int) -> None:
            attempts[job.name] = count
            remaining_override.pop(job.name, None)
            failures.append(
                JobFailure(
                    job=job.name,
                    kind=job.kind,
                    arrival_time=job.arrival_time,
                    attempts=count,
                    failed_time=time,
                )
            )

        def abort_round(machine: MachineState) -> None:
            """Discard an in-flight round: every resident loses the step
            in progress, and the pending round-end event goes stale."""
            if machine.round_active:
                machine.lost_steps += len(machine.residents)
                machine.round_active = False
                machine.epoch += 1
                machine.busy_until = now
                machine.touch()

        def check_drained(machine: MachineState) -> None:
            if machine.draining and not machine.residents and not machine.waiting:
                machine.alive = False
                machine.draining = False
                machine.dead_since = now
                machine.touch()

        def requeue(job: Job, machine: MachineState) -> None:
            """Crash path: send the job back with retry budget burned,
            or fail it if the budget is gone."""
            count = attempts.get(job.name, 1)
            if count >= max_retries:
                fail_job(job, now, count)
            else:
                attempts[job.name] = count + 1
                machine.retries += 1
                queue.append(job)
                depth_log.record(now, len(queue))

        def apply_fault(instant: FaultInstant) -> list[MachineState]:
            """Apply one fault instant; returns machines whose surviving
            residents must restart a round (after the dispatch pass)."""
            event = instant.event
            action = instant.action
            restart: list[MachineState] = []
            if action == faultlib.JOIN:
                new = MachineState(
                    machine_id=f"m{len(machines)}",
                    machine_name=event.machine_name,
                    capacity=self.max_corun,
                    tracker=InterferenceTracker(threshold=self.tracker.threshold),
                    joined_at=now,
                )
                machines.append(new)
                by_id[new.machine_id] = new
                return restart
            if action == faultlib.PREEMPT:
                for machine in machines:
                    if not machine.alive:
                        continue
                    resident = next(
                        (j for j in machine.residents if j.name == event.job), None
                    )
                    if resident is not None:
                        abort_round(machine)
                        machine.residents.remove(resident)
                        remaining_override[resident.name] = machine.remaining_steps.pop(
                            resident.name
                        )
                        machine.preemptions += 1
                        machine.touch()
                        queue.append(resident)
                        depth_log.record(now, len(queue))
                        check_drained(machine)
                        if machine.alive:
                            restart.append(machine)
                        return restart
                    waiter = next(
                        (j for j in machine.waiting if j.name == event.job), None
                    )
                    if waiter is not None:
                        machine.waiting.remove(waiter)
                        remaining_override[waiter.name] = machine.remaining_steps.pop(
                            waiter.name
                        )
                        machine.preemptions += 1
                        machine.touch()
                        queue.append(waiter)
                        depth_log.record(now, len(queue))
                        check_drained(machine)
                        return restart
                return restart  # queued / finished / unknown job: no-op
            machine = by_id[event.machine]
            if not machine.alive:
                return restart  # faults on dead machines are no-ops
            if action == faultlib.CRASH:
                abort_round(machine)
                members = machine.residents + machine.waiting
                machine.residents = []
                machine.waiting = []
                for job in members:
                    remaining_override[job.name] = machine.remaining_steps.pop(job.name)
                    requeue(job, machine)
                machine.alive = False
                machine.accepting = False
                machine.draining = False
                machine.dead_since = now
                machine.touch()
            elif action == faultlib.LEAVE:
                machine.accepting = False
                if not machine.residents and not machine.waiting:
                    machine.alive = False
                    machine.dead_since = now
                else:
                    machine.draining = True
                machine.touch()
            elif action == faultlib.STRAGGLER_START:
                machine.straggle = machine.straggle + (event.factor,)
            elif action == faultlib.STRAGGLER_END:
                factors = list(machine.straggle)
                if event.factor in factors:
                    factors.remove(event.factor)
                machine.straggle = tuple(factors)
            return restart

        while events:
            event_time, kind, _, payload = heapq.heappop(events)
            now = event_time
            if kind == _ARRIVAL:
                events_processed += 1
                push_next_arrival()
                job: Job = payload  # type: ignore[assignment]
                offered += 1
                if queue_limit is not None and len(queue) >= queue_limit:
                    if drop_oldest:
                        shed(queue.pop(0), "drop-oldest")
                    else:
                        # The queue is untouched, so nothing to dispatch
                        # and no deadline timer to arm.
                        reject(job, "reject-at-arrival")
                        continue
                queue.append(job)
                depth_log.record(now, len(queue))
                if deadline is not None:
                    heapq.heappush(events, (now + deadline, _EXPIRE, seq, job))
                    seq += 1
                dispatch()
            elif kind == _FAULT:
                events_processed += 1
                restart = apply_fault(payload)  # type: ignore[arg-type]
                dispatch()
                for machine in restart:
                    if not machine.round_active and (
                        machine.residents or machine.waiting
                    ):
                        start_round(machine)
            elif kind == _EXPIRE:
                job = payload  # type: ignore[assignment]
                # Stale timer: the job left the queue (placed, finished,
                # shed) or bought a retry — crash-requeued jobs are
                # exempt from their original deadline.
                if job.name in attempts or job not in queue:
                    continue
                events_processed += 1
                queue.remove(job)
                shed(job, "deadline-expire")
                dispatch()
            else:
                machine_id, epoch = payload  # type: ignore[misc]
                machine = by_id[machine_id]
                if epoch != machine.epoch:
                    continue  # round aborted by a fault: event is stale
                events_processed += 1
                finish_round(machine)
                dispatch()
                if not machine.round_active:
                    start_round(machine)

        if queue:
            if any(m.accepting for m in machines):
                stuck = [job.name for job in queue]
                raise FleetStalled(
                    f"fleet simulation stalled with {len(queue)} jobs queued "
                    f"(policy {self.policy.name!r} kept declining placements): "
                    + ", ".join(stuck),
                    stuck,
                )
            # Dead fleet: no machine can ever accept again.  Abandon the
            # stranded jobs as failures (charged their full retry budget)
            # instead of spinning or deadlocking.
            for job in queue:
                fail_job(job, now, max_retries)
            queue.clear()
            depth_log.record(now, 0)
        return (
            completions,
            placements,
            failures,
            rejections,
            depth_log.finish(),
            offered,
            overhead,
            events_processed,
        )
