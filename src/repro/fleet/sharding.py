"""Sharded fleet engine: machine groups advance between sync points.

The compressed event loop (:meth:`FleetSimulator._run_compressed`) made
one fleet O(mix changes) in *events*, but every event still pays an
O(machines) ``sync_to`` scan to bring the whole fleet to the event's
instant — at 1,000 machines that scan dominates everything.  This module
replaces the scan with **shard calendars** and replaces the global
round-end heap with per-shard boundary heaps:

* Machines are partitioned round-robin into ``shards`` disjoint groups
  (``machine index % shards``, so mid-trace joins land deterministically).
* Each shard owns a boundary heap ``(next boundary, machine index,
  epoch)`` of its *active* machines.  Bringing the fleet to an instant
  pops only the boundaries that are actually due — O(due · log) instead
  of O(machines) — and single-resident segments still batch all their
  due rounds through one bulk flush, so round compression is preserved.
* The only cross-shard coupling is the **fleet-wide interference
  tracker** and the **placement policy** that reads it.  Shard advances
  therefore never touch the fleet tracker directly: every co-run flush
  appends a log entry keyed ``(boundary, machine index)``, and the
  engine k-way merges the per-shard logs and replays them into the
  fleet tracker in exactly the global order the single-process loop
  produces.  (Round-end events tie-break on the stable machine index in
  both existing loops for precisely this reason.)

Synchronisation points — arrivals, fault instants, deadline expiries,
and every round boundary while jobs are queued — are fleet-wide
barriers: the policy must observe a fully flushed fleet before any
placement.  Between two sync points with an **empty queue** there is no
cross-shard dependency at all: each shard flushes its due boundaries and
chains directly into follow-on segments (the estimator is a pure
function, so chained starts need no global state).  Those windows are
what fans out over :class:`~repro.sweep.executor.SweepExecutor`'s
process backend: each worker receives its shard's machine states plus a
snapshot of the shared :class:`~repro.fleet.estimates.StepTimeEstimator`
memo, advances independently, and returns updated states, the ordered
flush log, completion records, and its memo delta — which merge back on
sync.  Workers consult the same on-disk estimate cache (atomic sharded
pickles, see :class:`~repro.sweep.cache.SweepCache`), so a warm cache
means no worker ever recomputes an estimate.

Fan-out engages for the final drain (no future fleet event) and for
sustained wide windows (momentum heuristic on the previous window's due
count); narrow windows advance inline, because shipping machine states
across processes costs more than a handful of flushes.  Placements
bound the parallelism either way: every placement decision is a global
barrier, so a saturated fleet (jobs always queued) degenerates to
serial per-boundary processing — exactly the compressed path's
behaviour, and the same caveat round compression already carries.

The sharded path is **byte-identical** to the single-process compressed
path — ``FleetResult.to_dict(include_overhead=False)`` and the
run-store determinism digest — for any shard count and backend, with or
without fault plans and admission control.  Only overhead fields
(``events_processed``, estimator traffic, scheduler overhead) may
differ.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import TYPE_CHECKING, Iterator

from repro.core.interference import InterferenceTracker
from repro.fleet import faults as faultlib
from repro.fleet.estimates import StepTimeEstimator, scale_step_time
from repro.fleet.faults import FaultInjector, FaultInstant
from repro.fleet.job import Job
from repro.fleet.simulator import (
    _ARRIVAL,
    _EXPIRE,
    _FAULT,
    FleetStalled,
    JobCompletion,
    JobFailure,
    JobRejection,
    _PackCache,
    _QueueDepthLog,
    _unpack_rows,
)
from repro.fleet.state import FleetState, MachineState, Placement
from repro.sweep.cache import SweepCache
from repro.sweep.executor import SweepExecutor, SweepTask
from repro.sweep.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import RuntimeConfig
    from repro.fleet.arrivals import AdmissionController
    from repro.fleet.simulator import FleetSimulator

#: Fan shard advances out to worker processes when the *previous* sync
#: window flushed at least this many boundaries (a cheap momentum
#: heuristic: wide windows cluster, and counting due entries up front
#: would reintroduce the O(machines) scan the calendars remove).
FANOUT_MIN_DUE = 64

#: Default fault tolerance of the shard fan-out.  Shard advances are
#: pure functions of their shipped state, so a crashed or hung worker is
#: always recoverable: retry twice, then degrade to running the shard in
#: the parent.  Quarantine stays off — a quarantined shard would *lose*
#: its machines, which is never an acceptable answer here.
DEFAULT_SHARD_RETRY = RetryPolicy(max_attempts=3, quarantine=False, degrade=True)

#: Completion record produced inside a shard advance, before the parent
#: attaches start time and attempt count (which live in parent state):
#: (job, kind, machine_id, arrival_time, finish_time, num_steps).
_CompletionPartial = tuple[str, str, str, float, float, int]


def _retire(
    machine: MachineState,
    decrement: int,
    finish_time: float,
    completions: list[_CompletionPartial],
) -> None:
    """Sharded mirror of the compressed path's ``retire_residents``.

    Emits completion *partials*: ``start_time``/``attempts`` live in
    parent-side dicts, so the parent fills them in on integration.
    """
    remaining = machine.remaining_steps
    still_running: list[Job] = []
    for job in machine.residents:
        steps = remaining[job.name] - decrement
        remaining[job.name] = steps
        if steps <= 0:
            del remaining[job.name]
            completions.append(
                (
                    job.name,
                    job.kind,
                    machine.machine_id,
                    job.arrival_time,
                    finish_time,
                    job.num_steps,
                )
            )
        else:
            still_running.append(job)
    machine.residents = still_running
    machine.round_active = False
    if machine.draining and not machine.residents and not machine.waiting:
        machine.alive = False
        machine.draining = False
        machine.dead_since = finish_time


def _flush_round(
    machine: MachineState,
    index: int,
    boundary: float,
    log: list,
    completions: list[_CompletionPartial],
) -> None:
    """Replay one co-run boundary; identical accounting to the compressed
    ``flush_round`` except interference records are data tuples
    ``(kind_a, kind_b, slowdown)``: the machine tracker ingests them
    here, the fleet tracker via the merged log replay."""
    records = machine.seg_records
    if records:
        log.append((boundary, index, records, machine.seg_blacklist))
        tracker = machine.tracker
        for kind_a, kind_b, slowdown in records:
            tracker.history_for(kind_a, kind_b).append(slowdown)
        if machine.seg_blacklist:
            for kind_a, kind_b in machine.seg_blacklist:
                tracker.mark_blacklisted(kind_a, kind_b)
            machine.seg_blacklist = ()
    machine.rounds += 1
    if len(machine.residents) > 1:
        machine.corun_rounds += 1
    machine.busy_time += machine.round_time
    machine.seg_rounds_left -= 1
    if machine.seg_rounds_left > 0:
        remaining = machine.remaining_steps
        for job in machine.residents:
            remaining[job.name] -= 1
        machine.busy_until = boundary + machine.round_time
    else:
        _retire(machine, 1, boundary, completions)
    machine.touch()


def _bulk_flush(
    machine: MachineState,
    now_time: float,
    allow_now: bool,
    completions: list[_CompletionPartial],
) -> None:
    """Batch-replay a single-resident segment's due boundaries — the
    bit-exact float loop of the compressed ``bulk_flush``."""
    round_time = machine.round_time
    busy_until = machine.busy_until
    busy_time = machine.busy_time
    left = machine.seg_rounds_left
    flushed = 0
    while left and (busy_until < now_time or (busy_until == now_time and allow_now)):
        busy_time += round_time
        flushed += 1
        left -= 1
        if left:
            busy_until += round_time
    if not flushed:
        return
    machine.busy_time = busy_time
    machine.busy_until = busy_until
    machine.seg_rounds_left = left
    machine.rounds += flushed
    if left:
        remaining = machine.remaining_steps
        for job in machine.residents:
            remaining[job.name] -= flushed
    else:
        _retire(machine, flushed, busy_until, completions)
    machine.touch()


def _start_segment(
    machine: MachineState,
    index: int,
    at: float,
    estimator: StepTimeEstimator,
    threshold: float,
    starts: dict[str, float],
    pending_nonempty: bool,
    heap: list,
) -> None:
    """Sharded mirror of the compressed ``start_segment``.

    Pushes the segment's *next round boundary* (not its end) onto the
    shard calendar; every flush re-pushes the following boundary, so the
    calendar always knows each active machine's next due instant.
    ``starts`` gets first-seen start times (the parent merges them into
    ``start_times`` with setdefault semantics, so a requeued job keeps
    its original start).
    """
    machine.residents.extend(machine.waiting)
    machine.waiting.clear()
    machine.touch()
    if not machine.residents:
        return
    residents = machine.residents
    for job in residents:
        if job.name not in starts:
            starts[job.name] = at
    base = estimator.step_time(machine.machine_name, residents)
    machine.round_base = base
    round_time = scale_step_time(base, machine.straggle)
    machine.round_time = round_time
    machine.busy_until = at + round_time
    machine.round_active = True
    if len(residents) > 1:
        solos = {
            job.name: estimator.solo_time(machine.machine_name, job)
            for job in residents
        }
        records = []
        crossing = []
        for i, job_a in enumerate(residents):
            for job_b in residents[i + 1 :]:
                baseline = max(solos[job_a.name], solos[job_b.name])
                slowdown = base / baseline - 1.0 if baseline > 0 else 0.0
                if slowdown < 0:
                    slowdown = 0.0
                records.append((job_a.kind, job_b.kind, slowdown))
                if slowdown > threshold:
                    crossing.append((job_a.kind, job_b.kind))
        machine.seg_records = tuple(records)
        machine.seg_blacklist = tuple(crossing)
    else:
        machine.seg_records = ()
        machine.seg_blacklist = ()
    rounds = min(machine.remaining_steps[job.name] for job in residents)
    if pending_nonempty:
        rounds = 1
    machine.seg_rounds_left = rounds
    machine.epoch += 1
    heapq.heappush(heap, (machine.busy_until, index, machine.epoch))


def _advance(
    heap: list,
    machines_by_index,
    horizon: float | None,
    inclusive: bool,
    estimator: StepTimeEstimator,
    threshold: float,
    chain: bool,
    log: list,
    completions: list[_CompletionPartial],
    starts: dict[str, float],
) -> int:
    """Advance one shard's calendar to ``horizon`` (``None`` = drain).

    Pops due boundaries in ``(boundary, machine index)`` order — the
    stable global flush order — co-run segments one round at a time,
    single-resident segments in one bulk batch.  With ``chain=True``
    (empty-queue windows only) a completed segment immediately starts
    its follow-on segment, exactly as the compressed loop's round-end
    event would at the same instant.  Stale entries (superseded epoch or
    already-flushed boundary) are dropped lazily.  Returns the number of
    boundary events consumed.
    """
    limit = float("inf") if horizon is None else horizon
    allow_limit = inclusive if horizon is not None else False
    processed = 0
    while heap:
        t, index, epoch = heap[0]
        machine = machines_by_index[index]
        if (
            not machine.round_active
            or machine.epoch != epoch
            or machine.busy_until != t
        ):
            heapq.heappop(heap)
            continue
        if t > limit or (t == limit and not allow_limit):
            break
        heapq.heappop(heap)
        processed += 1
        if machine.seg_records:
            _flush_round(machine, index, t, log, completions)
        else:
            _bulk_flush(machine, limit, allow_limit, completions)
        if machine.round_active:
            heapq.heappush(heap, (machine.busy_until, index, machine.epoch))
        elif chain and (machine.residents or machine.waiting):
            _start_segment(
                machine,
                index,
                machine.busy_until,
                estimator,
                threshold,
                starts,
                False,
                heap,
            )
    return processed


def advance_shard(
    states: list[MachineState],
    horizon: float | None,
    inclusive: bool,
    memo: dict,
    config: "RuntimeConfig",
    threshold: float,
    cache_root: str | None,
    cache_enabled: bool,
) -> tuple:
    """Process-backend shard task: advance a group of machines to
    ``horizon`` in an isolated worker.

    Builds a worker-local :class:`StepTimeEstimator` seeded with the
    parent's memo snapshot and pointed at the shared on-disk estimate
    cache, so chained segment starts reuse estimates instead of
    recomputing them.  Returns ``(states, log, completions, starts,
    memo_delta, stats_delta, processed)`` for the parent to merge.
    """
    cache = SweepCache(root=cache_root, enabled=cache_enabled)
    executor = SweepExecutor(backend="serial", cache=cache)
    estimator = StepTimeEstimator(
        executor=executor, config=config, _memo=dict(memo)
    )
    by_index = {int(m.machine_id[1:]): m for m in states}
    heap = [
        (m.busy_until, int(m.machine_id[1:]), m.epoch)
        for m in states
        if m.round_active
    ]
    heapq.heapify(heap)
    log: list = []
    completions: list[_CompletionPartial] = []
    starts: dict[str, float] = {}
    processed = _advance(
        heap, by_index, horizon, inclusive, estimator, threshold,
        True, log, completions, starts,
    )
    shipped = set(memo)
    delta = {k: v for k, v in estimator._memo.items() if k not in shipped}
    return states, log, completions, starts, delta, estimator.stats, processed


def run_sharded(
    sim: "FleetSimulator",
    stream: Iterator[Job],
    machines: list[MachineState],
    injector: FaultInjector,
    controller: "AdmissionController",
) -> tuple:
    """Sharded drop-in for ``FleetSimulator._run_compressed``.

    Same inputs, same 8-tuple, byte-identical deterministic outcome; see
    the module docstring for the calendar/merge model.
    """
    num_shards = sim.shards
    backend = sim.shard_backend
    estimator = sim.estimator
    fleet_tracker = sim.tracker
    threshold = fleet_tracker.threshold

    by_id = {m.machine_id: m for m in machines}
    shard_members: list[list[int]] = [[] for _ in range(num_shards)]
    for index in range(len(machines)):
        shard_members[index % num_shards].append(index)
    #: One boundary calendar per shard: (next boundary, machine index,
    #: epoch) of the shard's active machines, stale entries lazily
    #: dropped (epoch bumped, or boundary already flushed).
    shard_heaps: list[list[tuple[float, int, int]]] = [
        [] for _ in range(num_shards)
    ]

    pending: dict[str, Job] = {}
    placements: list[Placement] = []
    completions: list[JobCompletion] = []
    failures: list[JobFailure] = []
    rejections: list[JobRejection] = []
    depth_log = _QueueDepthLog(sim.series_window)
    queue_limit = controller.queue_limit
    drop_oldest = controller.drop_oldest
    deadline = controller.deadline
    offered = 0
    start_times: dict[str, float] = {}
    attempts: dict[str, int] = {}
    remaining_override: dict[str, int] = {}
    max_retries = injector.max_retries
    overhead = 0.0
    now = 0.0
    seq = 0
    events_processed = 0
    momentum = 0
    queue_view: tuple[Job, ...] | None = ()
    shard_exec: SweepExecutor | None = None

    #: Global heap: arrivals, fault instants and deadline expiries only —
    #: round boundaries live in the shard calendars.
    events: list[tuple[float, int, int, object]] = []

    arrivals_pulled = 0
    ckpt = sim._ckpt

    def push_next_arrival() -> None:
        nonlocal seq, arrivals_pulled
        job = next(stream, None)
        if job is not None:
            arrivals_pulled += 1
            heapq.heappush(events, (job.arrival_time, _ARRIVAL, seq, job))
            seq += 1

    placements_pack = _PackCache()
    completions_pack = _PackCache()
    if sim._resume_payload is None:
        push_next_arrival()
        for instant in injector.timeline():
            heapq.heappush(events, (instant.time, _FAULT, seq, instant))
            seq += 1
    else:
        # Restore the captured loop state wholesale (the simulator
        # loops' pattern): the in-flight arrival, pending fault instants
        # and timers already live in the captured global heap, and the
        # shard calendars/partition come back as plain data.
        state = sim._resume_payload["state"]
        now = state["now"]
        seq = state["seq"]
        offered = state["offered"]
        overhead = state["overhead"]
        events_processed = state["events_processed"]
        arrivals_pulled = state["arrivals_pulled"]
        momentum = state["momentum"]
        events = state["events"]
        pending = state["pending"]
        placements = _unpack_rows(Placement, state["placements"])
        completions = _unpack_rows(JobCompletion, state["completions"])
        placements_pack = _PackCache(seed=state["placements"])
        completions_pack = _PackCache(seed=state["completions"])
        failures = state["failures"]
        rejections = state["rejections"]
        depth_log = state["depth_log"]
        start_times = state["start_times"]
        attempts = state["attempts"]
        remaining_override = state["remaining_override"]
        machines[:] = state["machines"]
        by_id.clear()
        by_id.update((m.machine_id, m) for m in machines)
        shard_members = state["shard_members"]
        shard_heaps = state["shard_heaps"]
        queue_view = None

    def capture() -> dict:
        return {
            "mode": "sharded",
            "now": now,
            "seq": seq,
            "offered": offered,
            "overhead": overhead,
            "events_processed": events_processed,
            "arrivals_pulled": arrivals_pulled,
            "momentum": momentum,
            "events": events,
            "pending": pending,
            "placements": placements_pack.pack(placements),
            "completions": completions_pack.pack(completions),
            "failures": failures,
            "rejections": rejections,
            "depth_log": depth_log,
            "start_times": start_times,
            "attempts": attempts,
            "remaining_override": remaining_override,
            "machines": machines,
            "tracker": fleet_tracker,
            "shard_members": shard_members,
            "shard_heaps": shard_heaps,
        }

    def next_seq() -> int:
        nonlocal seq
        value = seq
        seq += 1
        return value

    def get_shard_exec() -> SweepExecutor:
        nonlocal shard_exec
        if shard_exec is None:
            shard_exec = SweepExecutor(
                backend=backend,
                cache=SweepCache(enabled=False),
                retry=sim.shard_retry or DEFAULT_SHARD_RETRY,
                chaos=sim.shard_chaos,
            )
        return shard_exec

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
        remaining_override.pop(job.name, None)
        reject(job, reason)
        depth_log.record(now, len(pending))

    def fleet_state() -> FleetState:
        nonlocal queue_view
        if queue_view is None:
            queue_view = tuple(pending.values())
        # Dirty-flag cache read, as in the single-process loops: only
        # touched machines pay the view() rebuild call.
        return FleetState(
            time=now,
            machines=tuple(m._view_cache or m.view() for m in machines),
            queue=queue_view,
            queue_limit=queue_limit,
        )

    def replay(log: list) -> None:
        """Apply a (merged) flush log to the fleet-wide tracker, in the
        exact ``(boundary, machine index)`` order the single-process
        loop's ``sync_to`` would have produced."""
        for _boundary, _index, records, blacklist in log:
            for kind_a, kind_b, slowdown in records:
                fleet_tracker.history_for(kind_a, kind_b).append(slowdown)
            for kind_a, kind_b in blacklist:
                fleet_tracker.mark_blacklisted(kind_a, kind_b)

    def integrate(
        comps: list[_CompletionPartial], starts: dict[str, float]
    ) -> None:
        """Attach parent-side start times / attempt counts to a shard
        advance's completion partials."""
        for name, at in starts.items():
            start_times.setdefault(name, at)
        for name, kind, machine_id, arrival, finish, num_steps in comps:
            completions.append(
                JobCompletion(
                    job=name,
                    kind=kind,
                    machine_id=machine_id,
                    arrival_time=arrival,
                    start_time=start_times.pop(name),
                    finish_time=finish,
                    num_steps=num_steps,
                    attempts=attempts.get(name, 1),
                )
            )

    def sync_shards(horizon: float | None, inclusive: bool, chain: bool) -> None:
        """Bring every shard to ``horizon``: the fleet-wide barrier.

        Advances shards independently (inline, or on worker processes
        for the drain / sustained wide windows), then merges the
        per-shard flush logs by ``(boundary, machine index)`` and
        replays them into the fleet tracker — the deterministic,
        input-ordered merge that makes sharding invisible to results.
        """
        nonlocal events_processed, momentum
        active = [s for s in range(num_shards) if shard_heaps[s]]
        if not active:
            momentum = 0
            return
        use_workers = (
            chain
            and backend != "serial"
            and len(active) > 1
            and (horizon is None or momentum >= FANOUT_MIN_DUE)
        )
        logs: list[list] = []
        processed_total = 0
        if use_workers:
            cache = estimator._cache()
            cache_root = str(cache.root) if cache else None
            cache_enabled = bool(cache)
            memo = estimator.memo_snapshot()
            config = estimator.config
            tasks = []
            for s in active:
                states = [
                    machines[i]
                    for i in shard_members[s]
                    if machines[i].round_active
                ]
                for m in states:
                    m._view_cache = None
                tasks.append(
                    SweepTask(
                        advance_shard,
                        (states, horizon, inclusive, memo, config,
                         threshold, cache_root, cache_enabled),
                        cacheable=False,
                    )
                )
            results = get_shard_exec().run(tasks)
            for s, result in zip(active, results):
                states, log, comps, starts, delta, stats, processed = result
                for m in states:
                    index = int(m.machine_id[1:])
                    machines[index] = m
                    by_id[m.machine_id] = m
                heap = [
                    (m.busy_until, int(m.machine_id[1:]), m.epoch)
                    for m in states
                    if m.round_active
                ]
                heapq.heapify(heap)
                shard_heaps[s] = heap
                estimator.merge_memo(delta)
                estimator.stats.merge(stats)
                logs.append(log)
                integrate(comps, starts)
                processed_total += processed
        else:
            for s in active:
                log: list = []
                comps: list[_CompletionPartial] = []
                starts: dict[str, float] = {}
                processed_total += _advance(
                    shard_heaps[s], machines, horizon, inclusive,
                    estimator, threshold, chain, log, comps, starts,
                )
                logs.append(log)
                integrate(comps, starts)
        events_processed += processed_total
        momentum = processed_total
        if len(logs) == 1:
            replay(logs[0])
        else:
            replay(list(heapq.merge(*logs)))

    def parent_start(machine: MachineState) -> None:
        index = int(machine.machine_id[1:])
        _start_segment(
            machine, index, now, estimator, threshold, start_times,
            bool(pending), shard_heaps[index % num_shards],
        )

    def truncate(machine: MachineState) -> None:
        if machine.round_active and machine.seg_rounds_left > 1:
            machine.seg_rounds_left = 1
            machine.epoch += 1
            index = int(machine.machine_id[1:])
            heapq.heappush(
                shard_heaps[index % num_shards],
                (machine.busy_until, index, machine.epoch),
            )

    def dispatch() -> None:
        nonlocal overhead, queue_view
        # One state per pass until a placement, as in the compressed loop.
        state = None
        for job in list(pending.values()):
            if state is None:
                state = fleet_state()
            tick = _time.perf_counter()
            choice = sim.policy.place(job, state)
            overhead += _time.perf_counter() - tick
            if choice is None:
                continue
            state = None
            machine = by_id[choice]
            if machine.free_slots <= 0:
                raise RuntimeError(
                    f"policy {sim.policy.name!r} placed {job.name!r} on full "
                    f"machine {choice!r}"
                )
            del pending[job.name]
            queue_view = None
            depth_log.record(now, len(pending))
            machine.waiting.append(job)
            machine.remaining_steps[job.name] = remaining_override.pop(
                job.name, job.num_steps
            )
            machine.touch()
            placements.append(
                Placement(job=job.name, kind=job.kind, machine_id=choice, time=now)
            )
            if not machine.round_active:
                parent_start(machine)
            else:
                truncate(machine)

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

    def abort_segment(machine: MachineState) -> None:
        if machine.round_active:
            machine.lost_steps += len(machine.residents)
            machine.round_active = False
            machine.seg_rounds_left = 0
            machine.seg_records = ()
            machine.seg_blacklist = ()
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
        nonlocal queue_view
        count = attempts.get(job.name, 1)
        if count >= max_retries:
            fail_job(job, now, count)
        else:
            attempts[job.name] = count + 1
            machine.retries += 1
            pending[job.name] = job
            queue_view = None
            depth_log.record(now, len(pending))

    def apply_fault(instant: FaultInstant) -> list[MachineState]:
        nonlocal queue_view
        event = instant.event
        action = instant.action
        restart: list[MachineState] = []
        if action == faultlib.JOIN:
            index = len(machines)
            new = MachineState(
                machine_id=f"m{index}",
                machine_name=event.machine_name,
                capacity=sim.max_corun,
                tracker=InterferenceTracker(threshold=threshold),
                joined_at=now,
            )
            machines.append(new)
            by_id[new.machine_id] = new
            shard_members[index % num_shards].append(index)
            return restart
        if action == faultlib.PREEMPT:
            for machine in machines:
                if not machine.alive:
                    continue
                resident = next(
                    (j for j in machine.residents if j.name == event.job), None
                )
                if resident is not None:
                    abort_segment(machine)
                    machine.residents.remove(resident)
                    remaining_override[resident.name] = machine.remaining_steps.pop(
                        resident.name
                    )
                    machine.preemptions += 1
                    machine.touch()
                    pending[resident.name] = resident
                    queue_view = None
                    depth_log.record(now, len(pending))
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
                    pending[waiter.name] = waiter
                    queue_view = None
                    depth_log.record(now, len(pending))
                    check_drained(machine)
                    return restart
            return restart  # queued / finished / unknown job: no-op
        machine = by_id[event.machine]
        if not machine.alive:
            return restart  # faults on dead machines are no-ops
        if action == faultlib.CRASH:
            abort_segment(machine)
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
            truncate(machine)
        elif action == faultlib.STRAGGLER_END:
            factors = list(machine.straggle)
            if event.factor in factors:
                factors.remove(event.factor)
            machine.straggle = tuple(factors)
            truncate(machine)
        return restart

    def shard_peek() -> tuple[float, int, int] | None:
        """Earliest valid boundary across all shard calendars, as
        ``(time, machine index, shard)`` — stale entries dropped."""
        best: tuple[float, int, int] | None = None
        for s in range(num_shards):
            heap = shard_heaps[s]
            while heap:
                t, index, epoch = heap[0]
                machine = machines[index]
                if (
                    machine.round_active
                    and machine.epoch == epoch
                    and machine.busy_until == t
                ):
                    break
                heapq.heappop(heap)
            if heap:
                t, index, _ = heap[0]
                if best is None or (t, index) < (best[0], best[1]):
                    best = (t, index, s)
        return best

    def handle_global() -> None:
        """Pop and apply the next global event — the compressed loop's
        arrival / fault / expiry handlers with ``sync_to`` replaced by
        the shard barrier.  With an empty queue the caller has already
        synced inclusively to this instant."""
        nonlocal now, offered, queue_view, events_processed
        event_time, kind, _event_seq, payload = heapq.heappop(events)
        now = event_time
        if kind == _ARRIVAL:
            events_processed += 1
            push_next_arrival()
            if pending:
                sync_shards(now, inclusive=False, chain=False)
            job: Job = payload  # type: ignore[assignment]
            offered += 1
            admitted = True
            if queue_limit is not None and len(pending) >= queue_limit:
                if drop_oldest:
                    oldest = next(iter(pending))
                    victim = pending.pop(oldest)
                    queue_view = None
                    shed(victim, "drop-oldest")
                else:
                    reject(job, "reject-at-arrival")
                    admitted = False
            if admitted:
                pending[job.name] = job
                queue_view = None
                depth_log.record(now, len(pending))
                if deadline is not None:
                    heapq.heappush(
                        events, (now + deadline, _EXPIRE, next_seq(), job)
                    )
                dispatch()
        elif kind == _FAULT:
            events_processed += 1
            if pending:
                sync_shards(now, inclusive=False, chain=False)
            restart = apply_fault(payload)  # type: ignore[arg-type]
            dispatch()
            for machine in restart:
                if not machine.round_active and (
                    machine.residents or machine.waiting
                ):
                    parent_start(machine)
        else:  # _EXPIRE
            job = payload  # type: ignore[assignment]
            if job.name in attempts or job.name not in pending:
                return  # stale timer, mirrors the compressed check
            events_processed += 1
            sync_shards(now, inclusive=False, chain=False)
            del pending[job.name]
            queue_view = None
            shed(job, "deadline-expire")
            dispatch()

    def process_boundary(entry: tuple[float, int, int]) -> None:
        """Serial-mode round-boundary event (jobs are queued, so every
        boundary is a dispatch barrier) — the compressed loop's
        round-end handler."""
        nonlocal now, events_processed
        t, index, s = entry
        now = t
        events_processed += 1
        machine = machines[index]
        # Strictly earlier boundaries fleet-wide first (own included),
        # then own's boundary at exactly now — the sync_to(now, own)
        # order, reconstructed in two phases.
        sync_shards(now, inclusive=False, chain=False)
        own_log: list = []
        own_comps: list[_CompletionPartial] = []
        while machine.round_active and machine.busy_until == now:
            if machine.seg_records:
                _flush_round(machine, index, now, own_log, own_comps)
            else:
                _bulk_flush(machine, now, True, own_comps)
        replay(own_log)
        integrate(own_comps, {})
        if machine.round_active:
            heapq.heappush(
                shard_heaps[s], (machine.busy_until, index, machine.epoch)
            )
        dispatch()
        if not machine.round_active:
            parent_start(machine)

    try:
        while True:
            if ckpt is not None and events_processed >= ckpt._trigger:
                # Loop tops are fleet-wide sync points here too: every
                # shard calendar and the global heap are consistent, so
                # the captured state round-trips exactly.  The inlined
                # ``_trigger`` guard keeps no-save iterations to one
                # compare.
                ckpt.tick(events_processed, capture)
            boundary = shard_peek()
            if not pending:
                if events:
                    sync_shards(events[0][0], inclusive=True, chain=True)
                    handle_global()
                elif boundary is not None:
                    # Final drain: no future fleet-wide event can occur,
                    # every shard runs its machines dry independently.
                    sync_shards(None, inclusive=True, chain=True)
                    continue
                else:
                    break
            else:
                if boundary is not None and (
                    not events or boundary[0] <= events[0][0]
                ):
                    process_boundary(boundary)
                elif events:
                    handle_global()
                else:
                    break
            if pending:
                # Reference semantics: with jobs queued, every machine's
                # every round boundary triggers a fresh dispatch.
                for m in machines:
                    truncate(m)
    finally:
        if shard_exec is not None:
            sim.shard_stats = shard_exec.stats
            shard_exec.close(force=True)

    if pending:
        if any(m.accepting for m in machines):
            stuck = list(pending)
            raise FleetStalled(
                f"fleet simulation stalled with {len(pending)} jobs queued "
                f"(policy {sim.policy.name!r} kept declining placements): "
                + ", ".join(stuck),
                stuck,
            )
        for job in list(pending.values()):
            fail_job(job, now, max_retries)
        pending.clear()
        queue_view = None
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
