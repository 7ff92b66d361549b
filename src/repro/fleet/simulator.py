"""Event-driven fleet simulator: a stream of jobs over many zoo machines.

This is the paper's co-run question raised one level: instead of *which
ready ops share one chip's cores* (Strategy 3/4, Tables III/VII), the
fleet simulator decides *which jobs share one machine* — using the same
predictions (hill-climbing step-time estimates) and the same generalized
interference signals.

Execution model
---------------
Each machine runs its resident jobs as **gang rounds**: all residents
advance one training step per round, and the round's duration is the
simulated step time of their merged graph under the full runtime
(:mod:`repro.fleet.estimates`).  Jobs join and leave at round
boundaries; a placement policy (:mod:`repro.fleet.policies`) assigns
arriving and queued jobs to machines.  After every co-run round the
machine records the observed pairing slowdowns into its local
:class:`~repro.core.interference.InterferenceTracker`, and the simulator
merges that round's delta into the fleet-wide tracker — so a pairing one
machine found harmful steers placements everywhere.

Round compression
-----------------
While a machine's resident mix is stable, every gang round is identical:
same duration (one memoised estimate), same interference records, same
decrements.  The seed loop paid one heap event per round — O(total
training steps) events for the whole trace; it is kept as the test
oracle ``ReferenceFleetSimulator`` (``tests/reference_fleet.py``), the
"reference loop" below.  :class:`FleetSimulator` instead advances
``k = min(remaining steps among residents)`` rounds as one **segment**
with a single heap event at the segment's end, and flushes the
intermediate round boundaries lazily, each machine's due ones in one
step:

* a segment's boundaries are accumulated once at its start, and
  ``busy_time`` once per flush, each by one sequential
  ``np.add.accumulate``: one ``+ round_time`` per round, in order,
  exactly as the reference loop's per-event updates do — every
  boundary, completion time and utilisation figure is
  **bit-identical**;
* a flush bisects for the due boundaries and moves counters and
  remaining steps in closed form.  Machine-local interference histories
  are extended at once.  Fleet-wide pair histories are shared, so each
  flush queues its boundaries as a *run*; after a full sync the runs
  merge in ``(time, machine index, record)`` order, the order the
  reference loop's heap pops round ends, and the fleet tracker ingests
  the very same observation sequence.  Only a history's latest
  ``maxlen`` boundaries can show in it, so the merge takes just those,
  and a run that ``maxlen`` later-ending runs already push out of the
  window is dropped early;
* every fault, live deadline expiry and checkpoint capture first brings
  the whole fleet to ``now``, and so does every arrival while jobs are
  queued or when the policy reads round progress (``reads_progress``,
  see :class:`~repro.fleet.policies.PlacementPolicy`).  Otherwise an
  arrival flushes a machine only when something reads it: the machine
  the job lands on, before its segment is truncated, and every machine
  when the job stays queued.  A **boundary calendar** — a heap of
  ``(next unflushed boundary, machine index, epoch)`` — finds the due
  machines, so a sync costs O(due · log) rather than an O(machines)
  scan.  A round-end event flushes only its own machine: with the queue
  empty nothing else is read, and with jobs queued every boundary has
  its own event;
* a placement onto a mid-segment machine truncates its segment to the
  current round (the new job joins at the next boundary, as always), and
  while the queue is non-empty every segment is clamped to one round —
  the policy then sees the exact per-round ``FleetState`` sequence the
  reference loop would have shown it.

Event count drops from O(total steps) to O(mix changes); the tests and
the fleet benchmark enforce byte-identical outcomes against the
reference loop.

Fault injection
---------------
The loop consults a :class:`~repro.fleet.faults.FaultInjector`
(``run(jobs, faults=...)``): crashes, graceful drains, mid-trace joins,
straggler windows and job preemptions are heap events of their own kind,
ordered *after* round boundaries and *before* arrivals at equal
timestamps.  Every fault instant is a mandatory segment boundary — the
handler flushes every due boundary first, applies the fault (aborting
any in-flight round), and truncates surviving segments, so interference
histories and every float stay bit-identical to the reference loop even
mid-fault-storm.  An empty
plan pushes no events and costs nothing.

Open-loop arrivals & admission control
--------------------------------------
``run`` accepts either a pre-built job sequence or a lazy
:class:`~repro.fleet.arrivals.ArrivalProcess`.  Both are consumed as a
*stream*: exactly one future arrival lives in the heap at a time, and
popping it pulls the next from the generator — a million-job open-loop
run never materialises its trace, and streaming a process is
byte-identical to replaying ``process.materialize()`` (arrival pushes
interleave with other seq allocations, but heap order is decided by
``(time, kind)`` before ``seq``, and relative seq order among equal-time
arrivals is preserved).  An
:class:`~repro.fleet.arrivals.AdmissionController` turns unbounded
queueing into explicit shedding: arrivals that find the queue at its
``queue_limit`` are rejected (or evict the oldest queued job), and
admitted jobs still queued past their ``deadline`` expire via
``_EXPIRE`` timer events.  Every shed becomes a
:class:`JobRejection` on the result, so
``completions + failures + rejections == offered`` always holds, and
:class:`FleetResult` reports exact-method p50/p95/p99 wait/turnaround
percentiles plus windowed queue-depth/throughput/goodput series — all
inside the determinism digest.  Every admission decision and shed
instant is a mandatory segment boundary, as a fault instant is: the
handler replays due boundaries first, and a non-empty queue keeps
segments clamped to one round, so the loop sees the reference loop's
queue states at identical instants.

Everything is deterministic for a fixed (arrival process, policy,
machine set, fault plan, admission controller): events are heap-ordered
with explicit tie-breakers, estimates are pure functions, and
wall-clock only appears in the separately reported scheduler-overhead
figure.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.interference import InterferenceSnapshot, InterferenceTracker
from repro.fleet import faults as faultlib
from repro.fleet.arrivals import (
    AdmissionController,
    ArrivalProcess,
    resolve_admission,
    validated_stream,
)
from repro.fleet.estimates import StepTimeEstimator, scale_step_time
from repro.fleet.faults import FaultInjector, FaultInstant, FaultPlan, resolve_fault_plan
from repro.fleet.job import Job, validate_trace
from repro.fleet.policies import PlacementPolicy, make_policy
from repro.fleet.state import (
    DEFAULT_INTERFERENCE_THRESHOLD,
    FleetState,
    MachineState,
    Placement,
)
from repro.hardware.zoo import get_machine
from repro.sweep.executor import SweepExecutor

#: Default number of jobs allowed to share one machine (the paper's
#: co-run studies pair two workloads; capacity 2 is the sweet spot where
#: Strategy 3/4 still have idle resources to fill).
DEFAULT_MAX_CORUN = 2


class FleetStalled(RuntimeError):
    """The simulation can make no further progress with jobs still queued.

    Raised when the event heap drains while the policy keeps declining
    every queued job and at least one machine could still accept work —
    a policy livelock, as opposed to a dead fleet (which terminates
    normally with the stranded jobs marked failed).  ``jobs`` names the
    stuck jobs.
    """

    def __init__(self, message: str, jobs: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.jobs = tuple(jobs)


@dataclass(frozen=True, slots=True)
class JobCompletion:
    """Lifecycle record of one finished job."""

    job: str
    kind: str
    machine_id: str
    arrival_time: float
    start_time: float
    finish_time: float
    num_steps: int
    #: Execution attempts this job needed (1 unless crash-requeued).
    attempts: int = 1

    @property
    def wait_time(self) -> float:
        return self.start_time - self.arrival_time

    @property
    def turnaround_time(self) -> float:
        return self.finish_time - self.arrival_time


@dataclass(frozen=True, slots=True)
class JobFailure:
    """Lifecycle record of a job that exhausted its retry budget.

    A job fails when a machine crash strikes its ``max_retries``-th
    attempt, or when it is abandoned because no machine can ever accept
    it again (dead fleet) — in both cases ``attempts`` equals the plan's
    ``max_retries``.
    """

    job: str
    kind: str
    arrival_time: float
    attempts: int
    failed_time: float


@dataclass(frozen=True, slots=True)
class JobRejection:
    """Lifecycle record of a job shed by admission control.

    ``reason`` names the shed policy that fired: ``"reject-at-arrival"``
    (the queue was full when the job arrived), ``"drop-oldest"`` (a
    newer arrival evicted this queued job) or ``"deadline-expire"`` (the
    job waited past its deadline).  A rejected job consumed no machine
    time; every offered job ends as exactly one completion, failure or
    rejection.
    """

    job: str
    kind: str
    arrival_time: float
    rejected_time: float
    reason: str

    @property
    def wait_time(self) -> float:
        """How long the job sat in the queue before being shed (0.0 for
        arrivals rejected on the spot)."""
        return self.rejected_time - self.arrival_time


def exact_percentiles(
    values: Iterable[float], percentiles: Sequence[int] = (50, 95, 99)
) -> dict[str, float]:
    """Nearest-rank percentiles — the exact method, no interpolation.

    ``p`` maps to the value at 1-based rank ``ceil(p/100 * n)`` of the
    sorted sample: an actual observed value, deterministic, and stable
    under the streaming/materialised and compressed/reference
    equivalences the fleet gates on.  An empty sample yields 0.0.
    """
    ordered = sorted(values)
    n = len(ordered)
    out: dict[str, float] = {}
    for p in percentiles:
        if n == 0:
            out[f"p{p}"] = 0.0
        else:
            rank = math.ceil(p * n / 100)
            out[f"p{p}"] = ordered[min(max(rank, 1), n) - 1]
    return out


class _QueueDepthLog:
    """Windowed maximum of the central queue depth, built in-loop.

    Both loops call :meth:`record` after every queue mutation — the
    identical ``(time, depth)`` sequence, so the series lands in the
    determinism digest.  Depth is piecewise constant between records;
    window ``i`` covers ``[i*window, (i+1)*window)`` simulated seconds
    and carries the running depth in from the previous window, so a
    quiet window under a standing backlog still reports that backlog.
    O(windows) memory regardless of trace length.
    """

    __slots__ = ("window", "_depth", "_index", "_max", "_series", "_touched")

    def __init__(self, window: float) -> None:
        self.window = window
        self._depth = 0
        self._index = 0
        self._max = 0
        self._series: list[int] = []
        self._touched = False

    def record(self, time: float, depth: int) -> None:
        self._touched = True
        index = int(time // self.window)
        while self._index < index:
            self._series.append(self._max)
            self._index += 1
            self._max = self._depth
        self._depth = depth
        if depth > self._max:
            self._max = depth

    def finish(self) -> tuple[int, ...]:
        """Close the in-progress window and return the series."""
        if not self._touched:
            return ()
        self._series.append(self._max)
        return tuple(self._series)


def _windowed_completions(
    completions: Sequence[JobCompletion], window: float
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-window completed jobs (throughput) and completed training
    steps (goodput), derived from the completion records post-hoc —
    trivially identical across both loops."""
    if not completions:
        return (), ()
    spans = int(max(c.finish_time for c in completions) // window) + 1
    throughput = [0] * spans
    goodput = [0] * spans
    for c in completions:
        index = int(c.finish_time // window)
        throughput[index] += 1
        goodput[index] += c.num_steps
    return tuple(throughput), tuple(goodput)


@dataclass(frozen=True)
class MachineReport:
    """Per-machine aggregate of one fleet simulation."""

    machine_id: str
    machine_name: str
    jobs_served: int
    rounds: int
    corun_rounds: int
    busy_time: float
    utilization: float
    #: Pairings *this* machine observed crossing the threshold (the
    #: fleet-wide blacklist is the union of these, shared via
    #: snapshot()/merge()).
    local_blacklist: tuple[tuple[str, str], ...] = ()
    # -- fault accounting (all zero on a fault-free run) -------------------------
    #: Jobs this machine's crash sent back to the queue.
    retries: int = 0
    #: JobPreempt events applied on this machine.
    preemptions: int = 0
    #: Training steps destroyed by aborted in-flight rounds.
    lost_steps: int = 0
    #: Simulated seconds between the machine leaving the fleet (crash or
    #: drain completion) and the end of the trace (0.0 while alive).
    downtime: float = 0.0

    @classmethod
    def from_dict(cls, payload: dict) -> "MachineReport":
        """Exact inverse of the per-machine dict in
        :meth:`FleetResult.to_dict`."""
        return cls(
            machine_id=payload["machine"],
            machine_name=payload["name"],
            jobs_served=payload["jobs_served"],
            rounds=payload["rounds"],
            corun_rounds=payload["corun_rounds"],
            busy_time=payload["busy_time"],
            utilization=payload["utilization"],
            local_blacklist=tuple(
                tuple(pair) for pair in payload.get("local_blacklist", ())
            ),
            retries=payload.get("retries", 0),
            preemptions=payload.get("preemptions", 0),
            lost_steps=payload.get("lost_steps", 0),
            downtime=payload.get("downtime", 0.0),
        )


def _pack_rows(rows: list) -> list[tuple]:
    """Snapshot form of a homogeneous list of dataclass records.

    Plain field tuples pickle several times faster than dataclass
    instances, and the placement/completion logs are the two O(jobs)
    components of a checkpoint — packing them keeps the snapshot cost
    inside the resilience suite's checkpoint-overhead gate.
    """
    return [
        tuple(getattr(row, name) for name in type(row).__dataclass_fields__)
        for row in rows
    ]


def _unpack_rows(cls, rows: list) -> list:
    """Rebuild :func:`_pack_rows` tuples as records (field order = ctor order)."""
    return [cls(*row) for row in rows]


class _PackCache:
    """Incremental :func:`_pack_rows` over an append-only record list.

    The placement/completion logs only ever grow, so each snapshot packs
    just the rows appended since the previous one — total packing work
    per run is O(jobs) regardless of how many snapshots are taken.  The
    returned list is shared between snapshots; the checkpointer pickles
    it inside ``save`` (or forks a writer that does), before the next
    append.
    """

    __slots__ = ("count", "packed")

    def __init__(self, seed: "list | None" = None) -> None:
        self.packed: list = list(seed) if seed else []
        self.count = len(self.packed)

    def pack(self, rows: list) -> list:
        if self.count < len(rows):
            self.packed.extend(_pack_rows(rows[self.count :]))
            self.count = len(rows)
        return self.packed


#: ``to_dict`` keys present only with ``include_overhead=True``: wall
#: clock and estimator-traffic diagnostics that legitimately vary
#: between byte-identical simulations, and therefore stay out of every
#: determinism digest.
OVERHEAD_KEYS: tuple[str, ...] = (
    "scheduler_overhead_seconds",
    "estimates_requested",
    "estimates_computed",
    "events_processed",
)


@dataclass
class FleetResult:
    """Outcome of simulating one job trace under one placement policy."""

    policy_name: str
    machine_names: tuple[str, ...]
    num_jobs: int
    makespan: float
    completions: tuple[JobCompletion, ...]
    placements: tuple[Placement, ...]
    machine_reports: tuple[MachineReport, ...]
    blacklisted_pairs: tuple[tuple[str, str], ...]
    #: Jobs that exhausted their retry budget (empty on fault-free runs;
    #: every job of a trace is exactly one completion or one failure).
    failures: tuple[JobFailure, ...] = ()
    #: Jobs shed by admission control (empty without a controller);
    #: ``completions + failures + rejections`` partition the offered jobs.
    rejections: tuple[JobRejection, ...] = ()
    #: Fleet-wide fault accounting (sums of the per-machine figures).
    retries: int = 0
    preemptions: int = 0
    lost_steps: int = 0
    #: Width, in simulated seconds, of the windowed time series below.
    series_window: float = 25.0
    #: Per-window maximum central-queue depth (in-loop, carries standing
    #: backlog across quiet windows).
    queue_depth_series: tuple[int, ...] = ()
    #: Per-window completed jobs / completed training steps.
    throughput_series: tuple[int, ...] = ()
    goodput_series: tuple[int, ...] = ()
    #: Wall-clock seconds spent inside policy decisions (NOT part of the
    #: deterministic outcome; excluded from determinism digests).
    scheduler_overhead_seconds: float = 0.0
    #: Estimator traffic: how many step-time estimates the run requested
    #: and how many were actually simulated (the rest were memo hits).
    estimates_requested: int = 0
    estimates_computed: int = 0
    #: Heap events the simulator processed: O(mix changes), where the
    #: one-event-per-round reference loop of the tests takes O(total
    #: steps).
    #: Diagnostic only — excluded from determinism digests.
    events_processed: int = 0

    @property
    def mean_wait_time(self) -> float:
        if not self.completions:
            return 0.0
        return sum(c.wait_time for c in self.completions) / len(self.completions)

    @property
    def mean_turnaround_time(self) -> float:
        if not self.completions:
            return 0.0
        return sum(c.turnaround_time for c in self.completions) / len(self.completions)

    @property
    def wait_percentiles(self) -> dict[str, float]:
        """Exact p50/p95/p99 of completed jobs' queue wait times."""
        return exact_percentiles(c.wait_time for c in self.completions)

    @property
    def turnaround_percentiles(self) -> dict[str, float]:
        """Exact p50/p95/p99 of completed jobs' arrival-to-finish times."""
        return exact_percentiles(c.turnaround_time for c in self.completions)

    @property
    def peak_queue_depth(self) -> int:
        return max(self.queue_depth_series, default=0)

    @property
    def shed_rate(self) -> float:
        """Fraction of offered jobs shed by admission control."""
        if not self.num_jobs:
            return 0.0
        return len(self.rejections) / self.num_jobs

    def to_dict(self, *, include_overhead: bool = True) -> dict:
        """JSON-ready summary; ``include_overhead=False`` restricts the
        dict to the deterministic fields (the determinism-gate digest)."""
        out = {
            "policy": self.policy_name,
            "machines": list(self.machine_names),
            "num_jobs": self.num_jobs,
            "makespan": self.makespan,
            "mean_wait_time": self.mean_wait_time,
            "mean_turnaround_time": self.mean_turnaround_time,
            "completions": [
                {
                    "job": c.job,
                    "kind": c.kind,
                    "machine": c.machine_id,
                    "arrival": c.arrival_time,
                    "start": c.start_time,
                    "finish": c.finish_time,
                    "steps": c.num_steps,
                    "attempts": c.attempts,
                }
                for c in self.completions
            ],
            "failures": [
                {
                    "job": f.job,
                    "kind": f.kind,
                    "arrival": f.arrival_time,
                    "attempts": f.attempts,
                    "failed": f.failed_time,
                }
                for f in self.failures
            ],
            "rejections": [
                {
                    "job": r.job,
                    "kind": r.kind,
                    "arrival": r.arrival_time,
                    "rejected": r.rejected_time,
                    "reason": r.reason,
                }
                for r in self.rejections
            ],
            "shed_rate": self.shed_rate,
            "wait_percentiles": self.wait_percentiles,
            "turnaround_percentiles": self.turnaround_percentiles,
            "series_window": self.series_window,
            "queue_depth_series": list(self.queue_depth_series),
            "throughput_series": list(self.throughput_series),
            "goodput_series": list(self.goodput_series),
            "peak_queue_depth": self.peak_queue_depth,
            "retries": self.retries,
            "preemptions": self.preemptions,
            "lost_steps": self.lost_steps,
            "machine_reports": [
                {
                    "machine": m.machine_id,
                    "name": m.machine_name,
                    "jobs_served": m.jobs_served,
                    "rounds": m.rounds,
                    "corun_rounds": m.corun_rounds,
                    "busy_time": m.busy_time,
                    "utilization": m.utilization,
                    "local_blacklist": [list(pair) for pair in m.local_blacklist],
                    "retries": m.retries,
                    "preemptions": m.preemptions,
                    "lost_steps": m.lost_steps,
                    "downtime": m.downtime,
                }
                for m in self.machine_reports
            ],
            "blacklisted_pairs": [list(pair) for pair in self.blacklisted_pairs],
            "placements": [
                {
                    "job": p.job,
                    "kind": p.kind,
                    "machine": p.machine_id,
                    "time": p.time,
                }
                for p in self.placements
            ],
        }
        if include_overhead:
            out["scheduler_overhead_seconds"] = self.scheduler_overhead_seconds
            out["estimates_requested"] = self.estimates_requested
            out["estimates_computed"] = self.estimates_computed
            out["events_processed"] = self.events_processed
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetResult":
        """Exact inverse of :meth:`to_dict`: rebuild the result from its
        JSON form.  Derived keys (``mean_wait_time``, percentiles,
        ``peak_queue_depth``, ``shed_rate``) are recomputed from the
        event lists rather than trusted; overhead keys stripped by
        ``include_overhead=False`` come back as zeros.
        """
        return cls(
            policy_name=payload["policy"],
            machine_names=tuple(payload["machines"]),
            num_jobs=payload["num_jobs"],
            makespan=payload["makespan"],
            completions=tuple(
                JobCompletion(
                    job=c["job"],
                    kind=c["kind"],
                    machine_id=c["machine"],
                    arrival_time=c["arrival"],
                    start_time=c["start"],
                    finish_time=c["finish"],
                    num_steps=c["steps"],
                    attempts=c.get("attempts", 1),
                )
                for c in payload["completions"]
            ),
            placements=tuple(
                Placement(
                    job=p["job"],
                    kind=p["kind"],
                    machine_id=p["machine"],
                    time=p["time"],
                )
                for p in payload.get("placements", ())
            ),
            machine_reports=tuple(
                MachineReport.from_dict(m) for m in payload["machine_reports"]
            ),
            blacklisted_pairs=tuple(
                tuple(pair) for pair in payload["blacklisted_pairs"]
            ),
            failures=tuple(
                JobFailure(
                    job=f["job"],
                    kind=f["kind"],
                    arrival_time=f["arrival"],
                    attempts=f["attempts"],
                    failed_time=f["failed"],
                )
                for f in payload.get("failures", ())
            ),
            rejections=tuple(
                JobRejection(
                    job=r["job"],
                    kind=r["kind"],
                    arrival_time=r["arrival"],
                    rejected_time=r["rejected"],
                    reason=r["reason"],
                )
                for r in payload.get("rejections", ())
            ),
            retries=payload.get("retries", 0),
            preemptions=payload.get("preemptions", 0),
            lost_steps=payload.get("lost_steps", 0),
            series_window=payload.get("series_window", 25.0),
            queue_depth_series=tuple(payload.get("queue_depth_series", ())),
            throughput_series=tuple(payload.get("throughput_series", ())),
            goodput_series=tuple(payload.get("goodput_series", ())),
            scheduler_overhead_seconds=payload.get("scheduler_overhead_seconds", 0.0),
            estimates_requested=payload.get("estimates_requested", 0),
            estimates_computed=payload.get("estimates_computed", 0),
            events_processed=payload.get("events_processed", 0),
        )


#: Event kinds, ordered: at equal timestamps round boundaries retire
#: jobs and free slots *before* faults apply, faults apply *before*
#: deadline timers fire (a round completing at a crash instant
#: completes; a requeue at the deadline instant exempts the job), and
#: timers fire *before* arrivals are admitted (an expiring job frees
#: its queue slot for a job arriving at the same instant).
_ROUND_END = 0
_FAULT = 1
_EXPIRE = 2
_ARRIVAL = 3

#: A view's open slots: never negative, and 0 on a machine that is not
#: accepting, so ``any`` over a state's views asks "can a job be placed?".
_free_slots = attrgetter("free_slots")


def _accumulate_rounds(start: float, step: float, count: int) -> array:
    """``count`` floats ``start, start + step, (start + step) + step, ...``
    as an ``array('d')``.

    ``np.add.accumulate`` defines its 1-D result as the sequential loop
    ``t = t + a[i]``, so these are the in-order IEEE additions of
    ``accumulate(repeat(step, count - 1), initial=start)`` and of the
    reference loop's per-round ``+ round_time``, at numpy speed.  Never
    a pairwise reduction (``np.sum``, ``math.fsum``): those round
    differently.  The sum runs in place in the returned array's own
    buffer, so a segment's floats are held once.
    """
    rounds = array("d", (step,)) * count
    values = np.frombuffer(rounds)
    values[0] = start
    np.add.accumulate(values, out=values)
    return rounds


def _window_rounds(rounds: int, per_round: int, maxlen: int | None) -> int:
    """How many of ``rounds`` trailing rounds, each appending ``per_round``
    values, can still show in a history capped at ``maxlen`` entries."""
    if maxlen is None:
        return rounds
    return min(rounds, -(-maxlen // per_round))


class FleetSimulator:
    """Simulate a stream of jobs over a set of zoo machines.

    Parameters
    ----------
    machines:
        Zoo names of the fleet's machines (duplicates welcome — five
        ``"desktop-8c"`` entries model a homogeneous rack).  Machine ids
        are ``m0``, ``m1``, ... in the given order.
    policy:
        A policy name from :data:`repro.fleet.policies.POLICIES` or a
        ready :class:`~repro.fleet.policies.PlacementPolicy` instance.
    executor:
        Optional :class:`~repro.sweep.executor.SweepExecutor` the
        step-time estimator fans out over (and whose cache it reuses).
    config:
        Runtime configuration for the per-machine co-run simulations.
    max_corun:
        Job slots per machine.
    interference_threshold:
        Pairing-slowdown blacklist threshold of the fleet-wide tracker.
    faults:
        Default fault plan for every :meth:`run` — a
        :class:`~repro.fleet.faults.FaultPlan`, injector, spec dict,
        registered fault-spec name or JSON string (see
        :func:`~repro.fleet.faults.resolve_fault_plan`).  ``run``'s own
        ``faults=`` argument overrides it per run.
    admission:
        Default :class:`~repro.fleet.arrivals.AdmissionController` (or
        spec dict) applied to every :meth:`run`; ``None`` admits
        everything.  ``run``'s own ``admission=`` overrides it per run.
    series_window:
        Width, in simulated seconds, of the windowed queue-depth /
        throughput / goodput series on :class:`FleetResult`.
    """

    def __init__(
        self,
        machines: Sequence[str],
        *,
        policy: str | PlacementPolicy = "interference-aware",
        executor: SweepExecutor | None = None,
        estimator: StepTimeEstimator | None = None,
        config: RuntimeConfig | None = None,
        max_corun: int = DEFAULT_MAX_CORUN,
        interference_threshold: float = DEFAULT_INTERFERENCE_THRESHOLD,
        faults: "FaultPlan | FaultInjector | dict | str | None" = None,
        admission: "AdmissionController | dict | None" = None,
        series_window: float = 25.0,
    ) -> None:
        if not machines:
            raise ValueError("a fleet needs at least one machine")
        if max_corun < 1:
            raise ValueError("max_corun must be at least 1")
        if series_window <= 0:
            raise ValueError("series_window must be positive")
        for name in machines:
            get_machine(name)  # fail fast on dangling zoo names
        self.machine_names = tuple(machines)
        self.max_corun = max_corun
        self.faults = resolve_fault_plan(faults)
        self.admission = resolve_admission(admission)
        self.series_window = float(series_window)
        self.config = config or RuntimeConfig()
        self.estimator = estimator or StepTimeEstimator(executor=executor, config=self.config)
        self.tracker = InterferenceTracker(threshold=interference_threshold)
        if isinstance(policy, str):
            self.policy = make_policy(
                policy, estimator=self.estimator, tracker=self.tracker
            )
            #: Registered policy name, kept so a checkpoint resume can
            #: rebuild the policy against the restored tracker (policy
            #: instances passed directly cannot be resumed).
            self._policy_spec: str | None = policy
        else:
            self.policy = policy
            self._policy_spec = None
        #: Tracker state at first run entry (pre-seeded knowledge included);
        #: every later run() resets to it so repeated runs are identical.
        self._tracker_baseline: "InterferenceSnapshot | None" = None
        #: Per-run checkpoint plumbing, set by run() for the duration of
        #: the event loop (the loop reads them instead of new parameters,
        #: so an overriding loop keeps the same signature).
        self._ckpt = None
        self._resume_payload: dict | None = None

    # -- shared run scaffolding ----------------------------------------------------

    def run(
        self,
        jobs: "Sequence[Job] | ArrivalProcess",
        *,
        prewarm: bool = True,
        faults: "FaultPlan | FaultInjector | dict | str | None" = None,
        admission: "AdmissionController | dict | None" = None,
        checkpoint: "object | None" = None,
        run_id: str | None = None,
        manifest: dict | None = None,
        resume_from: dict | None = None,
    ) -> FleetResult:
        """Simulate ``jobs`` arriving and running to completion.

        ``jobs`` is a pre-built sequence or a lazy
        :class:`~repro.fleet.arrivals.ArrivalProcess`; both are consumed
        as a stream (a process is never materialised — see the module
        docstring), and streaming a process is byte-identical to
        replaying ``process.materialize()``.

        ``prewarm`` batches every distinct solo estimate (the bulk of
        policy traffic) through the sweep engine before the event loop
        starts; ``False`` skips it.  For a process, one representative
        job per workload kind (``prewarm_jobs()``) stands in for the
        trace.  Co-run mixes are prewarmed by calling
        :meth:`StepTimeEstimator.prewarm` with ``max_corun`` first.  An
        empty trace returns a well-formed empty :class:`FleetResult`.

        ``faults`` injects a :class:`~repro.fleet.faults.FaultPlan` into
        this run and ``admission`` applies an
        :class:`~repro.fleet.arrivals.AdmissionController` (each
        overriding the constructor's default); every offered job then
        ends as exactly one completion, failure or rejection.

        ``checkpoint`` enables periodic full-state snapshots (anything
        :func:`repro.resilience.checkpoint.resolve_checkpoint` accepts:
        ``True``, an event interval, a config dict/``CheckpointConfig``,
        or a ready ``Checkpointer``); ``run_id`` names the snapshot
        directory (required unless a ``Checkpointer`` is passed) and
        ``manifest`` is an opaque JSON-ready run description stored
        beside the snapshots so tooling can rebuild the run.  An
        interrupted checkpointed run raises
        :class:`~repro.resilience.checkpoint.RunInterrupted` *after*
        flushing a final snapshot; ``resume_from`` (the payload from
        ``Checkpointer.open``) restarts the loop from that snapshot and
        produces a digest byte-identical to the uninterrupted run.
        ``jobs``/``faults``/``admission`` must match the original run.
        """
        if isinstance(jobs, ArrivalProcess):
            expected = jobs.num_jobs
            stream: Iterator[Job] = validated_stream(jobs.jobs())
            prewarm_jobs: Sequence[Job] = jobs.prewarm_jobs()
        else:
            validate_trace(jobs)
            ordered = sorted(jobs, key=lambda j: (j.arrival_time, j.name))
            expected = len(ordered)
            stream = iter(ordered)
            prewarm_jobs = ordered
        plan = resolve_fault_plan(faults) if faults is not None else self.faults
        injector = FaultInjector(plan)
        injector.validate_for(len(self.machine_names))
        controller = (
            resolve_admission(admission) if admission is not None else self.admission
        )
        from repro.resilience.checkpoint import (
            CheckpointError,
            Checkpointer,
            resolve_checkpoint,
        )

        if resume_from is not None:
            state = resume_from.get("state")
            if not isinstance(state, dict):
                raise CheckpointError("resume payload carries no state dict")
            # Retired loops (the sharded engine, the reference loop)
            # wrote snapshots whose state this loop cannot restore.
            if state.get("mode") != "compressed":
                raise CheckpointError(
                    f"checkpoint was written by the {state.get('mode')!r} loop "
                    "but this simulator runs the 'compressed' loop"
                )
            if self._policy_spec is None:
                raise CheckpointError(
                    "resume requires a policy constructed from a registered "
                    "name (policy instances cannot be rebuilt against the "
                    "restored tracker)"
                )
            # The snapshot's tracker object IS the run's fleet tracker
            # (the machines' seg_records share its history deques);
            # adopt it and rebuild the policy against it.
            self.tracker = state["tracker"]
            self.policy = make_policy(
                self._policy_spec, estimator=self.estimator, tracker=self.tracker
            )
            self._tracker_baseline = None
            # Re-aim the fresh deterministic stream at the snapshot's
            # arrival cursor: every job at or before the snapshot is
            # either done or inside the captured loop state.
            stream = islice(stream, state["arrivals_pulled"], None)
        else:
            # Same inputs -> same outcome, even on a reused simulator: the
            # fleet-wide tracker restarts from its first-run baseline (which
            # keeps any knowledge the caller pre-seeded), and estimator stats
            # are reported as per-run deltas.
            if self._tracker_baseline is None:
                self._tracker_baseline = self.tracker.snapshot()
            else:
                self.tracker.clear()
                self.tracker.merge(self._tracker_baseline)
        if checkpoint is not None and not isinstance(checkpoint, Checkpointer):
            if checkpoint and run_id is None:
                raise ValueError(
                    "checkpoint= requires run_id= (or pass a ready Checkpointer)"
                )
            checkpoint = resolve_checkpoint(
                checkpoint, run_id=run_id or "", manifest=manifest
            )
        # Policies may memoise pure per-run computations; reset them so a
        # rerun reports the identical estimator traffic.
        clear_memo = getattr(self.policy, "clear_memo", None)
        if clear_memo is not None:
            clear_memo()
        requests_before = self.estimator.stats.requests
        computed_before = self.estimator.stats.computed
        if prewarm and expected and prewarm_jobs:
            # Solo estimates dominate policy traffic; batch them through
            # the sweep engine up front (parallel under a process backend).
            self.estimator.prewarm(self.machine_names, prewarm_jobs)

        machines = [
            MachineState(
                machine_id=f"m{index}",
                machine_name=name,
                capacity=self.max_corun,
                tracker=InterferenceTracker(threshold=self.tracker.threshold),
            )
            for index, name in enumerate(self.machine_names)
        ]
        if not expected:
            return self._assemble_result(
                machines, [], [], [], [], (), 0, 0.0, 0,
                requests_before, computed_before,
            )
        self._ckpt = checkpoint
        self._resume_payload = resume_from
        try:
            (
                completions,
                placements,
                failures,
                rejections,
                depth_series,
                offered,
                overhead,
                events,
            ) = self._run_loop(stream, machines, injector, controller)
        finally:
            self._ckpt = None
            self._resume_payload = None
        result = self._assemble_result(
            machines,
            completions,
            placements,
            failures,
            rejections,
            depth_series,
            offered,
            overhead,
            events,
            requests_before,
            computed_before,
        )
        if checkpoint is not None:
            # The run completed and its result assembled cleanly: the
            # snapshots have served their purpose.
            checkpoint.complete()
        return result

    def _assemble_result(
        self,
        machines: list[MachineState],
        completions: list[JobCompletion],
        placements: list[Placement],
        failures: list[JobFailure],
        rejections: list[JobRejection],
        depth_series: tuple[int, ...],
        offered: int,
        overhead: float,
        events: int,
        requests_before: int,
        computed_before: int,
    ) -> FleetResult:
        accounted = len(completions) + len(failures) + len(rejections)
        if accounted != offered:
            raise RuntimeError(
                "job accounting broken: "
                f"{len(completions)} completions + {len(failures)} failures + "
                f"{len(rejections)} rejections != {offered} offered"
            )
        makespan = max((c.finish_time for c in completions), default=0.0)
        throughput, goodput = _windowed_completions(completions, self.series_window)
        served: dict[str, int] = {m.machine_id: 0 for m in machines}
        for placement in placements:
            served[placement.machine_id] += 1
        reports = tuple(
            MachineReport(
                machine_id=m.machine_id,
                machine_name=m.machine_name,
                jobs_served=served[m.machine_id],
                rounds=m.rounds,
                corun_rounds=m.corun_rounds,
                busy_time=m.busy_time,
                utilization=m.busy_time / makespan if makespan > 0 else 0.0,
                local_blacklist=m.tracker.blacklisted_pairs(),
                retries=m.retries,
                preemptions=m.preemptions,
                lost_steps=m.lost_steps,
                downtime=(
                    max(0.0, makespan - m.dead_since)
                    if m.dead_since is not None
                    else 0.0
                ),
            )
            for m in machines
        )
        return FleetResult(
            policy_name=self.policy.name,
            machine_names=self.machine_names,
            num_jobs=offered,
            makespan=makespan,
            completions=tuple(sorted(completions, key=lambda c: (c.finish_time, c.job))),
            placements=tuple(placements),
            machine_reports=reports,
            blacklisted_pairs=self.tracker.blacklisted_pairs(),
            failures=tuple(sorted(failures, key=lambda f: (f.failed_time, f.job))),
            rejections=tuple(
                sorted(rejections, key=lambda r: (r.rejected_time, r.job))
            ),
            series_window=self.series_window,
            queue_depth_series=depth_series,
            throughput_series=throughput,
            goodput_series=goodput,
            retries=sum(m.retries for m in machines),
            preemptions=sum(m.preemptions for m in machines),
            lost_steps=sum(m.lost_steps for m in machines),
            scheduler_overhead_seconds=overhead,
            estimates_requested=self.estimator.stats.requests - requests_before,
            estimates_computed=self.estimator.stats.computed - computed_before,
            events_processed=events,
        )

    # -- the event loop (round compression) -------------------------------------------

    def _run_loop(
        self,
        stream: Iterator[Job],
        machines: list[MachineState],
        injector: FaultInjector,
        controller: AdmissionController,
    ) -> tuple:
        """The event loop: run the stream to completion and return the
        raw outcome tuple :meth:`run` assembles.  The test oracle
        ``tests/reference_fleet.py`` overrides it with the
        one-event-per-round loop."""
        by_id = {m.machine_id: m for m in machines}
        #: Arrival-ordered pending index: insertion order is FIFO arrival
        #: order, removal is O(1) by job name (the reference path's
        #: ``list(queue)`` + ``queue.remove`` is O(n^2) per dispatch).
        pending: dict[str, Job] = {}
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
        #: Execution attempts / restored progress of requeued jobs, as in
        #: the reference loop (tests/reference_fleet.py).  An attempts
        #: entry exists only for crash-requeued/failed jobs and doubles
        #: as the deadline exemption: a missing entry marks the job still
        #: deadline-eligible.  A crash/preempt restores a job's progress
        #: to its last completed round boundary.
        attempts: dict[str, int] = {}
        remaining_override: dict[str, int] = {}
        max_retries = injector.max_retries
        overhead = 0.0
        now = 0.0
        #: Latest end of a round a fault aborted.  The reference loop's
        #: stale event for such a round still pops at that instant, and
        #: a dead fleet fails its stranded jobs at the last popped event.
        aborted_until = 0.0
        seq = 0
        events_processed = 0
        queue_view: tuple[Job, ...] | None = ()

        #: (time, kind, seq, payload) — kind orders round-ends before
        #: faults before deadline expiries before arrivals at equal
        #: timestamps, seq keeps FIFO among equals (fault instants replay
        #: in plan order).  Arrivals are pulled lazily: exactly one
        #: future arrival lives in the heap, and popping it pushes the
        #: next — heap order is decided by (time, kind) before seq, and
        #: equal-time arrivals keep their relative push order, so the
        #: outcome is byte-identical to pushing the whole trace up front.
        events: list[tuple[float, int, int, object]] = []
        #: Boundary calendar: ``(next unflushed boundary, machine index,
        #: epoch)`` for every machine with a running segment, so
        #: ``sync_to`` pops the due machines instead of scanning the
        #: fleet.  An entry is stale once the machine's ``round_active``,
        #: ``epoch`` or ``busy_until`` no longer match it; stale entries
        #: are dropped when popped.  Not checkpointed: a resume rebuilds
        #: it from the restored machines.
        calendar: list[tuple[float, int, int]] = []
        #: Fleet-wide pair-history runs queued by ``flush``, keyed by the
        #: ``id()`` of the history deque the entry holds: per deque, a
        #: list of ``(last boundary, machine index, boundaries, values per
        #: round)``.  ``merge_fleet_runs`` empties it after a full sync;
        #: capture() merges first, so it is never checkpointed.
        fleet_runs: dict[int, tuple[deque, list]] = {}
        arrivals_pulled = 0
        ckpt = self._ckpt
        #: A policy that reads no round progress is shown lagging views
        #: at an arrival with the queue empty: ``lagging`` is set while
        #: such an arrival is handled without a full sync, and every
        #: machine is flushed to ``now`` before anything reads it.
        reads_progress = getattr(self.policy, "reads_progress", True)
        lagging = False

        def push_next_arrival() -> None:
            nonlocal seq, arrivals_pulled
            job = next(stream, None)
            if job is not None:
                arrivals_pulled += 1
                heapq.heappush(events, (job.arrival_time, _ARRIVAL, seq, job))
                seq += 1

        placements_pack = _PackCache()
        completions_pack = _PackCache()
        if self._resume_payload is None:
            push_next_arrival()
            for instant in injector.timeline():
                heapq.heappush(events, (instant.time, _FAULT, seq, instant))
                seq += 1
        else:
            # Restore the captured loop state wholesale.  The pending
            # fault instants, the in-flight arrival and every timer
            # already live in the captured heap, so the initial pushes
            # above must not run again.  Machines, tracker and heap were
            # pickled as ONE payload, so the seg_records' live references into
            # the machine-local and fleet-wide interference history
            # deques are still shared after the round-trip; the queue of
            # fleet-history runs starts empty, as capture() left it.
            state = self._resume_payload["state"]
            now = state["now"]
            aborted_until = state["aborted_until"]
            seq = state["seq"]
            offered = state["offered"]
            overhead = state["overhead"]
            events_processed = state["events_processed"]
            arrivals_pulled = state["arrivals_pulled"]
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
            queue_view = None
            calendar = [
                (m.busy_until, index, m.epoch)
                for index, m in enumerate(machines)
                if m.round_active
            ]
            heapq.heapify(calendar)

        def capture() -> dict:
            # A snapshot carries no queued fleet-history run: bring every
            # machine to ``now`` and merge the queue first.
            sync_to(now)
            merge_fleet_runs()
            return {
                "mode": "compressed",
                "now": now,
                "aborted_until": aborted_until,
                "seq": seq,
                "offered": offered,
                "overhead": overhead,
                "events_processed": events_processed,
                "arrivals_pulled": arrivals_pulled,
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
                "tracker": self.tracker,
            }

        def next_seq() -> int:
            nonlocal seq
            value = seq
            seq += 1
            return value

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
            # Dirty-flag cache read, as in the reference loop: only
            # touched machines pay the view() rebuild call.  A list
            # comprehension builds the thousand-machine tuple faster
            # than a generator.
            return FleetState(
                time=now,
                machines=tuple([m._view_cache or m.view() for m in machines]),
                queue=queue_view,
                queue_limit=queue_limit,
            )

        def flush(
            machine: MachineState, index: int, horizon: float, inclusive: bool
        ) -> None:
            """Flush every boundary of ``machine``'s segment at or before
            ``horizon`` (strictly before unless ``inclusive``) in one step.

            Mirrors the reference loop's per-round ``finish_round`` +
            ``start_round`` accounting in closed form.  ``busy_time``
            folds one addition per round in order (``_accumulate_rounds``),
            as the reference's per-event ``+=`` does (never ``sum()``: it
            compensates float sums on Python 3.12).  A machine-local
            history only ever sees this machine's boundaries, so it is
            extended here; fleet-wide histories are shared, so the
            flushed boundaries are queued as one run per history for
            ``merge_fleet_runs``.
            """
            busy_until = machine.busy_until
            if busy_until > horizon or (busy_until == horizon and not inclusive):
                return
            left = machine.seg_rounds_left
            round_time = machine.round_time
            if left == 1:
                count = 1
                machine.busy_time += round_time
            else:
                bounds = machine.seg_bounds
                done = len(bounds) - left
                upto = (bisect_right if inclusive else bisect_left)(
                    bounds, horizon, done
                )
                count = upto - done
                machine.busy_time = _accumulate_rounds(
                    machine.busy_time, round_time, count + 1
                )[-1]
            machine.rounds += count
            if machine.seg_records:
                machine.corun_rounds += count
                if machine.seg_blacklist:
                    for kind_a, kind_b in machine.seg_blacklist:
                        machine.tracker.mark_blacklisted(kind_a, kind_b)
                        self.tracker.mark_blacklisted(kind_a, kind_b)
                    machine.seg_blacklist = ()
                for machine_history, fleet_history, values in machine.seg_records:
                    machine_history.extend(
                        values
                        * _window_rounds(count, len(values), machine_history.maxlen)
                    )
                    maxlen = fleet_history.maxlen
                    if left == 1:
                        run = (busy_until, index, (busy_until,), values)
                    else:
                        # Only the boundaries that can still reach the
                        # window: later ones of this run push out the rest.
                        keep = _window_rounds(count, len(values), maxlen)
                        run = (
                            bounds[upto - 1], index, bounds[upto - keep : upto], values
                        )
                    entry = fleet_runs.get(id(fleet_history))
                    if entry is None:
                        fleet_runs[id(fleet_history)] = (fleet_history, [run])
                        continue
                    runs = entry[1]
                    runs.append(run)
                    if maxlen is not None and len(runs) > 2 * maxlen:
                        # Each run ending later than another puts at
                        # least one value after that run's last one, so
                        # a run with maxlen later-ending runs behind it
                        # can never reach the window, whatever later
                        # flushes add.
                        runs.sort()
                        del runs[:-maxlen]
            remaining = machine.remaining_steps
            if left > count:
                for job in machine.residents:
                    remaining[job.name] -= count
                machine.seg_rounds_left = left - count
                machine.busy_until = bounds[upto]
                machine.touch()
                return
            # The segment's last boundary: retire the finished residents.
            if left > 1:
                busy_until = machine.busy_until = bounds[-1]
            still_running: list[Job] = []
            for job in machine.residents:
                steps = remaining[job.name] - count
                remaining[job.name] = steps
                if steps <= 0:
                    del remaining[job.name]
                    completions.append(
                        JobCompletion(
                            job=job.name,
                            kind=job.kind,
                            machine_id=machine.machine_id,
                            arrival_time=job.arrival_time,
                            start_time=start_times.pop(job.name),
                            finish_time=busy_until,
                            num_steps=job.num_steps,
                            attempts=attempts.get(job.name, 1),
                        )
                    )
                else:
                    still_running.append(job)
            machine.residents = still_running
            machine.round_active = False
            machine.seg_rounds_left = 0
            machine.seg_bounds = ()
            if machine.draining and not machine.residents and not machine.waiting:
                machine.alive = False
                machine.draining = False
                machine.dead_since = busy_until
            machine.touch()

        def merge_fleet_runs() -> None:
            """Append the queued runs to their fleet-wide pair histories in
            ``(boundary, machine index, record)`` order — the order the
            reference loop's heap pops round ends in.

            Only valid after a full sync: every boundary flushed later
            then sorts after every queued one.  Each boundary appends at
            least one value, so only a history's latest ``maxlen``
            boundaries can show in it: one descending merge of the runs
            takes just those."""
            for fleet_history, runs in fleet_runs.values():
                latest = heapq.merge(
                    *[
                        zip(reversed(bounds), repeat(index), repeat(values))
                        for _, index, bounds, values in runs
                    ],
                    reverse=True,
                )
                for _, _, values in reversed([*islice(latest, fleet_history.maxlen)]):
                    fleet_history.extend(values)
            fleet_runs.clear()

        def sync_to(now_time: float, inclusive: bool | None = None) -> None:
            """Flush every machine's boundaries at or before ``now_time``.

            The calendar finds the due machines and each flushes all of
            its due boundaries in one step; the fleet-wide histories'
            global order is restored by ``merge_fleet_runs``.  While the
            queue is non-empty, boundaries at exactly ``now_time`` are
            left alone: each has its own round-end event, and the
            reference loop dispatches between them.  ``inclusive``
            overrides that rule for a sync an arrival deferred.
            """
            if inclusive is None:
                inclusive = not pending
            while calendar:
                boundary, index, epoch = calendar[0]
                if boundary > now_time or (boundary == now_time and not inclusive):
                    break
                heapq.heappop(calendar)
                machine = machines[index]
                if (
                    not machine.round_active
                    or machine.epoch != epoch
                    or machine.busy_until != boundary
                ):
                    continue  # stale: truncated, restarted or flushed
                flush(machine, index, now_time, inclusive)
                if machine.round_active:
                    heapq.heappush(
                        calendar, (machine.busy_until, index, machine.epoch)
                    )

        def truncate(machine: MachineState) -> None:
            """Clamp a running segment to its current round (mix about to
            change, or per-round policy consultation required)."""
            if machine.round_active and machine.seg_rounds_left > 1:
                machine.seg_rounds_left = 1
                machine.seg_bounds = ()
                machine.epoch += 1
                index = int(machine.machine_id[1:])
                heapq.heappush(calendar, (machine.busy_until, index, machine.epoch))
                heapq.heappush(
                    events,
                    (machine.busy_until, _ROUND_END, index,
                     (machine.machine_id, machine.epoch)),
                )

        def start_segment(machine: MachineState) -> None:
            """Admit waiting jobs and batch-schedule the next stable-mix run
            of ``k = min(remaining steps)`` rounds as one heap event."""
            machine.residents.extend(machine.waiting)
            machine.waiting.clear()
            machine.touch()
            if not machine.residents:
                return
            residents = machine.residents
            for job in residents:
                start_times.setdefault(job.name, now)
            base = self.estimator.step_time(machine.machine_name, residents)
            machine.round_base = base
            round_time = scale_step_time(base, machine.straggle)
            machine.round_time = round_time
            machine.busy_until = now + round_time
            machine.round_active = True
            if len(residents) > 1:
                solos = {
                    job.name: self.estimator.solo_time(machine.machine_name, job)
                    for job in residents
                }
                threshold = self.tracker.threshold
                # One record per pairing history, holding the values a
                # round appends to it in pair order (a mix of three can
                # append twice to one history).
                records: dict[int, tuple] = {}
                crossing = []
                for i, job_a in enumerate(residents):
                    for job_b in residents[i + 1 :]:
                        baseline = max(solos[job_a.name], solos[job_b.name])
                        # Slowdowns compare the *unscaled* duration: a
                        # straggling machine is slow, not a bad pairing.
                        slowdown = (
                            base / baseline - 1.0 if baseline > 0 else 0.0
                        )
                        if slowdown < 0:
                            slowdown = 0.0
                        kinds = (job_a.kind, job_b.kind)
                        history = machine.tracker.history_for(*kinds)
                        record = records.get(id(history))
                        if record is None:
                            records[id(history)] = (
                                history,
                                self.tracker.history_for(*kinds),
                                (slowdown,),
                            )
                        else:
                            records[id(history)] = (*record[:2], record[2] + (slowdown,))
                        if slowdown > threshold:
                            crossing.append(kinds)
                machine.seg_records = tuple(records.values())
                machine.seg_blacklist = tuple(crossing)
            else:
                machine.seg_records = ()
                machine.seg_blacklist = ()
            rounds = min(machine.remaining_steps[job.name] for job in residents)
            if pending:
                # Queued jobs are re-dispatched at every round boundary in
                # the reference loop; clamp to one round so the policy sees
                # the identical per-round state sequence.
                rounds = 1
            machine.seg_rounds_left = rounds
            end = machine.busy_until
            if rounds > 1:
                # Every boundary of the segment, one addition per round:
                # the floats the reference loop's per-round
                # ``now + round_time`` produces.
                machine.seg_bounds = _accumulate_rounds(end, round_time, rounds)
                end = machine.seg_bounds[-1]
            machine.epoch += 1
            index = int(machine.machine_id[1:])
            heapq.heappush(calendar, (machine.busy_until, index, machine.epoch))
            heapq.heappush(
                events,
                (end, _ROUND_END, index, (machine.machine_id, machine.epoch)),
            )

        def dispatch() -> None:
            nonlocal overhead, queue_view
            if not pending:
                return
            # A decline changes nothing a policy can see, so one state
            # serves the pass until a placement (the reference loop
            # builds one per job, which the equivalence suite compares).
            # A state without a free slot ends the pass: any answer but
            # None would raise below, so no policy can place a job.
            state = None
            for job in list(pending.values()):
                if state is None:
                    state = fleet_state()
                    if not any(map(_free_slots, state.machines)):
                        return
                tick = _time.perf_counter()
                choice = self.policy.place(job, state)
                overhead += _time.perf_counter() - tick
                if choice is None:
                    continue
                state = None
                machine = by_id[choice]
                if machine.free_slots <= 0:
                    raise RuntimeError(
                        f"policy {self.policy.name!r} placed {job.name!r} on full "
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
                    Placement(
                        job=job.name, kind=job.kind, machine_id=choice, time=now
                    )
                )
                if not machine.round_active:
                    start_segment(machine)
                else:
                    if lagging:
                        # This arrival skipped the sync: the next
                        # boundary is the first after ``now``.
                        index = int(choice[1:])
                        flush(machine, index, now, True)
                        heapq.heappush(
                            calendar, (machine.busy_until, index, machine.epoch)
                        )
                    # The new member joins at the next boundary: the mix
                    # changes there, so the segment must end there too.
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
            """Discard an in-flight round and the rest of its segment.

            Every boundary up to ``now`` was already flushed by the
            handler's ``sync_to``, so only the partial round between the
            last boundary and ``busy_until`` is destroyed — exactly the
            round the reference loop's ``abort_round`` discards."""
            nonlocal aborted_until
            if machine.round_active:
                aborted_until = max(aborted_until, machine.busy_until)
                machine.lost_steps += len(machine.residents)
                machine.round_active = False
                machine.seg_rounds_left = 0
                machine.seg_bounds = ()
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
            """Mirror of the reference loop's fault application; the
            caller has already flushed every boundary due at ``now``."""
            nonlocal queue_view
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
                # Rounds past this instant run at the new speed, so the
                # current segment may not extend beyond its current round.
                truncate(machine)
            elif action == faultlib.STRAGGLER_END:
                factors = list(machine.straggle)
                if event.factor in factors:
                    factors.remove(event.factor)
                machine.straggle = tuple(factors)
                truncate(machine)
            return restart

        while events:
            if ckpt is not None and events_processed >= ckpt._trigger:
                # Loop tops are between events; capture() syncs the fleet
                # to ``now`` first, so the captured state round-trips
                # exactly.  The inlined ``_trigger`` guard keeps the
                # common no-save iteration to one compare.
                ckpt.tick(events_processed, capture)
            event_time, kind, tie, payload = heapq.heappop(events)
            if kind == _ROUND_END:
                machine_id, epoch = payload  # type: ignore[misc]
                machine = by_id[machine_id]
                if epoch != machine.epoch:
                    # Superseded by a truncation or a new segment.  It
                    # may lie past every event the reference loop pops,
                    # so it does not move ``now``.
                    continue
            now = event_time
            if kind == _ARRIVAL:
                events_processed += 1
                push_next_arrival()
                # Every admission decision is a mandatory boundary:
                # replay due rounds first (the queue-emptiness gate must
                # be read *before* this arrival joins).  With the queue
                # empty, a policy that reads no round progress sees
                # nothing a mid-segment flush changes (segment ends at
                # or before ``now`` have popped already), so the sync
                # waits until a machine is read.
                lagging = not (reads_progress or pending)
                if not lagging:
                    sync_to(now)
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
                if lagging:
                    lagging = False
                    if pending:
                        # The job stayed queued: every segment is cut
                        # at its next boundary below.
                        sync_to(now, True)
            elif kind == _FAULT:
                events_processed += 1
                # Every fault instant is a mandatory segment boundary:
                # flush all due rounds first, then mutate the fleet.
                sync_to(now)
                restart = apply_fault(payload)  # type: ignore[arg-type]
                dispatch()
                for machine in restart:
                    if not machine.round_active and (
                        machine.residents or machine.waiting
                    ):
                        start_segment(machine)
            elif kind == _EXPIRE:
                job = payload  # type: ignore[assignment]
                # Stale timer — mirrors the reference loop's check; no
                # state changed, so no boundary needs flushing.
                if job.name in attempts or job.name not in pending:
                    continue
                events_processed += 1
                # A live expiry sheds from a non-empty queue, so every
                # segment is already clamped: boundaries *at* now had
                # their own heap events (processed first by kind order),
                # and sync_to replays the strictly earlier ones.
                sync_to(now)
                del pending[job.name]
                queue_view = None
                shed(job, "deadline-expire")
                dispatch()
            else:
                events_processed += 1
                # Only this machine's segment ends here (a round end's
                # ``tie`` is its machine index).  No other machine is
                # read: with the queue empty dispatch() returns at once,
                # and with jobs queued every segment is one round with
                # its own event.
                if machine.round_active:
                    flush(machine, tie, now, True)
                dispatch()
                if not machine.round_active:
                    start_segment(machine)
            if pending and kind != _ROUND_END:
                # Reference semantics: with jobs queued, every machine's
                # every round boundary triggers a fresh dispatch.  Only
                # an arrival or a fault can queue a job behind running
                # multi-round segments; a round end cannot, and every
                # segment started while jobs are queued is one round.
                for m in machines:
                    truncate(m)

        # Every segment has ended, so every boundary is flushed.
        merge_fleet_runs()
        if pending:
            if any(m.accepting for m in machines):
                stuck = list(pending)
                raise FleetStalled(
                    f"fleet simulation stalled with {len(pending)} jobs queued "
                    f"(policy {self.policy.name!r} kept declining placements): "
                    + ", ".join(stuck),
                    stuck,
                )
            # Dead fleet: fail the stranded jobs at the reference loop's
            # last popped event (see ``aborted_until``).
            now = max(now, aborted_until)
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
