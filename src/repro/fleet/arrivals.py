"""Open-loop arrival processes and admission control for the fleet.

PR 4-6 fed :class:`~repro.fleet.simulator.FleetSimulator` a *closed*,
pre-built job trace.  This module promotes the fleet to an online
service model:

* an :class:`ArrivalProcess` is a seeded **lazy generator** of jobs in
  nondecreasing arrival order.  The simulator pulls it event-by-event —
  exactly one future arrival is ever buffered in the heap — so a
  million-job open-loop run never materialises its trace, and streaming
  a process is byte-identical to pre-materialising the same process
  into a tuple (``process.materialize()``) and replaying that.
* an :class:`AdmissionController` bounds the central queue (reject new
  arrivals or shed the oldest queued job when the queue is full) and/or
  expires jobs that wait past a per-job deadline.  Shed jobs become
  :class:`~repro.fleet.simulator.JobRejection` records on the result,
  alongside completions and failures, so
  ``completions + failures + rejections == offered`` always holds.

Like fault plans (:mod:`repro.fleet.faults`), processes and controllers
are *values*: frozen, seeded, serialisable to dict specs.  The
simulator treats every admission decision and shed instant as a
mandatory segment boundary and stays byte-identical to the
one-event-per-round reference loop of the tests
(``tests/reference_fleet.py``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

from repro.fleet.job import DEFAULT_JOB_MIX, Job, validate_trace
from repro.scenarios import Workload
from repro.utils.seeding import make_rng

#: Shed policies the admission controller understands.
SHED_POLICIES = ("reject-at-arrival", "drop-oldest", "deadline-expire")


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionController:
    """Backpressure rules applied to every arriving job.

    ``queue_limit`` bounds the *central* queue (jobs already placed on a
    machine do not count; crash-requeues of already-admitted jobs bypass
    the limit — admission is decided once, at the front door).  What
    happens when an arrival finds the queue full depends on
    ``shed_policy``:

    * ``"reject-at-arrival"`` — the arriving job is rejected on the spot
      (the queue is untouched);
    * ``"drop-oldest"`` — the oldest queued job is shed to make room and
      the arriving job is admitted;
    * ``"deadline-expire"`` — overflow still rejects at arrival, but the
      policy's defining rule is the ``deadline``: any admitted job still
      queued ``deadline`` simulated seconds after it arrived is shed at
      exactly that instant.

    ``deadline`` may also be combined with the queue policies.  A job
    that has been crash-requeued is exempt from its original deadline —
    it already bought service once; shedding it would double-charge the
    fault.  The default controller (all fields ``None``) admits
    everything, which is exactly the pre-admission behaviour.
    """

    queue_limit: int | None = None
    deadline: float | None = None
    shed_policy: str = "reject-at-arrival"

    def __post_init__(self) -> None:
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r}; "
                f"expected one of {', '.join(SHED_POLICIES)}"
            )
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.shed_policy == "drop-oldest" and self.queue_limit is None:
            raise ValueError("shed_policy 'drop-oldest' requires a queue_limit")
        if self.shed_policy == "deadline-expire" and self.deadline is None:
            raise ValueError("shed_policy 'deadline-expire' requires a deadline")

    @property
    def active(self) -> bool:
        """Whether this controller can ever shed anything."""
        return self.queue_limit is not None or self.deadline is not None

    @property
    def drop_oldest(self) -> bool:
        return self.shed_policy == "drop-oldest"

    def to_dict(self) -> dict:
        return {
            "queue_limit": self.queue_limit,
            "deadline": self.deadline,
            "shed_policy": self.shed_policy,
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "AdmissionController":
        return cls(
            queue_limit=spec.get("queue_limit"),
            deadline=spec.get("deadline"),
            shed_policy=spec.get("shed_policy", "reject-at-arrival"),
        )


#: The admit-everything controller both loops fall back to.
NO_ADMISSION = AdmissionController()


def resolve_admission(value) -> AdmissionController:
    """Coerce ``None`` / controller / spec dict into a controller."""
    if value is None:
        return NO_ADMISSION
    if isinstance(value, AdmissionController):
        return value
    if isinstance(value, dict):
        return AdmissionController.from_dict(value)
    raise TypeError(
        "admission must be an AdmissionController, a spec dict or None, "
        f"not {type(value).__name__}"
    )


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------


def _first_equal_index(workloads: Sequence[Workload]) -> tuple[int, ...]:
    """``workloads.index(w)`` for every position, precomputed once.

    Graph seeds are assigned per workload *kind* (first equal entry), so
    duplicate catalog entries share graphs.  The per-job linear scan the
    seed ``generate_trace`` did is O(catalog) per job — noticeable at a
    million jobs — so processes pay for the map once up front.
    """
    first: list[int] = []
    for index, workload in enumerate(workloads):
        for earlier in range(index + 1):
            if workloads[earlier] == workload:
                first.append(earlier)
                break
    return tuple(first)


def name_width(num_jobs: int) -> int:
    """Zero-padding for generated job names.

    At least 3 digits (the historical ``job-000-...`` shape that
    registered fault specs and docs reference), growing with the trace
    so names keep sorting lexically in arrival order past 999 jobs.
    """
    return max(3, len(str(max(num_jobs - 1, 0))))


class ArrivalProcess:
    """Base class: a seeded lazy stream of jobs.

    Subclasses are frozen dataclasses whose :meth:`jobs` yields
    :class:`Job` values in nondecreasing ``arrival_time`` order.  A
    process is a *factory*: every :meth:`jobs` call starts a fresh,
    identically seeded generator, so one process value can drive many
    simulations.
    """

    #: Registry key (``"poisson"``, ``"diurnal"``, ...).
    kind: ClassVar[str] = "abstract"

    # Subclasses provide ``num_jobs`` as a dataclass field or property.
    num_jobs: int

    def jobs(self) -> Iterator[Job]:
        raise NotImplementedError

    def materialize(self) -> tuple[Job, ...]:
        """The full trace as a tuple — for tests, replay and small runs."""
        return tuple(self.jobs())

    def prewarm_jobs(self) -> tuple[Job, ...]:
        """Representative jobs (one per workload kind) for estimator prewarm.

        Streaming runs cannot hand the whole trace to
        :meth:`StepTimeEstimator.prewarm`, but step-time signatures only
        depend on the workload multiset — one representative per distinct
        kind covers every mix the trace can form.  These jobs are never
        simulated.
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class _GeneratedArrivals(ArrivalProcess):
    """Shared machinery for the seeded generative processes.

    Per job, the draw order is fixed — workload index, step count, then
    the interarrival gap — so :class:`PoissonArrivals` reproduces the
    seed :func:`~repro.fleet.job.generate_trace` byte-for-byte and every
    subclass only customises the gap.
    """

    num_jobs: int
    seed: int = 0
    mean_interarrival: float = 2.0
    workloads: tuple[Workload, ...] = DEFAULT_JOB_MIX
    min_steps: int = 3
    max_steps: int = 10

    def __post_init__(self) -> None:
        if self.num_jobs < 0:
            raise ValueError("num_jobs must be non-negative")
        if not self.workloads:
            raise ValueError("the workload catalog must be non-empty")
        if not 1 <= self.min_steps <= self.max_steps:
            raise ValueError("need 1 <= min_steps <= max_steps")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not isinstance(self.workloads, tuple):
            object.__setattr__(self, "workloads", tuple(self.workloads))

    def _gap(self, rng, clock: float) -> float:
        """Next interarrival gap, drawn from ``rng`` at simulated ``clock``."""
        raise NotImplementedError

    def jobs(self) -> Iterator[Job]:
        rng = make_rng(self.seed)
        width = name_width(self.num_jobs)
        first = _first_equal_index(self.workloads)
        catalog = len(self.workloads)
        clock = 0.0
        for index in range(self.num_jobs):
            widx = int(rng.integers(0, catalog))
            workload = self.workloads[widx]
            steps = int(rng.integers(self.min_steps, self.max_steps + 1))
            clock += self._gap(rng, clock)
            yield Job(
                name=f"job-{index:0{width}d}-{workload.name}",
                workload=workload,
                num_steps=steps,
                arrival_time=clock,
                graph_seed=self.seed + first[widx],
            )

    def prewarm_jobs(self) -> tuple[Job, ...]:
        if self.num_jobs == 0:
            return ()
        first = _first_equal_index(self.workloads)
        return tuple(
            Job(
                name=f"prewarm-{widx}-{workload.name}",
                workload=workload,
                num_steps=self.min_steps,
                arrival_time=0.0,
                graph_seed=self.seed + widx,
            )
            for widx, workload in enumerate(self.workloads)
            if first[widx] == widx
        )

    def to_dict(self) -> dict:
        spec: dict = {"kind": self.kind}
        for f in fields(self):
            if f.name == "workloads":
                # Omitted for the default catalog (keeps registered specs
                # shape-only); a custom catalog must survive the round-trip.
                if self.workloads != DEFAULT_JOB_MIX:
                    spec["workloads"] = [
                        dataclasses.asdict(workload) for workload in self.workloads
                    ]
                continue
            spec[f.name] = getattr(self, f.name)
        return spec


@dataclass(frozen=True)
class PoissonArrivals(_GeneratedArrivals):
    """Memoryless arrivals at a constant mean rate.

    Byte-identical to the seed :func:`~repro.fleet.job.generate_trace`
    for the same parameters (which now delegates here).
    """

    kind: ClassVar[str] = "poisson"

    def _gap(self, rng, clock: float) -> float:
        return float(rng.exponential(self.mean_interarrival))


@dataclass(frozen=True)
class DiurnalArrivals(_GeneratedArrivals):
    """Poisson arrivals whose rate swings sinusoidally — a day/night cycle.

    The instantaneous rate is ``(1 + amplitude * sin(2π · t / period))``
    times the base rate, so load peaks ``(1 + amplitude)``× above the
    mean once per ``period`` and troughs ``(1 - amplitude)``× below it.
    ``amplitude`` must stay below 1 (the rate never reaches zero).
    """

    kind: ClassVar[str] = "diurnal"
    period: float = 200.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")

    def _gap(self, rng, clock: float) -> float:
        rate_factor = 1.0 + self.amplitude * math.sin(math.tau * clock / self.period)
        return float(rng.exponential(self.mean_interarrival / rate_factor))


@dataclass(frozen=True)
class BurstyArrivals(_GeneratedArrivals):
    """Heavy-tailed flash-crowd arrivals: tight bursts, Pareto quiet gaps.

    Jobs arrive in geometric bursts of mean length ``burst_size``;
    inside a burst, gaps are exponential with mean
    ``mean_interarrival * intra_burst_gap`` (a tiny fraction of the base
    gap), and between bursts the gap is ``mean_interarrival`` scaled by
    ``1 + Pareto(tail_alpha)`` — a heavy tail, so occasional long lulls
    separate the crowds.  ``tail_alpha ≤ 1`` gives an infinite-mean lull
    distribution; the default 1.5 is heavy but integrable.
    """

    kind: ClassVar[str] = "bursty"
    burst_size: int = 4
    intra_burst_gap: float = 0.05
    tail_alpha: float = 1.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if self.intra_burst_gap <= 0:
            raise ValueError("intra_burst_gap must be positive")
        if self.tail_alpha <= 0:
            raise ValueError("tail_alpha must be positive")

    def jobs(self) -> Iterator[Job]:
        # Stateful gap draw (burst countdown), so override jobs() rather
        # than _gap(); the per-job draw prefix (workload, steps) is kept
        # identical to the other generative processes.
        rng = make_rng(self.seed)
        width = name_width(self.num_jobs)
        first = _first_equal_index(self.workloads)
        catalog = len(self.workloads)
        clock = 0.0
        in_burst = 0
        for index in range(self.num_jobs):
            widx = int(rng.integers(0, catalog))
            workload = self.workloads[widx]
            steps = int(rng.integers(self.min_steps, self.max_steps + 1))
            if in_burst > 0:
                gap = self.mean_interarrival * self.intra_burst_gap
                gap *= float(rng.exponential(1.0))
                in_burst -= 1
            else:
                gap = self.mean_interarrival * (1.0 + float(rng.pareto(self.tail_alpha)))
                in_burst = int(rng.geometric(1.0 / self.burst_size))
            clock += gap
            yield Job(
                name=f"job-{index:0{width}d}-{workload.name}",
                workload=workload,
                num_steps=steps,
                arrival_time=clock,
                graph_seed=self.seed + first[widx],
            )


@dataclass(frozen=True)
class ReplayArrivals(ArrivalProcess):
    """An existing trace wrapped as a process (sorted into arrival order)."""

    kind: ClassVar[str] = "replay"
    trace: tuple[Job, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.trace, key=lambda job: (job.arrival_time, job.name))
        )
        validate_trace(ordered)
        object.__setattr__(self, "trace", ordered)

    @property
    def num_jobs(self) -> int:
        return len(self.trace)

    def jobs(self) -> Iterator[Job]:
        return iter(self.trace)

    def prewarm_jobs(self) -> tuple[Job, ...]:
        return self.trace

    def to_dict(self) -> dict:
        """The concrete trace, job by job (round-trips via
        :func:`arrival_from_dict`; can be large — one entry per job)."""
        return {
            "kind": self.kind,
            "trace": [job.to_dict() for job in self.trace],
        }


#: Spec-constructible process kinds (replay carries jobs, so it is built
#: from a sequence, not a spec).
ARRIVAL_KINDS: dict[str, type] = {
    "poisson": PoissonArrivals,
    "diurnal": DiurnalArrivals,
    "bursty": BurstyArrivals,
}


def build_arrivals(spec: dict, **defaults) -> ArrivalProcess:
    """Instantiate a process from a spec dict, filling omitted fields.

    Registered arrival specs describe a load *shape* (kind + shape
    parameters) and leave ``num_jobs`` / ``seed`` / step bounds to the
    caller; ``defaults`` supplies those when the spec omits them.
    """
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind not in ARRIVAL_KINDS:
        known = ", ".join(sorted(ARRIVAL_KINDS))
        raise ValueError(f"unknown arrival process kind {kind!r}; expected one of {known}")
    for key, value in defaults.items():
        if value is not None and key not in params:
            params[key] = value
    workloads = params.get("workloads")
    if workloads is not None:
        try:
            params["workloads"] = tuple(
                w if isinstance(w, Workload) else Workload(**w) for w in workloads
            )
        except TypeError as exc:
            raise ValueError(f"bad workload catalog in arrival spec: {exc}") from None
    try:
        return ARRIVAL_KINDS[kind](**params)
    except TypeError as exc:
        raise ValueError(f"bad arrival spec for kind {kind!r}: {exc}") from None


def arrival_from_dict(spec: dict, **defaults) -> ArrivalProcess:
    """Symmetric inverse of :meth:`ArrivalProcess.to_dict`.

    Handles every process kind — the generative shapes go through
    :func:`build_arrivals` (so ``defaults`` still fills omitted fields),
    and ``"replay"`` specs rebuild their concrete job trace.  Both the
    run store and the scenario arrival-spec registry deserialise through
    this one entry point.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"an arrival spec must be a dict, got {type(spec).__name__}")
    if spec.get("kind") == ReplayArrivals.kind:
        trace = spec.get("trace")
        if not isinstance(trace, (list, tuple)):
            raise ValueError("a replay arrival spec needs a 'trace' list of jobs")
        return ReplayArrivals(
            trace=tuple(
                job if isinstance(job, Job) else Job.from_dict(job) for job in trace
            )
        )
    return build_arrivals(spec, **defaults)


def resolve_arrivals(value, **defaults) -> ArrivalProcess:
    """Coerce the many ways callers name an arrival process.

    Accepts a process (pass-through), a sequence of jobs (wrapped in
    :class:`ReplayArrivals`), a spec dict, or a string: a process kind
    (``"poisson"``), a registered arrival-spec name
    (:func:`repro.scenarios.available_arrival_specs`), inline JSON, or a
    path to a JSON file.  ``defaults`` fills spec fields the named shape
    leaves open (``num_jobs=...``, ``seed=...``, ...), mirroring
    :func:`repro.fleet.faults.resolve_fault_plan`.
    """
    if isinstance(value, ArrivalProcess):
        return value
    if isinstance(value, dict):
        return arrival_from_dict(value, **defaults)
    if isinstance(value, str):
        if value in ARRIVAL_KINDS:
            return build_arrivals({"kind": value}, **defaults)
        from repro.scenarios import ARRIVAL_SPECS  # deferred: scenario registry

        if value in ARRIVAL_SPECS:
            from repro.scenarios import get_arrival_spec

            return build_arrivals(get_arrival_spec(value), **defaults)
        text = value
        if not text.lstrip().startswith("{"):
            path = Path(value)
            if not path.is_file():
                raise ValueError(
                    f"unknown arrival process {value!r}: not a kind, not a "
                    "registered spec, not JSON and not a readable file"
                )
            text = path.read_text()
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad arrival-spec JSON: {exc}") from None
        if not isinstance(spec, dict):
            raise ValueError("arrival-spec JSON must be an object")
        return arrival_from_dict(spec, **defaults)
    if isinstance(value, Iterable):
        return ReplayArrivals(trace=tuple(value))
    raise TypeError(
        "arrivals must be an ArrivalProcess, a job sequence, a spec dict "
        f"or a string, not {type(value).__name__}"
    )


def validated_stream(stream: Iterator[Job]) -> Iterator[Job]:
    """Cheap streaming trace validation (monotone arrivals, sane steps).

    The full :func:`~repro.fleet.job.validate_trace` needs the whole
    trace in hand (duplicate-name detection); streamed processes are
    trusted to generate unique names, and this wrapper only enforces the
    invariants the event loop itself relies on — O(1) memory.
    """
    last = 0.0
    for job in stream:
        if job.arrival_time < last:
            raise ValueError(
                f"arrival process went backwards in time at job {job.name!r} "
                f"({job.arrival_time} < {last})"
            )
        if job.num_steps < 1:
            raise ValueError(
                f"job {job.name!r} has non-positive num_steps ({job.num_steps})"
            )
        last = job.arrival_time
        yield job
