"""Discrete-event simulator of one training step.

The simulator executes a :class:`~repro.graph.dataflow.DataflowGraph`
under a pluggable :class:`SchedulingPolicy`.  It owns the clock, the core
allocator, dependency tracking and the contention model; the policy only
decides *which ready operations to launch, with how many threads and on
which kind of placement* — exactly the decision surface of the paper's
runtime (and of the TensorFlow baselines it compares against).

The simulation is incremental: it keeps a :class:`ContentionState` up
to date as operations launch and finish, caches each operation's
characterization and contention view at launch time, advances progress
lazily (an operation's remaining time only needs touching when its
slowdown factor actually changes) and tracks the earliest finish with a
heap — O(changed factors) per event instead of O(running · cores).  The
original from-scratch recomputation is kept as the test oracle
``ReferenceStepSimulator`` (``tests/reference_step.py``); the test suite
and the simulator benchmark assert that both produce the same events and
the same ``step_time`` (within float round-off).
"""

from __future__ import annotations

import enum
import heapq
from bisect import insort
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.execsim.contention import ContentionState, RunningOpView
from repro.execsim.events import EventKind, SimulationEvent
from repro.execsim.op_runtime import execution_time_cached
from repro.execsim.trace import ExecutionTrace, OpExecutionRecord
from repro.graph.dataflow import DataflowGraph
from repro.graph.op import OpInstance
from repro.hardware.affinity import AffinityMode, CoreAllocation, CoreAllocator
from repro.hardware.topology import Machine
from repro.ops.cost import CharacterizationCache, characterize_cached
from repro.ops.registry import OpRegistry
from repro.utils.seeding import make_rng


class PlacementKind(enum.Enum):
    """How an operation's threads are placed on the chip."""

    #: Exclusive primary SMT slots (the runtime's normal co-run placement).
    DEDICATED = "dedicated"
    #: Secondary SMT slots of cores whose primary slot is busy (Strategy 4).
    HYPERTHREAD = "hyperthread"
    #: All physical cores, shared with whatever else is running (TensorFlow's
    #: uniform intra-op pool, possibly oversubscribed).
    OVERSUBSCRIBED = "oversubscribed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class LaunchRequest:
    """A policy's request to start one ready operation."""

    op_name: str
    threads: int
    affinity: AffinityMode = AffinityMode.SHARED
    placement: PlacementKind = PlacementKind.DEDICATED

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass(frozen=True)
class RunningOpInfo:
    """Read-only view of a running operation exposed to policies."""

    op: OpInstance
    threads: int
    placement: PlacementKind
    start_time: float
    predicted_finish: float
    cores: int


@dataclass(frozen=True)
class SchedulingContext:
    """Everything a policy may look at when deciding what to launch."""

    time: float
    ready: tuple[OpInstance, ...]
    running: tuple[RunningOpInfo, ...]
    free_cores: int
    free_hyperthread_cores: int
    machine: Machine

    @property
    def any_core_filling_op(self) -> bool:
        """True when a running operation occupies every physical core."""
        return any(r.cores >= self.machine.num_cores for r in self.running)


class SchedulingPolicy(Protocol):
    """The interface both the baselines and the paper's runtime implement."""

    name: str

    def on_step_begin(self, graph: DataflowGraph, machine: Machine) -> None:
        """Called once before the step starts."""

    def select_launches(self, context: SchedulingContext) -> Sequence[LaunchRequest]:
        """Return operations to launch now (possibly empty)."""


@dataclass
class StepResult:
    """Outcome of simulating one training step."""

    policy_name: str
    graph_name: str
    step_time: float
    trace: ExecutionTrace
    forced_launches: int = 0

    def speedup_over(self, other: "StepResult") -> float:
        """Speedup of this result relative to ``other`` (other/self)."""
        if self.step_time <= 0:
            raise ValueError("step_time must be positive to compute a speedup")
        return other.step_time / self.step_time


@dataclass
class _Running:
    op: OpInstance
    request: LaunchRequest
    allocation: CoreAllocation | None
    core_ids: tuple[int, ...]
    base_duration: float
    start_time: float
    remaining_fraction: float = 1.0
    slowdown: float = 1.0
    last_update: float = 0.0
    #: Launch sequence number — the heap tie-breaker that reproduces the
    #: reference oracle's insertion-order min() scan.
    seq: int = 0
    #: Contention view cached at launch (characterization runs once).
    view: RunningOpView | None = None
    #: Absolute predicted finish time; only changes when slowdown changes.
    finish_time: float = 0.0
    #: Cached RunningOpInfo handed to policies, invalidated on slowdown change.
    info: RunningOpInfo | None = field(default=None, compare=False)


class StepSimulator:
    """Simulates training steps of a dataflow graph on a machine model.

    Parameters
    ----------
    machine:
        The machine model (usually :func:`repro.hardware.knl_machine`).
    registry:
        Optional op-cost registry; defaults to the built-in catalog.
    noise_sigma:
        Multiplicative log-normal noise applied to every operation's base
        duration (models run-to-run measurement variation during
        profiling).  Zero (the default) keeps the simulation fully
        deterministic.
    seed:
        Seed for the noise generator.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        registry: OpRegistry | None = None,
        noise_sigma: float = 0.0,
        seed: int = 0,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.machine = machine
        self.registry = registry
        self.noise_sigma = noise_sigma
        self._rng = make_rng(seed)
        #: Per-simulator characterization memo (covers custom registries,
        #: which the process-wide ``characterize_cached`` cannot serve).
        self._registry_cache = (
            CharacterizationCache(registry) if registry is not None else None
        )

    # -- helpers -------------------------------------------------------------

    def _characterize(self, op: OpInstance):
        if self._registry_cache is None:
            return characterize_cached(op)
        return self._registry_cache(op)

    def _noisy(self, duration: float) -> float:
        if self.noise_sigma == 0.0:
            return duration
        return float(duration * self._rng.lognormal(mean=0.0, sigma=self.noise_sigma))

    # -- main entry point ------------------------------------------------------

    def run_step(
        self,
        graph: DataflowGraph,
        policy: SchedulingPolicy,
        *,
        step_name: str = "step",
    ) -> StepResult:
        """Simulate one training step of ``graph`` under ``policy``."""
        graph.validate()
        policy.on_step_begin(graph, self.machine)
        machine = self.machine
        allocator = CoreAllocator(machine.topology)
        trace = ExecutionTrace(step_name=step_name)
        completed: set[str] = set()
        pending: set[str] = {op.name for op in graph}
        ready: set[str] = set(graph.sources())
        #: Ready names kept sorted so context construction avoids re-sorting.
        ready_sorted: list[str] = sorted(ready)
        running: dict[str, _Running] = {}
        contention = ContentionState(machine)
        #: Earliest-finish heap of (finish_time, launch_seq, name).  Entries
        #: go stale when a slowdown change moves an op's finish; stale
        #: entries are detected by comparing against the op's current
        #: ``finish_time`` and skipped lazily.
        finish_heap: list[tuple[float, int, str]] = []
        #: thread count last used per operation type (Strategy 2 / reconfiguration).
        last_threads: dict[str, int] = {}
        now = 0.0
        event_index = 0
        launch_seq = 0
        forced_launches = 0

        def emit(kind: EventKind, op_name: str, threads: int = 0) -> None:
            nonlocal event_index
            busy = machine.num_cores - allocator.free_cores
            trace.add_event(
                SimulationEvent(
                    index=event_index,
                    time=now,
                    kind=kind,
                    op_name=op_name,
                    corunning=len(running),
                    busy_cores=busy,
                    threads=threads,
                )
            )
            event_index += 1

        def build_context() -> SchedulingContext:
            ready_ops = tuple(graph.op(n) for n in ready_sorted)
            running_info: list[RunningOpInfo] = []
            for r in running.values():
                info = r.info
                if info is None:
                    info = RunningOpInfo(
                        op=r.op,
                        threads=r.request.threads,
                        placement=r.request.placement,
                        start_time=r.start_time,
                        predicted_finish=r.finish_time,
                        cores=len(r.core_ids),
                    )
                    r.info = info
                running_info.append(info)
            return SchedulingContext(
                time=now,
                ready=ready_ops,
                running=tuple(running_info),
                free_cores=allocator.free_cores,
                free_hyperthread_cores=allocator.free_hyperthread_cores,
                machine=machine,
            )

        def apply_factor_changes(changed: set[str]) -> None:
            """Re-time the ops whose contention factor just changed.

            Progress is advanced lazily: an op's ``remaining_fraction``
            only needs updating at the moments its slowdown changes
            (between those moments its absolute finish time is constant,
            so the heap entry stays valid).
            """
            for name in changed:
                r = running.get(name)
                if r is None:
                    continue
                factor = contention.slowdown(name)
                elapsed = now - r.last_update
                if elapsed > 0:
                    duration = r.base_duration * r.slowdown
                    r.remaining_fraction = max(
                        0.0, r.remaining_fraction - elapsed / duration
                    )
                    r.last_update = now
                r.slowdown = factor
                finish = now + r.remaining_fraction * r.base_duration * factor
                # NaN-initialised finish_time guarantees the first pass
                # pushes; afterwards an unchanged finish means the existing
                # heap entry is still valid.
                if finish != r.finish_time:
                    r.finish_time = finish
                    heapq.heappush(finish_heap, (finish, r.seq, name))
                r.info = None

        def try_launch(request: LaunchRequest) -> bool:
            nonlocal launch_seq
            op = graph.op(request.op_name)
            if request.op_name not in ready:
                raise ValueError(
                    f"policy tried to launch {request.op_name!r} which is not ready"
                )
            allocation: CoreAllocation | None
            if request.placement is PlacementKind.DEDICATED:
                cores = min(request.threads, allocator.free_cores)
                if cores <= 0:
                    return False
                allocation = allocator.allocate(cores)
                core_ids = allocation.core_ids
            elif request.placement is PlacementKind.HYPERTHREAD:
                cores = min(request.threads, allocator.free_hyperthread_cores)
                if cores <= 0:
                    return False
                allocation = allocator.allocate_hyperthreads(cores)
                core_ids = allocation.core_ids
            else:  # OVERSUBSCRIBED — share every physical core, bypassing the allocator.
                allocation = None
                core_ids = tuple(range(machine.num_cores))

            chars = self._characterize(op)
            reconfigured = (
                op.op_type in last_threads and last_threads[op.op_type] != request.threads
            )
            breakdown = execution_time_cached(
                chars,
                machine,
                request.threads,
                request.affinity,
                reconfigured=reconfigured and op.is_tunable,
            )
            last_threads[op.op_type] = request.threads
            base = self._noisy(breakdown.total)
            view = RunningOpView(
                key=request.op_name,
                core_ids=core_ids,
                threads=request.threads,
                bandwidth_demand=breakdown.bandwidth_demand,
                memory_bound_fraction=breakdown.memory_bound_fraction,
                memory_bound_char=chars.memory_bound,
                pinned=request.placement is not PlacementKind.OVERSUBSCRIBED,
            )
            r = _Running(
                op=op,
                request=request,
                allocation=allocation,
                core_ids=core_ids,
                base_duration=base,
                start_time=now,
                last_update=now,
                seq=launch_seq,
                view=view,
                finish_time=float("nan"),
            )
            launch_seq += 1
            running[request.op_name] = r
            ready.discard(request.op_name)
            ready_sorted.remove(request.op_name)
            emit(EventKind.LAUNCH, request.op_name, threads=request.threads)
            apply_factor_changes(contention.add(view))
            return True

        emit(EventKind.STEP_BEGIN, "")

        while pending:
            # --- launch phase: keep asking the policy until it stops launching.
            launched_any = True
            while launched_any and ready:
                launched_any = False
                context = build_context()
                requests = list(policy.select_launches(context))
                for request in requests:
                    if request.op_name in running or request.op_name in completed:
                        continue
                    if try_launch(request):
                        launched_any = True

            # --- deadlock guard: never let the step stall with work pending.
            if not running:
                if not ready:
                    raise RuntimeError(
                        f"graph {graph.name!r} cannot make progress: "
                        f"{len(pending)} pending ops but none ready"
                    )
                fallback_name = ready_sorted[0]
                fallback_threads = max(1, allocator.free_cores)
                forced_launches += 1
                try_launch(
                    LaunchRequest(
                        op_name=fallback_name,
                        threads=fallback_threads,
                        affinity=AffinityMode.SHARED,
                        placement=PlacementKind.DEDICATED,
                    )
                )

            # --- advance time to the earliest finish (skipping stale entries).
            while True:
                finish_time, seq, finishing_name = heapq.heappop(finish_heap)
                r = running.get(finishing_name)
                if r is not None and r.finish_time == finish_time:
                    break
            now = finish_time

            # --- retire the finished operation.
            del running[finishing_name]
            if r.allocation is not None:
                allocator.release(r.allocation)
            completed.add(finishing_name)
            pending.discard(finishing_name)
            trace.add_record(
                OpExecutionRecord(
                    op_name=r.op.name,
                    op_type=r.op.op_type,
                    threads=r.request.threads,
                    affinity=r.request.affinity,
                    start_time=r.start_time,
                    finish_time=now,
                    used_hyperthreads=r.request.placement is PlacementKind.HYPERTHREAD,
                )
            )
            emit(EventKind.FINISH, finishing_name, threads=r.request.threads)

            # --- newly ready operations.
            for succ in graph.successors(finishing_name):
                if succ in completed or succ in running or succ in ready:
                    continue
                if all(dep in completed for dep in graph.predecessors(succ)):
                    ready.add(succ)
                    insort(ready_sorted, succ)

            apply_factor_changes(contention.remove(finishing_name))

        emit(EventKind.STEP_END, "")
        return StepResult(
            policy_name=getattr(policy, "name", policy.__class__.__name__),
            graph_name=graph.name,
            step_time=now,
            trace=trace,
            forced_launches=forced_launches,
        )
