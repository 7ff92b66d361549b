"""Reference oracle for the step simulator: from-scratch recomputation.

:class:`ReferenceStepSimulator` replaces ``StepSimulator.run_step`` with
the seed loop: on every event it advances every running op's progress,
re-characterizes every running op and recomputes every contention factor
with :func:`corun_slowdowns` (also the oracle of ``ContentionState``),
and finds the next finish with an insertion-order ``min()`` scan.  The
product path must emit the same events and times within 1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.execsim.contention import (
    UNPINNED_INTERFERENCE,
    UNPINNED_INTERFERENCE_CAP,
    UNPINNED_POOL_INTERFERENCE,
    RunningOpView,
)
from repro.execsim.events import EventKind, SimulationEvent
from repro.execsim.op_runtime import OpTimeBreakdown, execution_time
from repro.execsim.simulator import (
    LaunchRequest,
    PlacementKind,
    RunningOpInfo,
    SchedulingContext,
    SchedulingPolicy,
    StepResult,
    StepSimulator,
    _Running,
)
from repro.execsim.trace import ExecutionTrace, OpExecutionRecord
from repro.graph.dataflow import DataflowGraph
from repro.graph.op import OpInstance
from repro.hardware.affinity import AffinityMode, CoreAllocation, CoreAllocator
from repro.hardware.topology import Machine
from repro.ops.cost import characterize_cached


def _core_sharing_slowdown(
    views: Sequence[RunningOpView],
    machine: Machine,
) -> dict[str, float]:
    """Slowdown of each op from sharing physical cores with other threads."""
    # Threads each op places on each of its cores (may be fractional when the
    # thread count is not a multiple of the core count, and >1 when
    # oversubscribed).
    per_core_threads: dict[str, float] = {
        v.key: v.threads / len(v.core_ids) for v in views
    }
    load: dict[int, float] = {}
    for view in views:
        for core in view.core_ids:
            load[core] = load.get(core, 0.0) + per_core_threads[view.key]

    slowdowns: dict[str, float] = {}
    for view in views:
        own = per_core_threads[view.key]
        capacity = 0.0
        for core in view.core_ids:
            total = load[core]
            resident = max(1, round(total))
            aggregate = machine.smt.core_throughput(
                resident, memory_bound=view.memory_bound_char
            )
            # A thread can at most progress at single-thread speed, so the
            # op's share of this core is bounded by its own thread count on
            # the core even when the core is mostly idle.
            capacity += min(own, aggregate * (own / total))
        # The base duration assumed one dedicated core per thread, i.e. a
        # capacity equal to the thread count.
        slowdowns[view.key] = view.threads / capacity if capacity > 0 else float("inf")
    return slowdowns


def _unpinned_interference(
    views: Sequence[RunningOpView],
) -> dict[str, float]:
    """Extra slowdown from co-running *unpinned* thread pools.

    TensorFlow's inter-op parallelism runs several operations on one
    shared, unpinned intra-op pool: their threads migrate, interleave and
    evict each other's tile working sets.  The paper's runtime avoids this
    by giving co-running operations disjoint, pinned core partitions
    (Strategy 3) or dedicated SMT slots (Strategy 4) — those placements do
    not pay this penalty, which is a large part of why the runtime beats
    uniform inter-op parallelism (Table I vs Fig. 3).
    """
    per_core_threads: dict[str, float] = {
        v.key: v.threads / len(v.core_ids) for v in views
    }
    load: dict[int, float] = {}
    unpinned_on_core: dict[int, bool] = {}
    for view in views:
        for core in view.core_ids:
            load[core] = load.get(core, 0.0) + per_core_threads[view.key]
            if not view.pinned:
                unpinned_on_core[core] = True

    num_unpinned = sum(1 for v in views if not v.pinned)
    factors: dict[str, float] = {}
    for view in views:
        exposed = (not view.pinned) or any(
            unpinned_on_core.get(core, False) for core in view.core_ids
        )
        if not exposed:
            factors[view.key] = 1.0
            continue
        own = per_core_threads[view.key]
        foreign = sum(load[core] - own for core in view.core_ids) / len(view.core_ids)
        other_pools = max(0, num_unpinned - (0 if view.pinned else 1))
        factor = (
            1.0
            + UNPINNED_INTERFERENCE * max(0.0, foreign)
            + UNPINNED_POOL_INTERFERENCE * other_pools
        )
        factors[view.key] = min(UNPINNED_INTERFERENCE_CAP, factor)
    return factors


def _bandwidth_slowdown(
    views: Sequence[RunningOpView],
    machine: Machine,
) -> dict[str, float]:
    """Slowdown of each op from dividing the chip's memory bandwidth."""
    total_demand = sum(v.bandwidth_demand for v in views)
    ceiling = machine.memory.fast_bandwidth
    if total_demand <= ceiling or total_demand == 0.0:
        return {v.key: 1.0 for v in views}
    stretch = total_demand / ceiling
    return {
        v.key: (1.0 - v.memory_bound_fraction) + v.memory_bound_fraction * stretch
        for v in views
    }


def corun_slowdowns(
    views: Sequence[RunningOpView],
    machine: Machine,
) -> dict[str, float]:
    """Combined slowdown factor (>= about 1) for every running operation.

    A single operation running alone on dedicated cores gets a factor of
    exactly 1.0; sharing cores or exceeding the bandwidth ceiling raises
    it.  Factors slightly below 1.0 are possible when an operation placed
    two of *its own* threads per core (the small SMT aggregate gain).
    """
    if not views:
        return {}
    keys = [v.key for v in views]
    if len(set(keys)) != len(keys):
        raise ValueError("running op keys must be unique")
    core = _core_sharing_slowdown(views, machine)
    bandwidth = _bandwidth_slowdown(views, machine)
    unpinned = _unpinned_interference(views)
    return {key: core[key] * bandwidth[key] * unpinned[key] for key in keys}


def corun_slowdowns(
    views: Sequence[RunningOpView],
    machine: Machine,
) -> dict[str, float]:
    """Combined slowdown factor (>= about 1) for every running operation.

    A single operation running alone on dedicated cores gets a factor of
    exactly 1.0; sharing cores or exceeding the bandwidth ceiling raises
    it.  Factors slightly below 1.0 are possible when an operation placed
    two of *its own* threads per core (the small SMT aggregate gain).
    """
    if not views:
        return {}
    keys = [v.key for v in views]
    if len(set(keys)) != len(keys):
        raise ValueError("running op keys must be unique")
    core = _core_sharing_slowdown(views, machine)
    bandwidth = _bandwidth_slowdown(views, machine)
    unpinned = _unpinned_interference(views)
    return {key: core[key] * bandwidth[key] * unpinned[key] for key in keys}


@dataclass
class _ReferenceRunning(_Running):
    #: Bandwidth demand and memory-bound fraction, re-read on every event.
    breakdown: OpTimeBreakdown | None = None

    def predicted_finish(self, now: float) -> float:
        return now + self.remaining_fraction * self.base_duration * self.slowdown


class ReferenceStepSimulator(StepSimulator):
    """A :class:`~repro.execsim.StepSimulator` running the seed
    from-scratch step loop."""

    def _characterize_reference(self, op: OpInstance):
        """Seed-faithful characterization: custom registries are uncached."""
        if self.registry is None:
            return characterize_cached(op)
        return self.registry.estimate(op)

    def run_step(
        self,
        graph: DataflowGraph,
        policy: SchedulingPolicy,
        *,
        step_name: str = "step",
    ) -> StepResult:
        """Simulate one training step of ``graph`` under ``policy``,
        recomputing the whole contention model on every event."""
        graph.validate()
        policy.on_step_begin(graph, self.machine)
        allocator = CoreAllocator(self.machine.topology)
        trace = ExecutionTrace(step_name=step_name)
        completed: set[str] = set()
        pending: set[str] = {op.name for op in graph}
        ready: set[str] = set(graph.sources())
        running: dict[str, _ReferenceRunning] = {}
        #: thread count last used per operation type (Strategy 2 / reconfiguration).
        last_threads: dict[str, int] = {}
        now = 0.0
        event_index = 0
        forced_launches = 0

        def emit(kind: EventKind, op_name: str, threads: int = 0) -> None:
            nonlocal event_index
            busy = self.machine.num_cores - allocator.free_cores
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
            ready_ops = tuple(sorted((graph.op(n) for n in ready), key=lambda o: o.name))
            running_info = tuple(
                RunningOpInfo(
                    op=r.op,
                    threads=r.request.threads,
                    placement=r.request.placement,
                    start_time=r.start_time,
                    predicted_finish=r.predicted_finish(now),
                    cores=len(r.core_ids),
                )
                for r in running.values()
            )
            return SchedulingContext(
                time=now,
                ready=ready_ops,
                running=running_info,
                free_cores=allocator.free_cores,
                free_hyperthread_cores=allocator.free_hyperthread_cores,
                machine=self.machine,
            )

        def update_progress() -> None:
            """Advance every running op's completed fraction up to ``now``."""
            for r in running.values():
                elapsed = now - r.last_update
                if elapsed > 0:
                    duration = r.base_duration * r.slowdown
                    r.remaining_fraction = max(
                        0.0, r.remaining_fraction - elapsed / duration
                    )
                    r.last_update = now

        def refresh_slowdowns() -> None:
            """Recompute contention factors after the running set changed."""
            if not running:
                return
            views = [
                RunningOpView(
                    key=name,
                    core_ids=r.core_ids,
                    threads=r.request.threads,
                    bandwidth_demand=r.breakdown.bandwidth_demand,
                    memory_bound_fraction=r.breakdown.memory_bound_fraction,
                    memory_bound_char=self._characterize_reference(r.op).memory_bound,
                    pinned=r.request.placement is not PlacementKind.OVERSUBSCRIBED,
                )
                for name, r in running.items()
            ]
            factors = corun_slowdowns(views, self.machine)
            for name, r in running.items():
                r.slowdown = factors[name]

        def try_launch(request: LaunchRequest) -> bool:
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
                core_ids = tuple(range(self.machine.num_cores))

            chars = self._characterize_reference(op)
            reconfigured = (
                op.op_type in last_threads and last_threads[op.op_type] != request.threads
            )
            breakdown = execution_time(
                chars,
                self.machine,
                request.threads,
                request.affinity,
                reconfigured=reconfigured and op.is_tunable,
            )
            last_threads[op.op_type] = request.threads
            base = self._noisy(breakdown.total)
            running[request.op_name] = _ReferenceRunning(
                op=op,
                request=request,
                allocation=allocation,
                core_ids=core_ids,
                breakdown=breakdown,
                base_duration=base,
                start_time=now,
                last_update=now,
            )
            ready.discard(request.op_name)
            emit(EventKind.LAUNCH, request.op_name, threads=request.threads)
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
                if launched_any:
                    update_progress()
                    refresh_slowdowns()

            # --- deadlock guard: never let the step stall with work pending.
            if not running:
                if not ready:
                    raise RuntimeError(
                        f"graph {graph.name!r} cannot make progress: "
                        f"{len(pending)} pending ops but none ready"
                    )
                fallback_name = sorted(ready)[0]
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
                update_progress()
                refresh_slowdowns()

            # --- advance time to the earliest finish.
            finishing_name, finishing = min(
                running.items(), key=lambda item: item[1].predicted_finish(now)
            )
            finish_time = finishing.predicted_finish(now)
            now = finish_time
            update_progress()

            # --- retire the finished operation.
            r = running.pop(finishing_name)
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

            refresh_slowdowns()

        emit(EventKind.STEP_END, "")
        return StepResult(
            policy_name=getattr(policy, "name", policy.__class__.__name__),
            graph_name=graph.name,
            step_time=now,
            trace=trace,
            forced_launches=forced_launches,
        )
