"""The runtime scheduling policy implementing Strategies 1-4 (Section III-D).

The policy plugs into :class:`repro.execsim.simulator.StepSimulator` (the
role the modified TensorFlow executor plays in the paper) and decides, at
every scheduling event, which ready operations to launch, with how many
threads, under which affinity and on which placement:

* **Strategy 1** — per-operation intra-op parallelism from the performance
  model;
* **Strategy 2** — one stable thread count per operation *type*, taken
  from its largest-input instance, to avoid thread-pool reconfiguration;
* **Strategy 3** — co-run ready operations on disjoint core partitions
  when one of their top-k configurations fits the idle cores without
  outlasting the ongoing operations;
* **Strategy 4** — pack small operations onto free hyper-thread slots when
  a core-filling operation owns every physical core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RuntimeConfig
from repro.core.interference import InterferenceTracker
from repro.core.perf_model import ConfigurationPrediction, PerformanceModel
from repro.execsim.simulator import (
    LaunchRequest,
    PlacementKind,
    SchedulingContext,
)
from repro.graph.dataflow import DataflowGraph
from repro.graph.op import OpInstance
from repro.graph.traversal import topological_order
from repro.hardware.affinity import AffinityMode
from repro.hardware.topology import Machine


@dataclass(frozen=True)
class _Assignment:
    """The thread count / affinity the runtime intends for an operation."""

    threads: int
    affinity: AffinityMode
    predicted_time: float


class RuntimeSchedulerPolicy:
    """Performance-model-driven scheduling policy (the paper's runtime)."""

    def __init__(
        self,
        model: PerformanceModel,
        config: RuntimeConfig | None = None,
        *,
        interference: InterferenceTracker | None = None,
        label: str | None = None,
    ) -> None:
        self.model = model
        self.config = config or RuntimeConfig()
        self.interference = interference or InterferenceTracker(
            threshold=self.config.interference_threshold
        )
        self.name = label or f"runtime[{self.config.label}]"
        self._machine: Machine | None = None
        self._graph: DataflowGraph | None = None
        self._fifo_rank: dict[str, int] = {}
        self._assignments: dict[str, _Assignment] = {}

    # -- step preparation ------------------------------------------------------------

    def on_step_begin(self, graph: DataflowGraph, machine: Machine) -> None:
        self._machine = machine
        self._graph = graph
        self._fifo_rank = {name: i for i, name in enumerate(topological_order(graph))}
        self._assignments = self._compute_assignments(graph, machine)

    def _default_assignment(self, machine: Machine) -> _Assignment:
        return _Assignment(
            threads=machine.topology.num_cores,
            affinity=AffinityMode.SHARED,
            predicted_time=float("inf"),
        )

    def _best_for(self, op: OpInstance) -> ConfigurationPrediction | None:
        if not self.model.knows(op.signature):
            return None
        return self.model.best_configuration(op.signature)

    def _compute_assignments(
        self, graph: DataflowGraph, machine: Machine
    ) -> dict[str, _Assignment]:
        """Per-operation thread assignments from Strategies 1 and 2."""
        config = self.config
        assignments: dict[str, _Assignment] = {}

        # Strategy 2: one configuration per op type, from the largest-input
        # instance (the most time-consuming one).
        stable: dict[str, _Assignment] = {}
        if config.strategy2_stable_concurrency:
            largest: dict[str, OpInstance] = {}
            for op in graph:
                if not op.is_tunable:
                    continue
                current = largest.get(op.op_type)
                if current is None or op.total_input_elements > current.total_input_elements:
                    largest[op.op_type] = op
            for op_type, op in largest.items():
                best = self._best_for(op)
                if best is None:
                    stable[op_type] = self._default_assignment(machine)
                else:
                    stable[op_type] = _Assignment(
                        threads=best.threads,
                        affinity=best.affinity,
                        predicted_time=best.predicted_time,
                    )

        for op in graph:
            if not op.is_tunable or not config.strategy1_per_op_concurrency:
                assignments[op.name] = self._default_assignment(machine)
                continue
            if config.strategy2_stable_concurrency and op.op_type in stable:
                base = stable[op.op_type]
                # Predicted time is still instance-specific even though the
                # thread count is shared across instances of the type.
                predicted = self._predict_or_inf(op, base.threads, base.affinity)
                assignments[op.name] = _Assignment(
                    threads=base.threads,
                    affinity=base.affinity,
                    predicted_time=predicted,
                )
                continue
            best = self._best_for(op)
            if best is None:
                assignments[op.name] = self._default_assignment(machine)
            else:
                assignments[op.name] = _Assignment(
                    threads=best.threads,
                    affinity=best.affinity,
                    predicted_time=best.predicted_time,
                )
        return assignments

    def _predict_or_inf(self, op: OpInstance, threads: int, affinity: AffinityMode) -> float:
        if not self.model.knows(op.signature):
            return float("inf")
        try:
            return self.model.predict(op.signature, threads, affinity)
        except KeyError:
            return float("inf")

    def assignment_for(self, op_name: str) -> _Assignment:
        """The Strategy 1/2 assignment of an operation (for inspection/tests)."""
        return self._assignments[op_name]

    # -- candidate generation (Strategy 3) ----------------------------------------------

    def _candidates(self, op: OpInstance) -> list[ConfigurationPrediction]:
        """Top-k configurations for ``op``, reconciled with Strategy 2."""
        config = self.config
        assignment = self._assignments[op.name]
        if not self.model.knows(op.signature):
            return [
                ConfigurationPrediction(
                    threads=assignment.threads,
                    affinity=assignment.affinity,
                    predicted_time=assignment.predicted_time,
                )
            ]
        top = self.model.top_configurations(op.signature, config.corun_candidates)
        if not config.strategy2_stable_concurrency:
            return top
        reconciled: list[ConfigurationPrediction] = []
        seen: set[tuple[int, AffinityMode]] = set()
        for candidate in top:
            if abs(candidate.threads - assignment.threads) > config.stable_concurrency_tolerance:
                candidate = ConfigurationPrediction(
                    threads=assignment.threads,
                    affinity=assignment.affinity,
                    predicted_time=self._predict_or_inf(
                        op, assignment.threads, assignment.affinity
                    ),
                )
            key = (candidate.threads, candidate.affinity)
            if key not in seen:
                seen.add(key)
                reconciled.append(candidate)
        return reconciled

    # -- launch selection -------------------------------------------------------------------

    def select_launches(self, context: SchedulingContext) -> list[LaunchRequest]:
        if not context.ready or self._machine is None:
            return []
        if not self.config.strategy3_corun:
            return self._select_serial(context)
        if context.free_cores > 0:
            request = self._select_corun(context)
            return [request] if request is not None else []
        if self.config.strategy4_hyperthreading:
            request = self._select_hyperthread(context)
            return [request] if request is not None else []
        return []

    # Strategy 3 disabled: behave like inter-op parallelism of one, but with
    # per-op thread counts (Strategies 1/2 only — Fig. 3a).
    def _select_serial(self, context: SchedulingContext) -> list[LaunchRequest]:
        if context.running:
            return []
        op = min(context.ready, key=lambda op: self._fifo_rank.get(op.name, 0))
        assignment = self._assignments[op.name]
        threads = min(assignment.threads, max(1, context.free_cores))
        return [
            LaunchRequest(
                op_name=op.name,
                threads=threads,
                affinity=assignment.affinity,
                placement=PlacementKind.DEDICATED,
            )
        ]

    def _select_corun(self, context: SchedulingContext) -> LaunchRequest | None:
        """Strategy 3: fill idle cores without decreasing system throughput."""
        free = context.free_cores
        running_types = [r.op.op_type for r in context.running]
        longest_remaining = max(
            (r.predicted_finish - context.time for r in context.running), default=None
        )

        # Rank ready operations by how time-consuming they are (their best
        # predicted time), most expensive first, FIFO among equals.
        def rank(op: OpInstance) -> tuple[float, int]:
            return (
                -self._assignments[op.name].predicted_time,
                self._fifo_rank.get(op.name, 0),
            )

        if longest_remaining is None:
            # Idle machine: start the most time-consuming ready operation with
            # its assigned configuration.
            op = min(context.ready, key=rank)
            assignment = self._assignments[op.name]
            return LaunchRequest(
                op_name=op.name,
                threads=min(assignment.threads, free),
                affinity=assignment.affinity,
                placement=PlacementKind.DEDICATED,
            )

        # Try to find an operation with a candidate that fits the idle cores
        # and does not outlast the ongoing operations.
        ready = sorted(context.ready, key=rank)
        for op in ready:
            if not self.interference.allowed_with_all(op.op_type, running_types):
                continue
            fitting = [
                c
                for c in self._candidates(op)
                if c.threads <= free and c.predicted_time <= longest_remaining
            ]
            if not fitting:
                continue
            # Among fitting candidates prefer the one using the fewest threads:
            # it leaves idle cores for further co-running (the paper's example
            # picks 18 threads over 20 for exactly this reason).
            chosen = min(fitting, key=lambda c: (c.threads, c.predicted_time))
            return LaunchRequest(
                op_name=op.name,
                threads=chosen.threads,
                affinity=chosen.affinity,
                placement=PlacementKind.DEDICATED,
            )

        # Nothing fits without decreasing throughput: run the most
        # time-consuming ready operation on the idle cores anyway.
        for op in ready:
            if not self.interference.allowed_with_all(op.op_type, running_types):
                continue
            assignment = self._assignments[op.name]
            return LaunchRequest(
                op_name=op.name,
                threads=min(assignment.threads, free),
                affinity=assignment.affinity,
                placement=PlacementKind.DEDICATED,
            )
        return None

    def _select_hyperthread(self, context: SchedulingContext) -> LaunchRequest | None:
        """Strategy 4: pack a small ready operation onto free SMT slots."""
        if context.free_hyperthread_cores <= 0:
            return None
        if not (context.any_core_filling_op or context.free_cores == 0):
            return None
        running_types = [r.op.op_type for r in context.running]
        longest_remaining = max(
            (r.predicted_finish - context.time for r in context.running), default=0.0
        )

        def serial_time(op: OpInstance) -> float:
            return self._predict_or_inf(op, 1, AffinityMode.SPREAD)

        candidates = [
            op
            for op in context.ready
            if self.interference.allowed_with_all(op.op_type, running_types)
            and serial_time(op) != float("inf")
        ]
        if not candidates:
            return None
        # The smallest operation in the ready queue (shortest serial time).
        op = min(candidates, key=serial_time)
        assignment = self._assignments[op.name]
        threads = max(
            1,
            min(
                self.config.small_op_max_threads,
                assignment.threads,
                context.free_hyperthread_cores,
            ),
        )
        predicted = self._predict_or_inf(op, threads, assignment.affinity)
        # Hyper-thread slots run at roughly half speed (the sibling owns the
        # core), so be conservative about what still finishes "for free"
        # under the core-filling operation.
        if predicted * 2.0 > longest_remaining:
            return None
        return LaunchRequest(
            op_name=op.name,
            threads=threads,
            affinity=assignment.affinity,
            placement=PlacementKind.HYPERTHREAD,
        )
