"""Running operations standalone, outside a full model graph.

The paper's motivation studies (Section II-C) and its profiling steps run
individual operations "as standalone operations to avoid any performance
interference".  This module provides the same facility for the simulated
substrate: measure one operation at a chosen thread count/affinity, sweep
the whole configuration space, or co-run a handful of standalone
operations under explicit placements (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.execsim.op_runtime import OpTimeBreakdown, execution_time, standalone_totals
from repro.execsim.simulator import (
    LaunchRequest,
    PlacementKind,
    SchedulingContext,
    StepResult,
    StepSimulator,
)
from repro.graph.dataflow import DataflowGraph
from repro.graph.op import OpInstance
from repro.hardware.affinity import AffinityMode
from repro.hardware.topology import Machine
from repro.ops.characteristics import OpCharacteristics
from repro.ops.cost import CharacterizationCache, characterize, characterize_cached
from repro.ops.registry import OpRegistry
from repro.utils.seeding import make_rng


@dataclass(frozen=True)
class StandaloneConfig:
    """How one operation participates in a standalone co-run experiment."""

    op: OpInstance
    threads: int
    affinity: AffinityMode = AffinityMode.SHARED
    placement: PlacementKind = PlacementKind.DEDICATED


class _FixedPolicy:
    """Launches every operation exactly as configured, all at step start."""

    name = "fixed"

    def __init__(self, configs: Sequence[StandaloneConfig]) -> None:
        self._by_name = {c.op.name: c for c in configs}
        self._launched: set[str] = set()

    def on_step_begin(self, graph: DataflowGraph, machine: Machine) -> None:
        self._launched.clear()

    def select_launches(self, context: SchedulingContext) -> list[LaunchRequest]:
        requests: list[LaunchRequest] = []
        for op in context.ready:
            if op.name in self._launched:
                continue
            config = self._by_name[op.name]
            requests.append(
                LaunchRequest(
                    op_name=op.name,
                    threads=config.threads,
                    affinity=config.affinity,
                    placement=config.placement,
                )
            )
            self._launched.add(op.name)
        return requests


class StandaloneRunner:
    """Measure operations in isolation on the simulated machine."""

    def __init__(
        self,
        machine: Machine,
        *,
        registry: OpRegistry | None = None,
        noise_sigma: float = 0.0,
        seed: int = 0,
        sweep_cache=None,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.machine = machine
        self.registry = registry
        self.noise_sigma = noise_sigma
        #: Optional :class:`repro.sweep.SweepCache` memoising exhaustive
        #: sweeps.  None (the default) computes them in-process — callers
        #: that want cross-run persistence opt in explicitly, so cache
        #: policy always follows the executor/CLI configuration instead
        #: of ambient global state.
        self.sweep_cache = sweep_cache
        self._rng = make_rng(seed)
        # ``run`` characterizes through the default-registry memo, or a
        # per-runner one for a custom registry (as ``StepSimulator`` does).
        self._characterize = (
            characterize_cached if registry is None else CharacterizationCache(registry)
        )
        self._total = standalone_totals(machine)

    # -- single-op measurements --------------------------------------------------

    def characteristics(self, op: OpInstance) -> OpCharacteristics:
        return characterize(op, self.registry)

    def measure(
        self,
        op: OpInstance,
        threads: int,
        affinity: AffinityMode = AffinityMode.SHARED,
    ) -> OpTimeBreakdown:
        """Noise-free breakdown of one standalone execution."""
        return execution_time(self.characteristics(op), self.machine, threads, affinity)

    def run(
        self,
        op: OpInstance,
        threads: int,
        affinity: AffinityMode = AffinityMode.SHARED,
        *,
        repeats: int = 1,
    ) -> float:
        """Measured wall time of ``repeats`` back-to-back standalone runs.

        Measurement noise (if configured) is applied per run, mimicking
        what the profiling steps of the runtime would observe.  The
        noise-free base time is ``measure(...).total``, taken from a
        process-wide memo keyed by (machine, characteristics, threads,
        affinity) (:func:`~repro.execsim.op_runtime.standalone_totals`);
        the noise is still drawn on every call, so the runner's generator
        advances exactly as without the memo.
        """
        if repeats < 1:
            raise ValueError("repeats must be at least 1")
        base = self._total(self._characterize(op), threads, affinity)
        if self.noise_sigma == 0.0:
            return base * repeats
        if repeats == 1:
            # The scalar draw gives the one-element array draw's float and
            # leaves the generator in the same state, at a third the cost.
            return base * self._rng.lognormal(0.0, self.noise_sigma)
        factors = self._rng.lognormal(mean=0.0, sigma=self.noise_sigma, size=repeats)
        return float(base * factors.sum())

    def sweep(self, op: OpInstance) -> dict[tuple[int, AffinityMode], OpTimeBreakdown]:
        """Noise-free sweep over every feasible (threads, affinity) case.

        Memoised by ``sweep_cache`` when the runner was built with one
        (the sweep is a pure function of the op characteristics and the
        machine); uncached otherwise.
        """
        from repro.sweep.tasks import cached_call, op_sweep

        return cached_call(self.sweep_cache, op_sweep, self.characteristics(op), self.machine)

    def sweep_many(
        self, ops: Sequence[OpInstance], *, executor=None
    ) -> list[dict[tuple[int, AffinityMode], OpTimeBreakdown]]:
        """Sweep several operations, fanned out over the sweep engine."""
        from repro.sweep.executor import get_default_executor
        from repro.sweep.tasks import op_sweep

        executor = executor or get_default_executor()
        return executor.map(
            op_sweep, [(self.characteristics(op), self.machine) for op in ops]
        )

    def best_configuration(self, op: OpInstance) -> tuple[int, AffinityMode, float]:
        """Ground-truth optimal configuration of ``op`` on this machine."""
        sweep = self.sweep(op)
        (threads, affinity), breakdown = min(sweep.items(), key=lambda kv: kv[1].total)
        return threads, affinity, breakdown.total

    # -- standalone co-running -----------------------------------------------------

    def corun(
        self,
        configs: Sequence[StandaloneConfig],
        *,
        serialize: bool = False,
    ) -> StepResult:
        """Co-run (or serialise) a set of standalone operations.

        ``serialize=True`` chains the operations with artificial control
        dependencies so they run back to back — the "serial execution"
        baseline of Table III.
        """
        if not configs:
            raise ValueError("corun needs at least one operation")
        names = [c.op.name for c in configs]
        if len(set(names)) != len(names):
            raise ValueError("operation names must be unique in a co-run experiment")
        graph = DataflowGraph(name="standalone-corun")
        previous: OpInstance | None = None
        for config in configs:
            deps = [previous.name] if (serialize and previous is not None) else []
            graph.add_op(config.op, deps=deps)
            previous = config.op
        simulator = StepSimulator(
            self.machine,
            registry=self.registry,
            noise_sigma=self.noise_sigma,
            seed=int(self._rng.integers(0, 2**31 - 1)),
        )
        policy = _FixedPolicy(configs)
        return simulator.run_step(graph, policy, step_name="standalone")
