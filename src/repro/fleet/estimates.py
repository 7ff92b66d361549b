"""Per-(job mix, machine) step-time estimates for the fleet simulator.

The fleet layer's unit of time is the *gang round*: every job resident
on a machine advances one training step, and the round takes as long as
one simulated step of the jobs' **merged** graph under the paper's
runtime — exactly the single-machine co-run path PR 3 built
(:func:`repro.scenarios.merge_graphs` + profiling +
:class:`~repro.core.scheduler.RuntimeSchedulerPolicy` on the incremental
:class:`~repro.execsim.simulator.StepSimulator`).

Because a round's duration is a pure function of ``(machine kind,
multiset of (workload, graph seed), runtime config)``, the computation
lives in a module-level task function (:func:`corun_step_time`) that the
sweep engine can fan out and its on-disk cache can memoise across runs;
:class:`StepTimeEstimator` adds the canonicalisation and an in-memory
memo so one fleet simulation never pays for the same mix twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core.config import RuntimeConfig
from repro.fleet.job import Job
from repro.graph.dataflow import DataflowGraph
from repro.hardware.zoo import get_machine
from repro.scenarios import Workload, merge_graphs
from repro.sweep.executor import SweepExecutor, SweepTask, get_default_executor

#: Canonical co-run mix entry: (label, workload, graph_seed).
MixEntry = tuple[str, Workload, int]


@lru_cache(maxsize=64)
def mix_graph(entries: tuple[MixEntry, ...]) -> DataflowGraph:
    """The (merged) step graph of a canonical mix, built once per process
    (the last 64 distinct mixes are kept: a fleet run estimates each mix
    on every machine kind it lands on).

    The graph is shared by every estimate of the mix, on every machine
    and in every sweep thread, so it must stay read-only: profiling, the
    runtime policy and :class:`~repro.execsim.simulator.StepSimulator`
    only read it.
    """
    graphs = {
        label: workload.build(graph_seed) for label, workload, graph_seed in entries
    }
    if len(graphs) == 1:
        return next(iter(graphs.values()))
    return merge_graphs(graphs, name="fleet-mix")


def corun_step_time(
    entries: tuple[MixEntry, ...],
    machine_name: str,
    config: RuntimeConfig,
) -> float:
    """Simulated step time of one gang round on ``machine_name``.

    Takes the mix's merged graph from :func:`mix_graph` (built and merged
    once per process, not once per machine), profiles it with the
    hill-climbing model and runs one scheduled step under the full
    runtime policy.  Pure and picklable: the sweep engine's process
    backend and on-disk cache both apply.
    """
    from repro.core.runtime import TrainingRuntime  # local: keeps import cycle-free

    if not entries:
        raise ValueError("a co-run mix needs at least one entry")
    machine = get_machine(machine_name)
    graph = mix_graph(entries)
    runtime = TrainingRuntime(machine, config)
    model = runtime.profile(graph)
    policy = runtime.build_policy(model)
    return runtime.simulator.run_step(graph, policy, step_name="fleet-round").step_time


def scale_step_time(base: float, factors: Sequence[float]) -> float:
    """Apply active straggler factors to an estimator step time.

    Faults scale *results*, never the estimator's memo or the on-disk
    sweep cache — those stay pure functions of (machine, mix, config).
    The loop multiplies factors one at a time in window-open order so the
    reference and compressed fleet loops produce bit-identical floats.
    """
    time = base
    for factor in factors:
        time = time * factor
    return time


def canonical_mix(jobs: Sequence[Job]) -> tuple[MixEntry, ...]:
    """The canonical (order-independent) mix key of a set of resident jobs.

    Jobs are sorted by (kind, graph seed) and labelled by position, so
    any two rounds running the same multiset of workloads — regardless
    of job identity or admission order — share one estimate.
    """
    ordered = sorted(jobs, key=lambda job: (job.kind, job.graph_seed))
    return tuple(
        (f"{index}-{job.kind}", job.workload, job.graph_seed)
        for index, job in enumerate(ordered)
    )


@dataclass
class EstimatorStats:
    """How many estimates were requested vs actually simulated.

    ``cache_hits`` counts estimates the executor's on-disk cache served
    instead of simulating them (zero when no cache is enabled), so warm
    simulators and repeat prewarms skip the simulation entirely.
    """

    requests: int = 0
    computed: int = 0
    cache_hits: int = 0

    @property
    def memo_hits(self) -> int:
        return self.requests - self.computed


@dataclass
class StepTimeEstimator:
    """Memoised access to :func:`corun_step_time` through the sweep engine.

    The in-memory memo serves repeated rounds of one simulation; the
    executor's :class:`~repro.sweep.cache.SweepCache` (when enabled)
    persists estimates across simulations, policies and processes —
    comparing three placement policies on the same trace pays for each
    distinct (machine, mix) exactly once.
    """

    executor: SweepExecutor | None = None
    config: RuntimeConfig = field(default_factory=RuntimeConfig)
    _memo: dict[tuple, float] = field(default_factory=dict)
    stats: EstimatorStats = field(default_factory=EstimatorStats)

    def _executor(self) -> SweepExecutor:
        return self.executor if self.executor is not None else get_default_executor()

    def _compute(self, keys: Sequence[tuple[str, tuple[MixEntry, ...]]]) -> list[float]:
        """Estimate each ``(machine, mix)`` key through the executor and memo it.

        The executor's result cache is the only on-disk lookup; its
        ``stats`` deltas say how many estimates it served from disk and
        how many it simulated.
        """
        executor = self._executor()
        hits, executed = executor.stats.cache_hits, executor.stats.executed
        values = executor.run(
            [
                SweepTask(corun_step_time, (entries, machine_name, self.config))
                for machine_name, entries in keys
            ]
        )
        self.stats.cache_hits += executor.stats.cache_hits - hits
        self.stats.computed += executor.stats.executed - executed
        self._memo.update(zip(keys, values))
        return values

    def step_time(self, machine_name: str, jobs: Sequence[Job]) -> float:
        """Round duration of ``jobs`` gang-stepping on ``machine_name``."""
        key = (machine_name, canonical_mix(jobs))
        self.stats.requests += 1
        value = self._memo.get(key)
        if value is None:
            (value,) = self._compute([key])
        return value

    def solo_time(self, machine_name: str, job: Job) -> float:
        """The job's isolated (no co-runner) step time on ``machine_name``."""
        return self.step_time(machine_name, (job,))

    def prewarm(
        self,
        machine_names: Sequence[str],
        jobs: Sequence[Job],
        *,
        max_corun: int = 1,
    ) -> int:
        """Fan estimates for a whole trace out over the sweep engine in one
        parallel batch, before any event loop starts.

        ``max_corun=1`` (default) covers every distinct solo signature —
        the bulk of a simulation's estimator traffic, since every policy
        consults solo estimates for every placement.  Larger values cover
        every distinct :func:`canonical_mix` signature of up to
        ``max_corun`` members drawn from the trace's job classes, so a
        compressed fleet run can start every segment on a memo hit.
        Returns the number of estimates simulated (not served by the
        memo or the on-disk cache).
        """
        from itertools import combinations_with_replacement

        if max_corun < 1:
            raise ValueError("max_corun must be at least 1")
        # One representative job per distinct solo signature: jobs sharing
        # (kind, workload, graph_seed) canonicalise identically.
        classes: dict[tuple[MixEntry, ...], Job] = {}
        for job in jobs:
            classes.setdefault(canonical_mix((job,)), job)
        representatives = list(classes.values())
        mixes: list[tuple[MixEntry, ...]] = []
        for size in range(1, max_corun + 1):
            for combo in combinations_with_replacement(representatives, size):
                mixes.append(canonical_mix(combo))
        keys = [
            (machine_name, entries)
            for machine_name in dict.fromkeys(machine_names)
            for entries in dict.fromkeys(mixes)
            if (machine_name, entries) not in self._memo
        ]
        if not keys:
            return 0
        # Warm simulators (repeat policies, other processes) fill the
        # memo from the executor's on-disk cache instead of simulating
        # the mixes again.  Prewarmed estimates are requests too, so
        # ``memo_hits`` (the requests/computed difference) can never go
        # negative.
        computed = self.stats.computed
        self._compute(keys)
        self.stats.requests += len(keys)
        return self.stats.computed - computed
