"""Top-level convenience API.

Wraps the most common end-to-end flow — build one of the paper's model
graphs, run the paper's runtime on the simulated KNL machine, and compare
against the TensorFlow-recommended configuration — behind a couple of
functions, so downstream users (and the quickstart example) do not need
to assemble the pieces by hand.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from typing import TYPE_CHECKING, Sequence

from repro.core.config import RuntimeConfig
from repro.core.runtime import TrainingRuntime
from repro.graph.dataflow import DataflowGraph
from repro.hardware.knl import knl_machine
from repro.hardware.topology import Machine
from repro.hardware.zoo import available_machines, get_machine, resolve_machine
from repro.models.registry import available_models as _available_models
from repro.models.registry import build_model
from repro.scenarios import Scenario, available_scenarios, get_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet import Job


def _record_outcome(store, kind: str, name: str, *, config, outcome) -> str | None:
    """Record an API outcome in the run store, best-effort.

    ``store`` is the caller's ``store=`` argument (None → process
    default, which records only when ``$REPRO_STORE_DIR`` is set).
    Returns the run id or ``None``; never raises for encoding/I/O
    problems (strict env-var errors do propagate — they are user
    configuration mistakes, not recording failures).
    """
    from repro.store import record_run, resolve_store

    resolved = resolve_store(store)
    if resolved is None:
        return None
    payload = {
        key: value
        for key, value in dataclasses.asdict(outcome).items()
        if key != "run_id"
    }
    return record_run(resolved, kind, name, config=config, payload=payload)


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of scheduling one model with the paper's runtime."""

    model: str
    step_time: float
    recommendation_time: float
    speedup_vs_recommendation: float
    average_corunning: float
    profiling_signatures: int
    #: Identity of this run's record in the run store (None when not recorded).
    run_id: str | None = None

    def __str__(self) -> str:
        return (
            f"{self.model}: step {self.step_time * 1e3:.1f} ms vs recommendation "
            f"{self.recommendation_time * 1e3:.1f} ms "
            f"({self.speedup_vs_recommendation:.2f}x speedup, "
            f"{self.average_corunning:.2f} ops co-running on average)"
        )


def available_models() -> tuple[str, ...]:
    """Names of the NN training workloads shipped with the library."""
    return _available_models()


def build_model_graph(name: str, batch_size: int | None = None, **kwargs) -> DataflowGraph:
    """Build the training-step dataflow graph of one of the paper's models."""
    return build_model(name, batch_size=batch_size, **kwargs)


def default_machine() -> Machine:
    """The simulated Intel KNL node the paper evaluates on."""
    return knl_machine()


def quick_schedule(
    model: str,
    *,
    machine: str | Machine | None = None,
    config: RuntimeConfig | None = None,
    batch_size: int | None = None,
    store=None,
    **model_kwargs,
) -> ScheduleOutcome:
    """Profile and schedule one training step of ``model`` with the runtime.

    ``machine`` accepts a :class:`Machine` or a machine-zoo name
    (``"xeon-2s-56c"``, ``"desktop-8c"``, ... — see
    :func:`repro.hardware.zoo.available_machines`); ``None`` keeps the
    paper's KNL node.  Returns the step time together with the speedup
    over the TensorFlow recommendation (intra-op = physical cores,
    inter-op = number of sockets).  ``store`` selects the run store the
    outcome is recorded in (see :func:`repro.store.resolve_store`;
    default: record only when ``$REPRO_STORE_DIR`` is set).
    """
    machine_label = machine if isinstance(machine, str) or machine is None else machine.name
    machine = resolve_machine(machine)
    graph = build_model(model, batch_size=batch_size, **model_kwargs)
    runtime = TrainingRuntime(machine, config)
    report = runtime.run(graph)
    outcome = ScheduleOutcome(
        model=model,
        step_time=report.step_time,
        recommendation_time=report.recommendation_time,
        speedup_vs_recommendation=report.speedup_vs_recommendation,
        average_corunning=report.average_corunning,
        profiling_signatures=report.profiling_signatures,
    )
    run_id = _record_outcome(
        store,
        "schedule",
        model,
        config={
            "model": model,
            "machine": machine_label,
            "batch_size": batch_size,
            "config": config,
            "model_kwargs": model_kwargs,
        },
        outcome=outcome,
    )
    if run_id is not None:
        outcome = dataclasses.replace(outcome, run_id=run_id)
    return outcome


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of running one named scenario end-to-end."""

    scenario: str
    machine: str
    graph_name: str
    num_ops: int
    step_time: float
    recommendation_time: float
    speedup_vs_recommendation: float
    average_corunning: float
    profiling_signatures: int
    #: Identity of this run's record in the run store (None when not recorded).
    run_id: str | None = None

    def __str__(self) -> str:
        return (
            f"{self.scenario} [{self.machine}] ({self.num_ops} ops): "
            f"step {self.step_time * 1e3:.1f} ms vs recommendation "
            f"{self.recommendation_time * 1e3:.1f} ms "
            f"({self.speedup_vs_recommendation:.2f}x speedup, "
            f"{self.average_corunning:.2f} ops co-running on average)"
        )


def run_scenario(
    scenario: str | Scenario,
    *,
    machine: str | Machine | None = None,
    seed: int | None = None,
    store=None,
) -> ScenarioOutcome:
    """Run one scenario (by name or value) end-to-end with the runtime.

    ``machine``/``seed`` override the scenario's bindings without
    re-registering it — handy for sweeping one workload mix across the
    zoo.  The same scenario and seed always produce the same outcome.
    ``store`` selects the run store the outcome is recorded in (see
    :func:`repro.store.resolve_store`; default: record only when
    ``$REPRO_STORE_DIR`` is set).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    resolved = resolve_machine(machine) if machine is not None else scenario.build_machine()
    # Report the zoo registry key when one was used (a Machine's own name
    # may be a long description, e.g. the KNL entry), so outcomes compare
    # cleanly against scenario.machine / available_machines().
    if isinstance(machine, str):
        machine_label = machine
    elif machine is not None:
        machine_label = machine.name
    else:
        machine_label = scenario.machine
    graph = scenario.build_graph()
    runtime = TrainingRuntime(resolved, scenario.build_config())
    report = runtime.run(graph)
    outcome = ScenarioOutcome(
        scenario=scenario.name,
        machine=machine_label,
        graph_name=graph.name,
        num_ops=len(graph),
        step_time=report.step_time,
        recommendation_time=report.recommendation_time,
        speedup_vs_recommendation=report.speedup_vs_recommendation,
        average_corunning=report.average_corunning,
        profiling_signatures=report.profiling_signatures,
    )
    run_id = _record_outcome(
        store,
        "scenario",
        scenario.name,
        config={
            "scenario": scenario.to_dict(),
            "machine": machine_label,
            "seed": scenario.seed,
        },
        outcome=outcome,
    )
    if run_id is not None:
        outcome = dataclasses.replace(outcome, run_id=run_id)
    return outcome


# -- fleet scheduling ---------------------------------------------------------------

#: The default fleet: five zoo machines spanning fast desktops, a
#: thermally-limited laptop, a noisy cloud VM and an SMT-less ARM server
#: — heterogeneous enough that placement quality actually matters.
DEFAULT_FLEET: tuple[str, ...] = (
    "desktop-8c",
    "laptop-4c",
    "cloud-vm-16v",
    "desktop-8c",
    "arm-server-64c",
)


@dataclass(frozen=True)
class FleetOutcome:
    """Result of placing one job trace across a fleet of machines."""

    policy: str
    machines: tuple[str, ...]
    num_jobs: int
    makespan: float
    mean_wait_time: float
    mean_turnaround_time: float
    total_rounds: int
    corun_rounds: int
    blacklisted_pairs: tuple[tuple[str, str], ...]
    scheduler_overhead_seconds: float
    estimates_requested: int
    estimates_computed: int
    #: Heap events the simulator processed: O(mix changes), not one per
    #: round (see :mod:`repro.fleet.simulator`).
    events_processed: int = 0
    # -- fault accounting (all zero on a fault-free run) -------------------------
    #: Jobs that exhausted their retry budget (names, sorted by failure time).
    failed_jobs: tuple[str, ...] = ()
    #: Crash-requeues across the fleet.
    retries: int = 0
    #: Preemptions applied across the fleet.
    preemptions: int = 0
    #: Training steps destroyed by aborted in-flight rounds.
    lost_steps: int = 0
    # -- admission / SLO accounting (all zero without admission control) ---------
    #: Jobs shed by the admission controller (never placed).
    rejections: int = 0
    #: rejections / offered jobs (0.0 when everything was admitted).
    shed_rate: float = 0.0
    #: Deepest the central queue ever got (bounded by ``queue_limit``
    #: whenever an admission controller is active).
    peak_queue_depth: int = 0
    #: Exact nearest-rank wait-time percentiles: (("p50", ...), ("p95", ...),
    #: ("p99", ...)).
    wait_percentiles: tuple[tuple[str, float], ...] = ()
    #: Identity of this run's record in the run store (None when not recorded).
    run_id: str | None = None

    @property
    def p99_wait_time(self) -> float:
        """The p99 wait — the headline SLO number under overload."""
        return dict(self.wait_percentiles).get("p99", 0.0)

    def __str__(self) -> str:
        text = (
            f"fleet[{self.policy}] on {len(self.machines)} machines: "
            f"{self.num_jobs} jobs in {self.makespan:.2f} s "
            f"(mean wait {self.mean_wait_time:.2f} s, "
            f"{self.corun_rounds}/{self.total_rounds} co-run rounds, "
            f"{len(self.blacklisted_pairs)} blacklisted pairings, "
            f"scheduler overhead {self.scheduler_overhead_seconds * 1e3:.1f} ms)"
        )
        if self.retries or self.preemptions or self.lost_steps or self.failed_jobs:
            text += (
                f" [faults: {self.retries} retries, {self.preemptions} preemptions, "
                f"{self.lost_steps} lost steps, {len(self.failed_jobs)} failed]"
            )
        if self.rejections:
            text += (
                f" [admission: {self.rejections} shed "
                f"({self.shed_rate:.0%}), peak queue {self.peak_queue_depth}, "
                f"p99 wait {self.p99_wait_time:.2f} s]"
            )
        return text


def run_fleet(
    jobs: Sequence["Job"] | None = None,
    *,
    machines: Sequence[str] = DEFAULT_FLEET,
    policy: str = "interference-aware",
    num_jobs: int = 20,
    arrival_seed: int = 0,
    mean_interarrival: float = 2.0,
    min_steps: int = 3,
    max_steps: int = 10,
    arrival_process=None,
    queue_limit: int | None = None,
    deadline: float | None = None,
    shed_policy: str = "reject-at-arrival",
    max_corun: int | None = None,
    config: RuntimeConfig | None = None,
    executor=None,
    faults=None,
    checkpoint=None,
    store=None,
    _resume=None,
) -> FleetOutcome:
    """Place a stream of training jobs across many zoo machines.

    ``jobs`` defaults to a deterministic generated trace of ``num_jobs``
    jobs (``arrival_seed`` drives arrivals, kinds and step counts,
    ``mean_interarrival`` sets the offered load,
    ``min_steps``/``max_steps`` bound the per-job training length — see
    :func:`repro.fleet.generate_trace`; ``num_jobs=0`` yields a
    well-formed empty outcome).  ``arrival_process`` instead streams an
    open-loop arrival process (an
    :class:`~repro.fleet.ArrivalProcess`, a registered arrival-spec name
    such as ``"overload"`` — see
    :func:`repro.scenarios.available_arrival_specs` — a spec dict or a
    JSON string/path); the trace is pulled lazily, never materialised.
    ``queue_limit`` / ``deadline`` / ``shed_policy`` activate admission
    control (:class:`~repro.fleet.AdmissionController`): under overload
    the fleet sheds work instead of growing the queue without bound, and
    the outcome reports rejections, shed rate, peak queue depth and
    exact wait percentiles.  ``policy`` is one of
    :func:`repro.fleet.available_policies` (``"first-fit"``,
    ``"load-balanced"``, ``"interference-aware"``).  ``faults`` injects a
    deterministic fault plan (machine crashes, joins, drains, stragglers,
    preemptions): a
    :class:`~repro.fleet.FaultPlan`, a registered fault-spec name
    (:func:`repro.scenarios.available_fault_specs`), a spec dict or a
    JSON string/path — see :mod:`repro.fleet.faults`.  The same (trace,
    policy, machine set, fault plan, admission settings) always produces
    the identical outcome.  ``store`` selects the run store the full
    result history is recorded in (see :func:`repro.store.resolve_store`;
    default: record only when ``$REPRO_STORE_DIR`` is set) — stored runs
    replay their reports via ``python -m repro report`` without
    re-simulating.
    """
    from repro.fleet import (
        AdmissionController,
        ArrivalProcess,
        FleetSimulator,
        ReplayArrivals,
        generate_trace,
        resolve_arrivals,
    )
    from repro.fleet.simulator import DEFAULT_MAX_CORUN

    generated_spec = None
    if arrival_process is not None:
        if jobs is not None:
            raise ValueError("pass either jobs or arrival_process, not both")
        jobs = resolve_arrivals(
            arrival_process,
            num_jobs=num_jobs,
            seed=arrival_seed,
            mean_interarrival=mean_interarrival,
            min_steps=min_steps,
            max_steps=max_steps,
        )
    elif jobs is None:
        jobs = (
            generate_trace(
                num_jobs,
                seed=arrival_seed,
                mean_interarrival=mean_interarrival,
                min_steps=min_steps,
                max_steps=max_steps,
            )
            if num_jobs > 0
            else ()
        )
        # The generated default is exactly a seeded Poisson process; keep
        # its spec so the stored config reproduces the trace.
        generated_spec = {
            "kind": "poisson",
            "num_jobs": num_jobs,
            "seed": arrival_seed,
            "mean_interarrival": mean_interarrival,
            "min_steps": min_steps,
            "max_steps": max_steps,
        }
    admission = None
    if queue_limit is not None or deadline is not None:
        admission = AdmissionController(
            queue_limit=queue_limit, deadline=deadline, shed_policy=shed_policy
        )
    simulator = FleetSimulator(
        machines,
        policy=policy,
        executor=executor,
        config=config,
        max_corun=max_corun if max_corun is not None else DEFAULT_MAX_CORUN,
        faults=faults,
        admission=admission,
    )
    fleet_config = _fleet_config(
        machines=machines,
        policy_name=getattr(simulator.policy, "name", str(policy)),
        max_corun=max_corun if max_corun is not None else DEFAULT_MAX_CORUN,
        admission=admission,
        faults=faults,
        generated_spec=generated_spec,
        jobs=jobs,
        arrival_process_cls=ArrivalProcess,
        replay_cls=ReplayArrivals,
    )
    ckpt = None
    if checkpoint is not None and checkpoint is not False:
        from repro.resilience.checkpoint import Checkpointer, resolve_checkpoint

        if isinstance(checkpoint, Checkpointer):
            ckpt = checkpoint
        else:
            if fleet_config is None:
                raise ValueError(
                    "checkpointing needs a recordable run config; pass a "
                    "serialisable arrival process (or a generated trace)"
                )
            from repro.store.record import run_key

            ckpt = resolve_checkpoint(
                checkpoint,
                run_id=run_key("fleet", "run_fleet", fleet_config),
                manifest={"config": fleet_config},
            )
    if ckpt is not None:
        from repro.resilience.checkpoint import GracefulInterrupt, RunInterrupted

        try:
            with GracefulInterrupt(ckpt):
                result = simulator.run(jobs, checkpoint=ckpt, resume_from=_resume)
        except RunInterrupted as exc:
            _record_interrupted_fleet(store, fleet_config, exc)
            raise
    else:
        result = simulator.run(jobs, resume_from=_resume)
    outcome = FleetOutcome(
        policy=result.policy_name,
        machines=result.machine_names,
        num_jobs=result.num_jobs,
        makespan=result.makespan,
        mean_wait_time=result.mean_wait_time,
        mean_turnaround_time=result.mean_turnaround_time,
        total_rounds=sum(m.rounds for m in result.machine_reports),
        corun_rounds=sum(m.corun_rounds for m in result.machine_reports),
        blacklisted_pairs=result.blacklisted_pairs,
        scheduler_overhead_seconds=result.scheduler_overhead_seconds,
        estimates_requested=result.estimates_requested,
        estimates_computed=result.estimates_computed,
        events_processed=result.events_processed,
        failed_jobs=tuple(f.job for f in result.failures),
        retries=result.retries,
        preemptions=result.preemptions,
        lost_steps=result.lost_steps,
        rejections=len(result.rejections),
        shed_rate=result.shed_rate,
        peak_queue_depth=result.peak_queue_depth,
        wait_percentiles=tuple(sorted(result.wait_percentiles.items())),
    )
    run_id = _record_fleet_result(store, result, config=fleet_config)
    if run_id is not None:
        outcome = dataclasses.replace(outcome, run_id=run_id)
    return outcome


def _fleet_config(
    *,
    machines,
    policy_name,
    max_corun,
    admission,
    faults,
    generated_spec,
    jobs,
    arrival_process_cls,
    replay_cls,
):
    """The canonical (JSON-ready) config dict of one ``run_fleet`` call.

    Built *before* the simulation so checkpointing can derive the run id
    up front; the run store records the exact same dict afterwards, so a
    resumed run lands on the same ``run_id`` as its uninterrupted twin.
    Spec capture (arrival/fault) is defensive: an unserialisable custom
    process or plan degrades the stored config (returning ``None``
    disables recording/checkpoint identity), never the run.
    """
    from repro.fleet.faults import resolve_fault_plan
    from repro.store.record import RecordingError, jsonify

    arrival_spec = generated_spec
    if arrival_spec is None:
        try:
            process = (
                jobs
                if isinstance(jobs, arrival_process_cls)
                else replay_cls(trace=tuple(jobs))
            )
            arrival_spec = process.to_dict()
        except Exception:
            arrival_spec = None
    fault_spec = None
    if faults is not None:
        try:
            fault_spec = resolve_fault_plan(faults).to_dict()
        except Exception:
            fault_spec = None
    config = {
        "machines": list(machines),
        "policy": policy_name,
        "max_corun": max_corun,
        # A constant since the fleet has one event loop: it keeps the
        # run ids and checkpoint manifests of earlier runs unchanged.
        "compressed": True,
        "admission": admission.to_dict() if admission is not None else None,
        "faults": fault_spec,
        "arrivals": arrival_spec,
    }
    try:
        return jsonify(config)
    except RecordingError:
        return None


def _record_fleet_result(store, result, *, config) -> str | None:
    """Record a fleet run's full history, best-effort.

    The payload is the complete :meth:`FleetResult.to_dict` (with
    overhead); the digest excludes
    :data:`~repro.fleet.simulator.OVERHEAD_KEYS`, making the stored
    digest byte-compatible with the benchmark determinism gate.
    """
    from repro.store import record_run, resolve_store

    resolved = resolve_store(store)
    if resolved is None or config is None:
        return None
    from repro.fleet.simulator import OVERHEAD_KEYS

    return record_run(
        resolved,
        "fleet",
        "run_fleet",
        config=config,
        payload=result,
        digest_excludes=OVERHEAD_KEYS,
    )


def _record_interrupted_fleet(store, config, exc) -> str | None:
    """Best-effort partial record of an interrupted fleet run.

    Marked ``interrupted=True`` in the extras so ``repro report list``
    can flag it; recorded under the *same* run id as the eventual
    complete run, so a successful resume simply supersedes the stub
    (latest record wins).
    """
    from repro.store import record_run, resolve_store

    resolved = resolve_store(store)
    if resolved is None or config is None:
        return None
    return record_run(
        resolved,
        "fleet",
        "run_fleet",
        config=config,
        payload={
            "interrupted": True,
            "events_processed": exc.events,
            "checkpoint_seq": exc.seq,
        },
        extras={"interrupted": True},
    )
