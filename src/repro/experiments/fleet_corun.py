"""Fleet co-run: Table III raised from op pairs on cores to jobs on machines.

Table III shows that *how* two operations share one chip (serial /
hyper-threads / split cores) changes throughput by up to 38%.  This
experiment asks the same question one level up: a fixed 50-job trace is
placed across five heterogeneous zoo machines by each placement policy,
and the policies are compared on makespan — the fleet-scale analogue of
the table's three co-running strategies, with first-fit playing the
"serial execution" baseline and the interference-aware policy the
"threads control" row.

``python -m repro.experiments fleet`` runs it; ``--policy`` narrows the
comparison, ``--machines`` swaps the fleet, ``--trace-seed`` (alias
``--arrival-seed``) replays a different trace, and ``--num-jobs`` /
``--steps MIN:MAX`` / ``--mean-interarrival`` scale it — the
round-compression fast path (:class:`~repro.fleet.FleetSimulator`)
keeps thousand-job traces interactive.  ``--arrival-process`` swaps the
default Poisson trace for a registered open-loop arrival spec
(``overload``, ``rush-hour``, ``flash-crowd``, ...), streamed lazily;
``--queue-limit`` / ``--deadline`` / ``--shed-policy`` activate
admission control, adding shed/p99-wait/peak-depth columns.  Results
are deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import DEFAULT_FLEET
from repro.fleet import FleetSimulator, StepTimeEstimator, available_policies, generate_trace
from repro.sweep.executor import SweepExecutor, get_default_executor
from repro.utils.tables import TextTable
from repro.experiments.common import recorded

#: What the single-machine Table III achieved (split cores vs serial);
#: the fleet-scale question is whether placement recovers the same kind
#: of headroom across machines.
PAPER_REFERENCE = {"table3_split_speedup": 1.38}

#: The canonical fleet workload: a 50-job trace over the default fleet.
NUM_JOBS = 50
ARRIVAL_SEED = 0


@dataclass(frozen=True)
class FleetPolicyRow:
    policy: str
    makespan: float
    mean_wait_time: float
    corun_rounds: int
    total_rounds: int
    blacklisted_pairs: int
    # -- fault accounting (all zero on fault-free runs) --------------------------
    retries: int = 0
    preemptions: int = 0
    lost_steps: int = 0
    failed_jobs: int = 0
    # -- admission accounting (all zero without admission control) ---------------
    rejections: int = 0
    peak_queue_depth: int = 0
    p99_wait: float = 0.0


@dataclass(frozen=True)
class FleetCorunResult:
    machines: tuple[str, ...]
    num_jobs: int
    arrival_seed: int
    rows: tuple[FleetPolicyRow, ...]
    min_steps: int = 3
    max_steps: int = 10
    #: The fault plan spec in effect (None for fault-free runs).
    fault_spec: dict | None = None
    #: The arrival-process spec in effect (None for materialised traces).
    arrival_spec: dict | None = None
    #: The admission controller in effect (None when everything admits).
    admission_spec: dict | None = None

    @property
    def speedups_vs_first_fit(self) -> dict[str, float]:
        baseline = next(
            (row.makespan for row in self.rows if row.policy == "first-fit"),
            self.rows[0].makespan,
        )
        return {row.policy: baseline / row.makespan for row in self.rows}


@recorded("fleet")
def run(
    *,
    policies: tuple[str, ...] | None = None,
    machines: tuple[str, ...] | None = None,
    num_jobs: int = NUM_JOBS,
    arrival_seed: int = ARRIVAL_SEED,
    mean_interarrival: float = 2.0,
    min_steps: int = 3,
    max_steps: int = 10,
    arrival_process: str | dict | None = None,
    queue_limit: int | None = None,
    deadline: float | None = None,
    shed_policy: str = "reject-at-arrival",
    executor: SweepExecutor | None = None,
    fault_plan: str | dict | None = None,
    fault_seed: int | None = None,
    crash_rate: float | None = None,
    straggler_rate: float | None = None,
) -> FleetCorunResult:
    """Place the same trace under each policy and compare makespans.

    ``num_jobs``, ``arrival_seed``, ``mean_interarrival`` and
    ``min_steps``/``max_steps`` parameterise the generated trace, so
    large reproducible workloads are one CLI flag away (``--num-jobs
    1000 --steps 200:600``).

    Open loop: ``arrival_process`` names a registered arrival spec
    (``--arrival-process overload``) or carries a spec dict; the stream
    is pulled lazily and every policy replays the identical arrivals.
    ``queue_limit`` / ``deadline`` / ``shed_policy`` activate admission
    control so overload sheds instead of queueing without bound.

    Faults: ``fault_plan`` names a registered fault spec or carries a
    JSON spec directly (``--fault-plan``); alternatively ``fault_seed``
    with ``crash_rate``/``straggler_rate`` generates a seeded random
    plan over the trace's span (``--fault-seed --crash-rate
    --straggler-rate``).  Every policy replays the identical plan.
    """
    from repro.fleet.arrivals import AdmissionController, resolve_arrivals
    from repro.fleet.faults import generate_fault_plan, resolve_fault_plan

    policies = policies or available_policies()
    machines = machines or DEFAULT_FLEET
    executor = executor or get_default_executor()
    process = None
    if arrival_process is not None:
        process = resolve_arrivals(
            arrival_process,
            num_jobs=num_jobs,
            seed=arrival_seed,
            mean_interarrival=mean_interarrival,
            min_steps=min_steps,
            max_steps=max_steps,
        )
        jobs = process
        # The arrival span without materialising the stream: the
        # expected span of the process (num_jobs * mean gap).
        arrival_span = num_jobs * getattr(
            process, "mean_interarrival", mean_interarrival
        )
    else:
        jobs = generate_trace(
            num_jobs,
            seed=arrival_seed,
            mean_interarrival=mean_interarrival,
            min_steps=min_steps,
            max_steps=max_steps,
        )
        arrival_span = jobs[-1].arrival_time if jobs else 0.0
    admission = None
    if queue_limit is not None or deadline is not None:
        admission = AdmissionController(
            queue_limit=queue_limit, deadline=deadline, shed_policy=shed_policy
        )
    if fault_plan is not None:
        plan = resolve_fault_plan(fault_plan)
    elif fault_seed is not None or crash_rate or straggler_rate:
        # Fault window: 1.5x the arrival span, so late faults still land
        # while the tail of the trace is draining.
        horizon = max(1.0, arrival_span * 1.5)
        plan = generate_fault_plan(
            [f"m{i}" for i in range(len(machines))],
            horizon=horizon,
            seed=fault_seed or 0,
            crash_rate=crash_rate or 0.0,
            straggler_rate=straggler_rate or 0.0,
        )
    else:
        plan = None
    # One estimator across policies: step times are pure functions of the
    # (machine, mix), so every policy after the first replays from memo.
    estimator = StepTimeEstimator(executor=executor)
    rows = []
    for policy in policies:
        simulator = FleetSimulator(
            machines,
            policy=policy,
            estimator=estimator,
            admission=admission,
        )
        result = simulator.run(jobs, faults=plan)
        rows.append(
            FleetPolicyRow(
                policy=policy,
                makespan=result.makespan,
                mean_wait_time=result.mean_wait_time,
                corun_rounds=sum(m.corun_rounds for m in result.machine_reports),
                total_rounds=sum(m.rounds for m in result.machine_reports),
                blacklisted_pairs=len(result.blacklisted_pairs),
                retries=result.retries,
                preemptions=result.preemptions,
                lost_steps=result.lost_steps,
                failed_jobs=len(result.failures),
                rejections=len(result.rejections),
                peak_queue_depth=result.peak_queue_depth,
                p99_wait=result.wait_percentiles["p99"],
            )
        )
    arrival_spec = None
    if process is not None:
        try:
            arrival_spec = process.to_dict()
        except TypeError:  # replay traces have no compact spec
            arrival_spec = {"kind": process.kind, "num_jobs": process.num_jobs}
    return FleetCorunResult(
        machines=tuple(machines),
        num_jobs=num_jobs,
        arrival_seed=arrival_seed,
        rows=tuple(rows),
        min_steps=min_steps,
        max_steps=max_steps,
        fault_spec=plan.to_dict() if plan is not None else None,
        arrival_spec=arrival_spec,
        admission_spec=admission.to_dict() if admission is not None else None,
    )


def _describe_fleet(machines: tuple[str, ...]) -> str:
    """Compact fleet description: duplicates collapse to ``name x count``."""
    counts: dict[str, int] = {}
    for name in machines:
        counts[name] = counts.get(name, 0) + 1
    return ", ".join(
        name if count == 1 else f"{name} x{count}" for name, count in counts.items()
    )


def format_report(result: FleetCorunResult) -> str:
    faulted = result.fault_spec is not None
    admitted = result.admission_spec is not None
    columns = ["policy", "makespan (s)", "mean wait (s)", "co-run rounds", "blacklisted", "speedup"]
    if faulted:
        columns += ["retries", "preempted", "lost steps", "failed"]
    if admitted:
        columns += ["shed", "peak queue", "p99 wait (s)"]
    title = (
        f"Fleet co-run — {result.num_jobs} jobs "
        f"({result.min_steps}-{result.max_steps} steps each) over "
        f"{len(result.machines)} machines "
        f"({_describe_fleet(result.machines)}; arrival seed {result.arrival_seed})"
    )
    if result.arrival_spec is not None:
        title += f" [{result.arrival_spec['kind']} arrivals]"
    if faulted:
        title += f" under {len(result.fault_spec['events'])} fault events"
    if admitted:
        title += f" with admission {result.admission_spec['shed_policy']}"
    table = TextTable(columns, title=title)
    speedups = result.speedups_vs_first_fit
    for row in result.rows:
        cells = [
            row.policy,
            row.makespan,
            row.mean_wait_time,
            f"{row.corun_rounds}/{row.total_rounds}",
            str(row.blacklisted_pairs),
            speedups[row.policy],
        ]
        if faulted:
            cells += [
                str(row.retries),
                str(row.preemptions),
                str(row.lost_steps),
                str(row.failed_jobs),
            ]
        if admitted:
            cells += [
                str(row.rejections),
                str(row.peak_queue_depth),
                row.p99_wait,
            ]
        table.add_row(cells)
    return table.render()
