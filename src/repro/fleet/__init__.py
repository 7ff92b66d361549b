"""Interference-aware multi-machine job placement (the fleet layer).

The layer between the single-machine runtime (PR 1), the sweep engine
(PR 2) and the machine zoo / scenario registry (PR 3): a stream of
training jobs (:mod:`repro.fleet.job`) is placed across zoo machines by
a pluggable policy (:mod:`repro.fleet.policies`) and executed by an
event-driven simulator (:mod:`repro.fleet.simulator`) whose per-machine
rounds run on the existing merged-graph co-run path with cached
step-time estimates (:mod:`repro.fleet.estimates`).  The simulator's
event loop batch-advances stable job mixes in closed form — O(mix
changes) heap events instead of O(total training steps) — and a
boundary calendar finds the machines due at each event without scanning
the fleet.  It stays byte-identical to the seed one-event-per-round
loop, kept as the independent test oracle ``ReferenceFleetSimulator``
(``tests/reference_fleet.py``), and keeps 1,000-job traces interactive
and 100,000-job / 1,000-machine streams feasible.

Deterministic fault injection (:mod:`repro.fleet.faults`) layers machine
churn, graceful drains, straggler windows and job preemption over any
trace as a declarative seeded :class:`~repro.fleet.faults.FaultPlan`,
and the simulator stays byte-identical to the reference loop under
faults.

Open-loop service (:mod:`repro.fleet.arrivals`): seeded lazy arrival
processes (Poisson, diurnal, bursty heavy-tail, replay) stream jobs
into the simulator event-by-event — a million-job trace never
materialises — and an :class:`~repro.fleet.arrivals.AdmissionController`
(bounded queue, per-job deadlines, shed policies) turns overload into
explicit :class:`~repro.fleet.simulator.JobRejection` records, SLO
percentiles and windowed backlog/throughput series on the result.

Entry points: :func:`repro.api.run_fleet`, the ``fleet`` experiment
(``python -m repro.experiments fleet``) and ``benchmarks/fleet_bench.py``.
"""

from repro.fleet.arrivals import (
    ARRIVAL_KINDS,
    AdmissionController,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    ReplayArrivals,
    arrival_from_dict,
    build_arrivals,
    resolve_arrivals,
)
from repro.fleet.estimates import (
    EstimatorStats,
    StepTimeEstimator,
    canonical_mix,
    corun_step_time,
    scale_step_time,
)
from repro.fleet.faults import (
    DEFAULT_MAX_RETRIES,
    FaultInjector,
    FaultPlan,
    JobPreempt,
    MachineCrash,
    MachineJoin,
    MachineLeave,
    Straggler,
    generate_fault_plan,
    resolve_fault_plan,
)
from repro.fleet.job import (
    DEFAULT_JOB_MIX,
    Job,
    generate_trace,
    jobs_from_scenario,
    validate_trace,
)
from repro.fleet.policies import (
    POLICIES,
    FirstFitPolicy,
    InterferenceAwarePolicy,
    LoadBalancedPolicy,
    PlacementPolicy,
    available_policies,
    make_policy,
)
from repro.fleet.simulator import (
    DEFAULT_MAX_CORUN,
    OVERHEAD_KEYS,
    FleetResult,
    FleetSimulator,
    FleetStalled,
    JobCompletion,
    JobFailure,
    JobRejection,
    MachineReport,
    exact_percentiles,
)
from repro.fleet.state import FleetState, MachineState, MachineView, Placement

__all__ = [
    "ARRIVAL_KINDS",
    "AdmissionController",
    "ArrivalProcess",
    "BurstyArrivals",
    "DEFAULT_JOB_MIX",
    "DEFAULT_MAX_CORUN",
    "DEFAULT_MAX_RETRIES",
    "DiurnalArrivals",
    "EstimatorStats",
    "FaultInjector",
    "FaultPlan",
    "FirstFitPolicy",
    "FleetResult",
    "FleetSimulator",
    "FleetStalled",
    "FleetState",
    "InterferenceAwarePolicy",
    "Job",
    "JobCompletion",
    "JobFailure",
    "JobPreempt",
    "JobRejection",
    "LoadBalancedPolicy",
    "MachineCrash",
    "MachineJoin",
    "MachineLeave",
    "MachineReport",
    "MachineState",
    "MachineView",
    "OVERHEAD_KEYS",
    "POLICIES",
    "Placement",
    "PlacementPolicy",
    "PoissonArrivals",
    "ReplayArrivals",
    "StepTimeEstimator",
    "Straggler",
    "arrival_from_dict",
    "available_policies",
    "build_arrivals",
    "canonical_mix",
    "corun_step_time",
    "exact_percentiles",
    "generate_fault_plan",
    "generate_trace",
    "jobs_from_scenario",
    "make_policy",
    "resolve_arrivals",
    "resolve_fault_plan",
    "scale_step_time",
    "validate_trace",
]
