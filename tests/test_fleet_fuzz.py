"""Generated differential tests: fast fleet loop == reference loop
(``ReferenceFleetSimulator``, tests/reference_fleet.py), streamed
arrivals == their materialised trace, and resumed run == uninterrupted
run.

Hypothesis draws whole fleet runs: a multiset of 2–5 zoo machines,
``max_corun`` 1–3, 1–10 jobs of 1–400 steps with tie-prone arrival
gaps, an optional admission controller, an optional seeded fault plan
(crashes at rates up to 1, stragglers, preemptions, mid-trace joins,
1–3 attempts per job) and a blacklist threshold.  Both loops run it
with an estimator whose co-run slowdowns differ per machine, and must
agree on the digest and on the full fleet-wide interference tracker, or
stall with the same message.  On the reference loop the
interference-aware policy is the machine-by-machine oracle
(tests/reference_placement.py).  Every run that does not stall must
account for each offered job exactly once, as one completion, failure
or rejection, on both loops.

The streamed test draws an arrival process instead of a trace (Poisson,
diurnal or bursty, 1–30 jobs, with the same machines, faults, policies
and admission): on each loop, pulling it lazily must give the same
digest and fleet tracker as replaying ``process.materialize()``.

The resume test takes the same runs on the product loop (the reference
loop does not checkpoint), snapshots every 1–20 events, interrupts at a
drawn point and resumes from the newest snapshot; digest and fleet
tracker must equal the uninterrupted run's.

Tier-1 runs a small derandomized profile.  ``make fuzz`` sets
``REPRO_FUZZ_EXAMPLES`` for a long randomized run.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from reference_fleet import ReferenceFleetSimulator
from reference_placement import ReferenceInterferenceAwarePolicy
from test_fleet_compression import (
    BASES,
    SYN_A,
    SYN_B,
    SYN_C,
    deterministic_dict,
    machine_pair_estimator,
)

from repro.fleet import (
    AdmissionController,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    FaultPlan,
    FleetSimulator,
    FleetStalled,
    Job,
    MachineCrash,
    PoissonArrivals,
    generate_fault_plan,
)
from repro.resilience import checkpoint as checkpoint_module
from repro.resilience.checkpoint import CheckpointConfig, Checkpointer, RunInterrupted

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))

ZOO = tuple(BASES)
POLICIES = ("first-fit", "load-balanced", "interference-aware")
RATES = (0.0, 0.3, 0.8)
#: Every machine crashing, with as few as one attempt per job, fails
#: jobs before some snapshots, so resumes restore failures and attempts.
CRASH_RATES = (*RATES, 1.0)

#: Half-second gaps let arrivals tie with round boundaries; free floats
#: cover everything else.
gaps = st.one_of(
    st.integers(min_value=0, max_value=120).map(lambda n: n / 2),
    st.floats(min_value=0.0, max_value=60.0),
)


@st.composite
def admission_controllers(draw):
    shed_policy = draw(
        st.sampled_from(("reject-at-arrival", "drop-oldest", "deadline-expire"))
    )
    queue_limit = draw(st.integers(min_value=1, max_value=6))
    if shed_policy != "drop-oldest" and draw(st.booleans()):
        queue_limit = None
    deadline = draw(st.floats(min_value=1.0, max_value=200.0))
    if shed_policy != "deadline-expire" and draw(st.booleans()):
        deadline = None
    return AdmissionController(
        queue_limit=queue_limit, deadline=deadline, shed_policy=shed_policy
    )


@st.composite
def fleet_runs(draw):
    machines = draw(st.lists(st.sampled_from(ZOO), min_size=2, max_size=5))
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from((SYN_A, SYN_B, SYN_C)),
                st.integers(min_value=1, max_value=400),
                gaps,
            ),
            min_size=1,
            max_size=10,
        )
    )
    jobs, arrival = [], 0.0
    for number, (workload, steps, gap) in enumerate(specs):
        arrival += gap
        jobs.append(
            Job(
                name=f"j{number:02d}",
                workload=workload,
                num_steps=steps,
                arrival_time=arrival,
            )
        )
    return fleet_case(draw, machines, jobs)


def trace_of(source):
    """The jobs of a case's trace or arrival process."""
    return source.materialize() if isinstance(source, ArrivalProcess) else source


def fleet_case(draw, machines, source):
    """A run of ``source`` (a trace or an arrival process) on
    ``machines``, with a drawn fault plan, policy, slot count, admission
    controller and blacklist threshold."""
    jobs = trace_of(source)
    faults = None
    if draw(st.booleans()):
        faults = generate_fault_plan(
            [f"m{index}" for index in range(len(machines))],
            horizon=jobs[-1].arrival_time
            + draw(st.floats(min_value=1.0, max_value=2000.0)),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            crash_rate=draw(st.sampled_from(CRASH_RATES)),
            straggler_rate=draw(st.sampled_from(RATES)),
            preempt_rate=draw(st.sampled_from(RATES)),
            job_names=[job.name for job in jobs],
            join_machines=draw(st.lists(st.sampled_from(ZOO), max_size=2)),
            max_retries=draw(st.integers(min_value=1, max_value=3)),
        )
    return dict(
        machines=machines,
        jobs=source,
        faults=faults,
        policy=draw(st.sampled_from(POLICIES)),
        max_corun=draw(st.integers(min_value=1, max_value=3)),
        admission=draw(st.none() | admission_controllers()),
        interference_threshold=draw(st.sampled_from((0.3, 0.75, 5.0))),
    )


@st.composite
def streamed_runs(draw):
    """A fleet run fed by a drawn arrival process of 1-30 jobs."""
    machines = draw(st.lists(st.sampled_from(ZOO), min_size=2, max_size=5))
    common = dict(
        num_jobs=draw(st.integers(min_value=1, max_value=30)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        mean_interarrival=draw(st.sampled_from((0.5, 5.0, 40.0))),
        workloads=(SYN_A, SYN_B, SYN_C),
        min_steps=1,
        max_steps=draw(st.sampled_from((4, 60, 400))),
    )
    kind = draw(st.sampled_from((PoissonArrivals, DiurnalArrivals, BurstyArrivals)))
    if kind is DiurnalArrivals:
        common.update(
            period=draw(st.floats(min_value=10.0, max_value=500.0)),
            amplitude=draw(st.floats(min_value=0.0, max_value=0.95)),
        )
    elif kind is BurstyArrivals:
        common.update(
            burst_size=draw(st.integers(min_value=1, max_value=6)),
            tail_alpha=draw(st.floats(min_value=0.8, max_value=3.0)),
        )
    return fleet_case(draw, machines, kind(**common))


#: Shrunk counterexample: both machines crash, so the dead fleet fails
#: the stranded job when the event queue runs dry — at the end of the
#: round the crash aborted (1.0 s), not at the end of the fast loop's
#: discarded two-round segment (2.0 s).
DEAD_FLEET = dict(
    machines=["desktop-8c", "desktop-8c"],
    jobs=[Job(name="j00", workload=SYN_A, num_steps=2, arrival_time=0.0)],
    faults=FaultPlan(
        events=(
            MachineCrash(time=0.27, machine="m0"),
            MachineCrash(time=0.0165, machine="m1"),
        )
    ),
    policy="first-fit",
    max_corun=1,
    admission=None,
    interference_threshold=0.3,
)


def simulator(case, compressed):
    return (FleetSimulator if compressed else ReferenceFleetSimulator)(
        case["machines"],
        policy=case["policy"],
        # The joined machines need solo times too.
        estimator=machine_pair_estimator(ZOO),
        max_corun=case["max_corun"],
        admission=case["admission"],
        interference_threshold=case["interference_threshold"],
    )


def outcome(case, compressed):
    sim = simulator(case, compressed)
    if not compressed and case["policy"] == "interference-aware":
        sim.policy = ReferenceInterferenceAwarePolicy(sim.estimator, sim.tracker)
    try:
        result = sim.run(case["jobs"], prewarm=False, faults=case["faults"])
    except FleetStalled as stalled:
        return ("stalled", str(stalled), sim.tracker.snapshot())
    accounted = sorted(
        record.job
        for records in (result.completions, result.failures, result.rejections)
        for record in records
    )
    assert accounted == sorted(job.name for job in trace_of(case["jobs"])), compressed
    return (deterministic_dict(result), sim.tracker.snapshot())


@settings(
    max_examples=FUZZ_EXAMPLES or 80,
    derandomize=not FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=fleet_runs())
@example(case=DEAD_FLEET)
def test_fast_loop_matches_reference(case):
    assert outcome(case, compressed=True) == outcome(case, compressed=False)


@settings(
    max_examples=FUZZ_EXAMPLES or 60,
    derandomize=not FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=streamed_runs())
def test_streamed_run_matches_materialised(case):
    trace = dict(case, jobs=trace_of(case["jobs"]))
    for compressed in (False, True):
        assert outcome(case, compressed) == outcome(trace, compressed)


@settings(
    max_examples=FUZZ_EXAMPLES or 40,
    derandomize=not FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=fleet_runs(),
    interval=st.integers(min_value=1, max_value=20),
    interrupt=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_resumed_run_matches_uninterrupted(case, interval, interrupt):
    def run(sim, **kw):
        return sim.run(case["jobs"], prewarm=False, faults=case["faults"], **kw)

    baseline = simulator(case, compressed=True)
    try:
        result = run(baseline)
    except FleetStalled:
        assume(False)
    want = (deterministic_dict(result), baseline.tracker.snapshot())
    # ``interrupt`` < 1, so the run stops before its last event.
    interrupt_after = int(result.events_processed * interrupt)
    with tempfile.TemporaryDirectory() as root, mock.patch.object(
        checkpoint_module, "_CAN_FORK", False
    ):
        config = CheckpointConfig(interval=interval, root=root)
        with pytest.raises(RunInterrupted):
            run(
                simulator(case, compressed=True),
                checkpoint=dataclasses.replace(config, interrupt_after=interrupt_after),
                run_id="fuzz",
                manifest={},
            )
        checkpointer, payload = Checkpointer.open("fuzz", config=config)
        resumed = simulator(case, compressed=True)
        result = run(resumed, checkpoint=checkpointer, resume_from=payload)
    assert (deterministic_dict(result), resumed.tracker.snapshot()) == want
