"""Grouped interference-aware placement against the per-machine oracle.

``InterferenceAwarePolicy`` scores each group of machines with equal
hardware and load once per job class, reuses its decision while the
simulator passes the same ``FleetState`` again, and keeps its groups
from one state to the next.  Every answer must be the one
``ReferenceInterferenceAwarePolicy`` (tests/reference_placement.py) gets
by scoring machine by machine: on generated fleet states, on generated
sequences of states built the way the event loops build them, on the
float-rounding tie the grouping has to resolve, and end to end through
the reference and compressed event loops.  The compressed loop also
must not consult a policy while no machine has a free slot.

Tier-1 runs a small derandomized profile of the generated tests.
``make fuzz`` sets ``REPRO_FUZZ_EXAMPLES`` for a long randomized run.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_fleet import ReferenceFleetSimulator
from reference_placement import ReferenceInterferenceAwarePolicy
from test_fleet import FakeEstimator

from repro.core.interference import InterferenceTracker
from repro.fleet import (
    AdmissionController,
    FaultPlan,
    FleetSimulator,
    Job,
    JobPreempt,
    MachineCrash,
    MachineJoin,
    MachineLeave,
    Straggler,
    generate_trace,
)
from repro.fleet.policies import (
    FirstFitPolicy,
    InterferenceAwarePolicy,
    LoadBalancedPolicy,
    available_policies,
    make_policy,
)
from repro.fleet.state import FleetState, MachineView
from repro.scenarios import Workload

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))

SYN_A = Workload(synthetic_ops=24, synthetic_width=4, label="kind-a")
SYN_B = Workload(synthetic_ops=24, synthetic_width=4, heavy_fraction=0.6, label="kind-b")
SYN_C = Workload(synthetic_ops=16, synthetic_width=2, heavy_fraction=0.3, label="kind-c")
KINDS = ("kind-a", "kind-b", "kind-c")
HARDWARE = ("desktop-8c", "laptop-4c")

#: Solo step times with awkward binary fractions, so sums round.
SOLO = {
    ("desktop-8c", "kind-a"): 0.1,
    ("desktop-8c", "kind-b"): 0.3,
    ("desktop-8c", "kind-c"): 0.7,
    ("laptop-4c", "kind-a"): 0.3,
    ("laptop-4c", "kind-b"): 0.7,
    ("laptop-4c", "kind-c"): 1.1,
}
#: kind-a x kind-b co-runs at 2.5x its slower solo: a blacklisted pairing.
PAIR_FACTORS = {("kind-a", "kind-b"): 2.5}

#: (workload, graph_seed) pairs jobs draw from; two seeds of kind-a are
#: distinct classes of one kind.
CLASSES = ((SYN_A, 0), (SYN_A, 1), (SYN_B, 0), (SYN_C, 0))
#: busy_until - now offsets: ties, values that vanish when added to a
#: drain (1e-17, 3e-17) and values that do not.
OFFSETS = (0.0, 1e-17, 3e-17, 0.25, 0.25 + 2**-50, 1.5)
#: How far ``now`` moves between two states: not at all, by a sliver
#: that rounds away against an earlier ``busy_until``, or past some.
ADVANCES = (0.0, 1e-17, 2**-50, 0.25, 1.5)


def estimator():
    return FakeEstimator(SOLO, pair_factor=1.2, pair_factors=PAIR_FACTORS)


def view(index, hardware, residents, waiting, steps, free_slots, busy_until,
         alive=True, accepting=True):
    return MachineView(
        machine_id=f"m{index}",
        machine_name=hardware,
        residents=tuple(residents),
        waiting=tuple(waiting),
        remaining_steps=tuple(sorted(steps.items())),
        free_slots=free_slots,
        busy_until=busy_until,
        alive=alive,
        accepting=accepting,
    )


def job(name, workload=SYN_A, steps=2, seed=0):
    return Job(name=name, workload=workload, num_steps=steps, graph_seed=seed)


@st.composite
def machine_templates(draw):
    """(hardware, capacity, status, [(workload, seed, num_steps, remaining)])."""
    hardware = draw(st.sampled_from(HARDWARE))
    capacity = draw(st.integers(min_value=1, max_value=3))
    status = draw(st.sampled_from(("accepting", "accepting", "accepting", "draining", "dead")))
    count = 0 if status == "dead" else draw(st.integers(min_value=0, max_value=capacity))
    members = []
    for _ in range(count):
        workload, seed = draw(st.sampled_from(CLASSES))
        steps = draw(st.integers(min_value=1, max_value=4))
        members.append((workload, seed, steps, draw(st.integers(1, steps))))
    return hardware, capacity, status, members


def template_view(index, template, split, busy_until):
    hardware, capacity, status, members = template
    jobs = [
        job(f"m{index}-{slot}", workload, steps, seed)
        for slot, (workload, seed, steps, _) in enumerate(members)
    ]
    remaining = {
        member.name: left for member, (*_, left) in zip(jobs, members)
    }
    split = min(split, len(jobs))
    accepting = status == "accepting"
    return view(
        index,
        hardware,
        jobs[:split],
        jobs[split:],
        remaining,
        free_slots=capacity - len(jobs) if accepting else 0,
        busy_until=busy_until,
        alive=status != "dead",
        accepting=accepting,
    )


@st.composite
def fleet_scenarios(draw):
    # Machines are copies of a few templates (as a real fleet holds many
    # boxes of few kinds), so equal (hardware, load) groups are common;
    # each copy gets its own busy_until and resident/waiting split.
    now = draw(st.sampled_from((0.0, 2.5)))
    templates = draw(st.lists(machine_templates(), min_size=1, max_size=4))
    machines = tuple(
        template_view(
            index,
            draw(st.sampled_from(templates)),
            draw(st.integers(min_value=0, max_value=3)),
            now + draw(st.sampled_from(OFFSETS)),
        )
        for index in range(draw(st.integers(min_value=1, max_value=12)))
    )
    queue = []
    for position in range(draw(st.integers(min_value=1, max_value=8))):
        workload, seed = draw(st.sampled_from(CLASSES))
        queue.append(job(f"q{position}", workload, draw(st.integers(1, 4)), seed))
    pairs = st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS))
    blacklist = draw(st.lists(pairs, max_size=3))
    # A pairing blacklisted between two place() calls on one state.
    late = draw(st.one_of(st.none(), st.tuples(st.integers(0, len(queue) - 1), pairs)))
    patience = draw(st.sampled_from((1.0, 2.0)))
    state = FleetState(time=now, machines=machines, queue=tuple(queue))
    return state, blacklist, late, patience


def retired(view, dead):
    """``view`` draining (members kept, no slot) or dead (empty)."""
    if dead:
        return dataclasses.replace(
            view, residents=(), waiting=(), remaining_steps=(), free_slots=0,
            alive=False, accepting=False,
        )
    return dataclasses.replace(view, free_slots=0, accepting=False)


@st.composite
def state_sequences(draw):
    """2–8 states, each built from the last the way the loops build them:
    a few machines get a new view, may drain or die, a machine may join,
    and every other machine keeps its view object."""
    now = draw(st.sampled_from((0.0, 2.5)))
    templates = draw(st.lists(machine_templates(), min_size=1, max_size=4))

    def fresh(index):
        return template_view(
            index,
            draw(st.sampled_from(templates)),
            draw(st.integers(min_value=0, max_value=3)),
            now + draw(st.sampled_from(OFFSETS)),
        )

    machines = [fresh(index) for index in range(draw(st.integers(1, 10)))]
    pairs = st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS))
    states = []
    for step in range(draw(st.integers(min_value=2, max_value=8))):
        blacklist = None
        if step:
            now += draw(st.sampled_from(ADVANCES))
            indices = st.integers(0, len(machines) - 1)
            for index in draw(st.lists(indices, max_size=3)):
                machines[index] = fresh(index)
            for index in draw(st.lists(indices, max_size=2)):
                machines[index] = retired(machines[index], draw(st.booleans()))
            if draw(st.booleans()):
                machines.append(fresh(len(machines)))
            blacklist = draw(st.one_of(st.none(), pairs))
        queue = []
        for position in range(draw(st.integers(min_value=1, max_value=5))):
            workload, seed = draw(st.sampled_from(CLASSES))
            steps = draw(st.integers(min_value=1, max_value=4))
            queue.append(job(f"q{step}-{position}", workload, steps, seed))
        state = FleetState(time=now, machines=tuple(machines), queue=tuple(queue))
        states.append((state, blacklist))
    return states, draw(st.sampled_from((1.0, 2.0)))


def assert_fresh_requests(grouped, unseen, state):
    """``unseen``, a job class no memo holds, costs ``grouped`` the
    estimates it costs a fresh policy, for the same answer: both check
    the same full groups, lowest machine index first, up to the first
    that makes the job wait."""
    before = grouped.estimator.stats.requests
    choice = grouped.place(unseen, state)
    fresh = InterferenceAwarePolicy(
        estimator(), grouped.tracker, patience=grouped.patience
    )
    assert fresh.place(unseen, state) == choice
    spent = grouped.estimator.stats.requests - before
    assert spent == fresh.estimator.stats.requests


class TestGroupedMatchesOracle:
    @given(scenario=fleet_scenarios())
    @settings(
        max_examples=FUZZ_EXAMPLES or 300,
        derandomize=not FUZZ_EXAMPLES,
        deadline=None,
    )
    def test_generated_states(self, scenario):
        state, blacklist, late, patience = scenario
        tracker = InterferenceTracker(threshold=0.75)
        for kind_a, kind_b in blacklist:
            tracker.mark_blacklisted(kind_a, kind_b)
        grouped = InterferenceAwarePolicy(estimator(), tracker, patience=patience)
        oracle = ReferenceInterferenceAwarePolicy(estimator(), tracker, patience=patience)
        # One state object for the whole queue, as in a dispatch pass.
        for position, queued in enumerate(state.queue):
            if late is not None and late[0] == position:
                tracker.mark_blacklisted(*late[1])
            assert grouped.place(queued, state) == oracle.place(queued, state)

    @given(sequence=state_sequences())
    @settings(
        max_examples=FUZZ_EXAMPLES or 150,
        derandomize=not FUZZ_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_generated_state_sequences(self, sequence):
        # One policy keeps its groups across the states; a fresh oracle
        # scores every call machine by machine.
        states, patience = sequence
        tracker = InterferenceTracker(threshold=0.75)
        grouped = InterferenceAwarePolicy(estimator(), tracker, patience=patience)
        for step, (state, blacklist) in enumerate(states):
            if blacklist is not None:
                tracker.mark_blacklisted(*blacklist)
            for queued in state.queue:
                oracle = ReferenceInterferenceAwarePolicy(
                    estimator(), tracker, patience=patience
                )
                assert grouped.place(queued, state) == oracle.place(queued, state)
            unseen = job(f"u{step}", SYN_C, steps=2, seed=100 + step)
            assert_fresh_requests(grouped, unseen, state)

    def test_full_groups_are_checked_by_lowest_index_across_states(self):
        # Waiting on "cheap" (one kind-a step left) makes a kind-b job
        # decline the idle laptop; waiting on "dear" does not.  m0 joins
        # cheap after dear's m1 did, then drains while m3 keeps cheap
        # alive: each state's order is the order of the lowest indices.
        def full(index, member, left):
            return view(index, "desktop-8c", [member], [], {member.name: left}, 0, 0.0)

        laptop = view(2, "laptop-4c", [], [], {}, 1, 0.0)
        dear = full(1, job("d", SYN_C, steps=4), 4)
        cheap = full(3, job("c3", SYN_A, steps=3), 1)
        idle = view(0, "desktop-8c", [], [], {}, 1, 0.0)
        m0 = full(0, job("c0", SYN_A, steps=3), 1)
        states = [
            (idle, dear, laptop, cheap),
            (m0, dear, laptop, cheap),
            (retired(m0, dead=False), dear, laptop, cheap),
        ]
        tracker = InterferenceTracker(threshold=0.75)
        grouped = InterferenceAwarePolicy(estimator(), tracker, patience=1.0)
        for step, machines in enumerate(states):
            state = FleetState(time=0.0, machines=machines, queue=())
            queued = job(f"q{step}", SYN_B, steps=3, seed=step)
            oracle = ReferenceInterferenceAwarePolicy(estimator(), tracker, patience=1.0)
            assert oracle.place(queued, state) == ("m0" if step == 0 else None)
            assert_fresh_requests(grouped, queued, state)

    def test_rounding_tie_keeps_lowest_index(self):
        # m0 and m1 run the same load on the same hardware; m0 is ready
        # 1e-17 s later, which the drain swallows, so both cost the same
        # and the lower index wins even though m1 is the least ready.
        resident = job("r0", SYN_C, steps=3)
        twin = job("r1", SYN_C, steps=3)
        machines = (
            view(0, "desktop-8c", [resident], [], {"r0": 3}, 1, 1e-17),
            view(1, "desktop-8c", [twin], [], {"r1": 3}, 1, 0.0),
        )
        state = FleetState(time=0.0, machines=machines, queue=())
        queued = job("q", SYN_C, steps=2)
        tracker = InterferenceTracker(threshold=0.75)
        grouped = InterferenceAwarePolicy(estimator(), tracker)
        oracle = ReferenceInterferenceAwarePolicy(estimator(), tracker)
        assert oracle.place(queued, state) == "m0"
        assert grouped.place(queued, state) == "m0"

    def test_only_the_least_ready_full_machine_decides_a_wait(self):
        # m1 and m2 are full with the same load; only m2, the less busy
        # one, frees a slot soon enough to beat the idle slow laptop
        # (wait 0.0 + 2.1 s and 1.5 + 2.1 s against 3.3 s).
        def full(index, busy_until):
            member = job(f"r{index}", SYN_A, steps=3)
            return view(index, "desktop-8c", [member], [], {member.name: 1}, 0, busy_until)

        machines = (
            view(0, "laptop-4c", [], [], {}, 1, 0.0),
            full(1, 1.5),
            full(2, 0.0),
        )
        state = FleetState(time=0.0, machines=machines, queue=())
        queued = job("q", SYN_C, steps=3)
        tracker = InterferenceTracker(threshold=0.75)
        grouped = InterferenceAwarePolicy(estimator(), tracker, patience=1.0)
        oracle = ReferenceInterferenceAwarePolicy(estimator(), tracker, patience=1.0)
        assert oracle.place(queued, state) is None
        assert grouped.place(queued, state) is None

    def test_decision_follows_a_blacklist_change_on_the_same_state(self):
        machines = (
            view(0, "desktop-8c", [job("r", SYN_A)], [], {"r": 2}, 1, 0.0),
            view(1, "laptop-4c", [], [], {}, 2, 0.0),
        )
        state = FleetState(time=0.0, machines=machines, queue=())
        tracker = InterferenceTracker(threshold=0.75)
        policy = InterferenceAwarePolicy(estimator(), tracker)
        assert policy.place(job("q0", SYN_A), state) == "m0"
        tracker.mark_blacklisted("kind-a", "kind-a")
        assert policy.place(job("q1", SYN_A), state) == "m1"


def with_progress(state, progress):
    """``state`` with each view's ``busy_until`` and remaining steps
    replaced by ``progress``'s ``(busy_until, steps)`` pairs, one per
    view; slots, status and members stay as they are."""
    machines = tuple(
        dataclasses.replace(
            view,
            busy_until=busy_until,
            remaining_steps=tuple(
                (name, step) for (name, _), step in zip(view.remaining_steps, steps)
            ),
        )
        for view, (busy_until, steps) in zip(state.machines, progress)
    )
    return dataclasses.replace(state, machines=machines)


@st.composite
def progress_rewrites(draw):
    """A drawn fleet state and the same state with drawn progress: the
    lag a policy that declares ``reads_progress = False`` may be shown."""
    state, *_ = draw(fleet_scenarios())
    progress = [
        (
            draw(st.floats(min_value=0.0, max_value=state.time + 50.0)),
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=400),
                    min_size=len(view.remaining_steps),
                    max_size=len(view.remaining_steps),
                )
            ),
        )
        for view in state.machines
    ]
    return state, with_progress(state, progress)


def progress_blind_policies():
    """Every registered policy that declares it reads no round progress."""
    policies = [
        make_policy(name, estimator=estimator(), tracker=InterferenceTracker())
        for name in available_policies()
    ]
    return [policy for policy in policies if not getattr(policy, "reads_progress", True)]


class TestReadsProgress:
    """A policy that declares ``reads_progress = False`` is shown lagging
    ``busy_until`` and remaining steps at arrivals, so its answer must not
    depend on them."""

    def test_first_fit_is_the_registered_progress_blind_policy(self):
        assert [policy.name for policy in progress_blind_policies()] == ["first-fit"]

    @given(rewrite=progress_rewrites())
    @settings(
        max_examples=FUZZ_EXAMPLES or 200,
        derandomize=not FUZZ_EXAMPLES,
        deadline=None,
    )
    def test_answer_ignores_progress(self, rewrite):
        state, lagged = rewrite
        for policy in progress_blind_policies():
            for queued in state.queue:
                assert policy.place(queued, lagged) == policy.place(queued, state)

    def test_rewrite_moves_a_policy_that_reads_progress(self):
        # Two equal desktops, each running one kind-a job: load-balanced
        # picks the one with less backlog, and the rewrite swaps which
        # one that is.  First-fit keeps its answer.
        machines = (
            view(0, "desktop-8c", [job("r0")], [], {"r0": 1}, 1, 0.0),
            view(1, "desktop-8c", [job("r1")], [], {"r1": 4}, 1, 0.0),
        )
        state = FleetState(time=0.0, machines=machines, queue=(job("q"),))
        lagged = with_progress(state, [(1.5, [4]), (0.5, [1])])
        balanced = LoadBalancedPolicy(estimator())
        assert balanced.reads_progress
        assert balanced.place(job("q"), state) == "m0"
        assert balanced.place(job("q"), lagged) == "m1"
        first_fit = FirstFitPolicy()
        assert first_fit.place(job("q"), state) == first_fit.place(job("q"), lagged) == "m0"


def deterministic_dict(result):
    return json.dumps(result.to_dict(include_overhead=False), sort_keys=True)


ENGINES = {
    "reference": ReferenceFleetSimulator,
    "compressed": FleetSimulator,
}


#: Estimator requests of the grouped policy's run, per loop.  The wait
#: check visits full groups in order of their lowest machine index and
#: stops at the first that makes the job wait, so another order would
#: request other wait estimates.
GROUPED_REQUESTS = {"reference": 382, "compressed": 358}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_grouped_matches_oracle_through_every_loop(engine):
    machines = ["desktop-8c", "laptop-4c", "desktop-8c", "laptop-4c", "desktop-8c"]
    jobs = generate_trace(
        40, seed=3, workloads=(SYN_A, SYN_B, SYN_C), mean_interarrival=0.2,
        min_steps=2, max_steps=9,
    )
    plan = FaultPlan(
        events=(
            Straggler(time=1.0, machine="m2", factor=2.0, duration=3.0),
            MachineLeave(time=2.0, machine="m3"),
            MachineCrash(time=3.5, machine="m0"),
            MachineJoin(time=4.0, machine_name="desktop-8c"),
            JobPreempt(time=2.5, job=jobs[5].name),
        )
    )
    outcomes = []
    for oracle in (False, True):
        sim = ENGINES[engine](
            machines,
            policy="interference-aware",
            estimator=estimator(),
            admission=AdmissionController(queue_limit=6),
        )
        if oracle:
            sim.policy = ReferenceInterferenceAwarePolicy(sim.estimator, sim.tracker)
        result = sim.run(jobs, prewarm=False, faults=plan)
        if not oracle:
            assert result.estimates_requested == GROUPED_REQUESTS[engine]
        outcomes.append((deterministic_dict(result), sim.tracker.snapshot()))
    assert outcomes[0] == outcomes[1]
    # The run exercised what the grouping has to get right.
    result = json.loads(outcomes[0][0])
    assert ["kind-a", "kind-b"] in result["blacklisted_pairs"]
    assert result["rejections"] and result["completions"]


class SlotProbe:
    """First-fit that records, per call, whether any machine had a free slot."""

    name = "slot-probe"

    def __init__(self):
        self.first_fit = FirstFitPolicy()
        self.saw_free_slot = []

    def place(self, job, fleet):
        free = any(view.free_slots > 0 for view in fleet.machines)
        self.saw_free_slot.append(free)
        return self.first_fit.place(job, fleet)


def test_compressed_loop_skips_passes_without_a_free_slot():
    # One slot per machine and a burst of arrivals: the queue stays
    # non-empty through many round boundaries with every machine full,
    # m1 drains (full, then not accepting) and a machine joins later.
    jobs = [
        Job(name=f"j{number}", workload=(SYN_A, SYN_B, SYN_C)[number % 3],
            num_steps=2 + number % 4, arrival_time=0.05 * number)
        for number in range(12)
    ]
    plan = FaultPlan(
        events=(
            MachineLeave(time=0.5, machine="m1"),
            MachineJoin(time=2.0, machine_name="laptop-4c"),
        )
    )
    outcomes, probes, placements = {}, {}, {}
    for engine in sorted(ENGINES):
        probe = probes[engine] = SlotProbe()
        sim = ENGINES[engine](
            ["desktop-8c", "laptop-4c"], policy=probe, estimator=estimator(),
            max_corun=1,
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        outcomes[engine] = (deterministic_dict(result), sim.tracker.snapshot())
        placements[engine] = {record.machine_id for record in result.placements}
    assert outcomes["compressed"] == outcomes["reference"]
    # The reference loop asks with every machine full; the compressed
    # loop only asks when first-fit places, once per placement.
    assert not all(probes["reference"].saw_free_slot)
    assert all(probes["compressed"].saw_free_slot)
    assert len(probes["compressed"].saw_free_slot) == len(jobs)
    assert placements["compressed"] == {"m0", "m1", "m2"}
