"""Grouped interference-aware placement against the per-machine oracle.

``InterferenceAwarePolicy`` scores each group of machines with equal
hardware and load once per job class, and reuses its decision while the
simulator passes the same ``FleetState`` again.  Every answer must be
the one ``ReferenceInterferenceAwarePolicy`` (tests/reference_placement.py)
gets by scoring machine by machine: on generated fleet states, on the
float-rounding tie the grouping has to resolve, and end to end through
the reference and compressed event loops.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.fleet.policies import InterferenceAwarePolicy
from repro.fleet.state import FleetState, MachineView
from repro.scenarios import Workload

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


class TestGroupedMatchesOracle:
    @given(scenario=fleet_scenarios())
    @settings(max_examples=300, deadline=None)
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


def deterministic_dict(result):
    return json.dumps(result.to_dict(include_overhead=False), sort_keys=True)


ENGINES = {
    "reference": dict(compressed=False),
    "compressed": dict(compressed=True),
}


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
        sim = FleetSimulator(
            machines,
            policy="interference-aware",
            estimator=estimator(),
            admission=AdmissionController(queue_limit=6),
            **ENGINES[engine],
        )
        if oracle:
            sim.policy = ReferenceInterferenceAwarePolicy(sim.estimator, sim.tracker)
        result = sim.run(jobs, prewarm=False, faults=plan)
        outcomes.append((deterministic_dict(result), sim.tracker.snapshot()))
    assert outcomes[0] == outcomes[1]
    # The run exercised what the grouping has to get right.
    result = json.loads(outcomes[0][0])
    assert ["kind-a", "kind-b"] in result["blacklisted_pairs"]
    assert result["rejections"] and result["completions"]
