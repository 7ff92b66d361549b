"""Fault injection: equivalence under faults, per-fault accounting, guards.

The tentpole contract: ``repro.fleet.faults`` layers deterministic
machine crashes, joins, graceful drains, straggler windows and job
preemptions over any trace, and the round-compression fast path stays
byte-identical to the one-event-per-round reference loop under every
plan (the randomized sweep below).  The satellites pin the per-fault
accounting (retries / preemptions / lost steps / downtime / attempts),
trace validation, the livelock watchdog vs dead-fleet abandonment, plan
serialization and the zero-cost-when-unused guarantee.
"""

from __future__ import annotations

import json

import pytest
from reference_fleet import ReferenceFleetSimulator

from repro.fleet import (
    AdmissionController,
    FaultInjector,
    FaultPlan,
    FleetSimulator,
    FleetStalled,
    Job,
    JobPreempt,
    MachineCrash,
    MachineJoin,
    MachineLeave,
    Straggler,
    generate_fault_plan,
    generate_trace,
    resolve_fault_plan,
    validate_trace,
)
from repro.fleet.estimates import EstimatorStats
from repro.scenarios import Workload, available_fault_specs, get_fault_spec

SYN_A = Workload(synthetic_ops=24, synthetic_width=4, label="kind-a")
SYN_B = Workload(synthetic_ops=24, synthetic_width=4, heavy_fraction=0.6, label="kind-b")
SYN_C = Workload(synthetic_ops=16, synthetic_width=2, heavy_fraction=0.3, label="kind-c")

POLICIES = ("first-fit", "load-balanced", "interference-aware")


def job(name, workload=SYN_A, steps=2, arrival=0.0, seed=0):
    return Job(
        name=name,
        workload=workload,
        num_steps=steps,
        arrival_time=arrival,
        graph_seed=seed,
    )


class FakeEstimator:
    """Deterministic dict-driven estimator (no graph simulation)."""

    def __init__(self, solo, pair_factor=1.5):
        self.solo = solo
        self.pair_factor = pair_factor
        self.stats = EstimatorStats()

    def step_time(self, machine_name, jobs):
        jobs = list(jobs)
        self.stats.requests += 1
        if len(jobs) == 1:
            return self.solo[(machine_name, jobs[0].kind)]
        slowest = max(self.solo[(machine_name, j.kind)] for j in jobs)
        return slowest * self.pair_factor

    def solo_time(self, machine_name, job):
        return self.step_time(machine_name, (job,))

    def prewarm(self, machine_names, jobs, max_corun=1):
        return 0


BASES = {"desktop-8c": 1.0, "laptop-4c": 3.0, "cloud-vm-16v": 2.0, "arm-server-64c": 1.5}


def fake_estimator(machines, pair_factor=1.5):
    solo = {}
    for name in set(machines) | set(BASES):
        base = BASES[name]
        solo[(name, "kind-a")] = base
        solo[(name, "kind-b")] = 1.5 * base
        solo[(name, "kind-c")] = 0.7 * base
    return FakeEstimator(solo, pair_factor)


def deterministic_dict(result):
    return json.dumps(result.to_dict(include_overhead=False), sort_keys=True)


def run_both_paths(machines, policy, jobs, faults, *, pair_factor=1.5, admission=None):
    """One trace + plan through both simulator paths; returns results and
    tracker snapshots."""
    results, trackers = [], []
    for simulator_cls in (ReferenceFleetSimulator, FleetSimulator):
        sim = simulator_cls(
            machines,
            policy=policy,
            estimator=fake_estimator(machines, pair_factor),
            admission=admission,
        )
        results.append(sim.run(jobs, prewarm=False, faults=faults))
        trackers.append(sim.tracker.snapshot())
    return results, trackers


#: Admission configurations the sweep cycles through (by seed index):
#: faults and backpressure must compose without breaking equivalence.
SWEEP_ADMISSIONS = (
    None,
    AdmissionController(queue_limit=3),
    AdmissionController(queue_limit=2, shed_policy="drop-oldest"),
    AdmissionController(deadline=4.0, shed_policy="deadline-expire"),
)


class TestFaultEquivalenceSweep:
    """The acceptance gate: random plans, every policy, byte-identical."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_random_fault_plans_byte_identical(self, policy):
        machines = ["desktop-8c", "laptop-4c", "cloud-vm-16v", "desktop-8c"]
        plans_checked = 0
        for seed in range(20):
            jobs = generate_trace(
                12,
                seed=seed,
                workloads=(SYN_A, SYN_B, SYN_C),
                min_steps=2,
                max_steps=25,
                mean_interarrival=1.5,
            )
            horizon = jobs[-1].arrival_time * 1.5
            plan = generate_fault_plan(
                [f"m{i}" for i in range(len(machines))],
                horizon=max(horizon, 5.0),
                seed=1000 + seed,
                crash_rate=0.3,
                straggler_rate=0.4,
                preempt_rate=0.2,
                job_names=[j.name for j in jobs],
                join_machines=("arm-server-64c",) if seed % 3 == 0 else (),
                max_retries=2 + seed % 3,
            )
            assert plan.events, f"seed {seed} produced an empty plan"
            admission = SWEEP_ADMISSIONS[seed % len(SWEEP_ADMISSIONS)]
            (reference, compressed), (tracker_ref, tracker_fast) = run_both_paths(
                machines, policy, jobs, plan, admission=admission
            )
            assert deterministic_dict(reference) == deterministic_dict(compressed), (
                f"paths diverged under plan seed {seed} (admission {admission})"
            )
            assert tracker_ref == tracker_fast
            offered = reference.num_jobs
            assert (
                len(reference.completions)
                + len(reference.failures)
                + len(reference.rejections)
                == offered
            )
            plans_checked += 1
        assert plans_checked == 20

    def test_fault_accounting_matches_across_paths(self):
        # Equivalence covers the digest; make the fault fields explicit.
        machines = ["desktop-8c", "laptop-4c"]
        jobs = generate_trace(
            10, seed=2, workloads=(SYN_A, SYN_B), min_steps=4, max_steps=20,
            mean_interarrival=1.0,
        )
        plan = FaultPlan(
            events=(
                Straggler(time=3.0, machine="m0", factor=2.0, duration=10.0),
                MachineCrash(time=8.0, machine="m1"),
                JobPreempt(time=5.0, job=jobs[0].name),
            )
        )
        (reference, compressed), _ = run_both_paths(machines, "first-fit", jobs, plan)
        assert reference.retries == compressed.retries
        assert reference.preemptions == compressed.preemptions
        assert reference.lost_steps == compressed.lost_steps
        assert [f.job for f in reference.failures] == [
            f.job for f in compressed.failures
        ]


class TestZeroCostWhenUnused:
    def test_empty_plan_byte_identical_to_no_plan(self):
        machines = ["desktop-8c", "laptop-4c"]
        jobs = generate_trace(8, seed=1, workloads=(SYN_A, SYN_B))
        outcomes = []
        for faults in (None, FaultPlan(), FaultInjector(FaultPlan())):
            sim = FleetSimulator(
                machines,
                policy="load-balanced",
                estimator=fake_estimator(machines),
                faults=faults,
            )
            outcomes.append(deterministic_dict(sim.run(jobs, prewarm=False)))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_empty_plan_processes_no_extra_events(self):
        machines = ["desktop-8c"]
        jobs = [job("a", steps=3)]
        results = []
        for faults in (None, FaultPlan()):
            sim = FleetSimulator(
                machines,
                policy="first-fit",
                estimator=fake_estimator(machines),
                faults=faults,
            )
            results.append(sim.run(jobs, prewarm=False))
        assert results[0].events_processed == results[1].events_processed


class TestCrashAccounting:
    def two_machine_crash(self, max_retries=3):
        # Load-balanced puts one job per machine; m0 crashes mid-round
        # and its job retries on the surviving m1.
        machines = ["desktop-8c", "desktop-8c"]
        jobs = [job("a", steps=4), job("b", steps=4, arrival=0.1)]
        plan = FaultPlan(
            events=(MachineCrash(time=2.5, machine="m0"),),
            max_retries=max_retries,
        )
        sim = FleetSimulator(
            machines,
            policy="load-balanced",
            estimator=fake_estimator(machines),
        )
        return sim.run(jobs, prewarm=False, faults=plan)

    def test_crash_requeues_with_retry_accounting(self):
        result = self.two_machine_crash()
        assert result.retries == 1
        # kind-a on desktop-8c runs 1 s rounds: the round in flight at
        # t=2.5 is lost and "a" restarts from the 2-completed-rounds
        # boundary on m1.
        assert result.lost_steps == 1
        by_name = {c.job: c for c in result.completions}
        assert by_name["a"].attempts == 2
        assert by_name["b"].attempts == 1
        assert by_name["a"].machine_id == "m1"
        m0 = next(m for m in result.machine_reports if m.machine_id == "m0")
        assert m0.retries == 1
        assert m0.lost_steps == 1
        assert m0.downtime > 0.0
        # Aborted rounds never count as executed rounds or busy time.
        assert m0.rounds == 2
        assert m0.busy_time == pytest.approx(2.0)

    def test_retry_budget_exhaustion_fails_the_job(self):
        # max_retries=1: the first crash already exceeds the budget.
        result = self.two_machine_crash(max_retries=1)
        assert [f.job for f in result.failures] == ["a"]
        failure = result.failures[0]
        assert failure.attempts == 1
        assert failure.failed_time == pytest.approx(2.5)
        assert "a" not in {c.job for c in result.completions}
        # The surviving job still completes normally.
        assert {c.job for c in result.completions} == {"b"}

    def test_crash_on_dead_machine_is_noop(self):
        machines = ["desktop-8c", "desktop-8c"]
        jobs = [job("a", steps=3)]
        plan = FaultPlan(
            events=(
                MachineCrash(time=1.5, machine="m0"),
                MachineCrash(time=2.0, machine="m0"),
            )
        )
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        assert result.retries == 1
        assert len(result.completions) == 1


class TestPreemptAccounting:
    def test_preempt_requeues_without_burning_retry_budget(self):
        machines = ["desktop-8c"]
        jobs = [job("a", steps=4)]
        plan = FaultPlan(events=(JobPreempt(time=1.5, job="a"),))
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        assert result.preemptions == 1
        assert result.retries == 0
        assert result.lost_steps == 1  # the round in flight at t=1.5
        completion = result.completions[0]
        assert completion.attempts == 1  # preemption is not a retry
        # 1 round done by t=1.5, 3 remain after the immediate re-place:
        # finish = 1.5 + 3 x 1.0.
        assert completion.finish_time == pytest.approx(4.5)

    def test_preempt_unknown_or_finished_job_is_noop(self):
        machines = ["desktop-8c"]
        jobs = [job("a", steps=2)]
        plan = FaultPlan(
            events=(
                JobPreempt(time=0.5, job="ghost"),
                JobPreempt(time=50.0, job="a"),  # long after "a" finished
            )
        )
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        assert result.preemptions == 0
        assert result.completions[0].finish_time == pytest.approx(2.0)


class TestLeaveDrain:
    def test_leave_drains_then_dies(self):
        machines = ["desktop-8c", "laptop-4c"]
        # "a" runs on m0 when the drain starts; "b" arrives after and
        # must land on the slow m1 because m0 no longer accepts.
        jobs = [job("a", steps=4), job("b", steps=2, arrival=1.5)]
        plan = FaultPlan(events=(MachineLeave(time=1.0, machine="m0"),))
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        by_name = {c.job: c for c in result.completions}
        assert by_name["a"].machine_id == "m0"  # resident runs to completion
        assert by_name["a"].finish_time == pytest.approx(4.0)
        assert by_name["b"].machine_id == "m1"
        m0 = next(m for m in result.machine_reports if m.machine_id == "m0")
        assert m0.downtime > 0.0  # left the fleet after draining
        assert result.retries == 0 and result.lost_steps == 0

    def test_leave_idle_machine_dies_immediately(self):
        machines = ["desktop-8c", "desktop-8c"]
        jobs = [job("a", steps=2, arrival=2.0)]
        plan = FaultPlan(events=(MachineLeave(time=0.5, machine="m0"),))
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        assert result.completions[0].machine_id == "m1"


class TestJoin:
    def test_join_adds_capacity_mid_trace(self):
        machines = ["desktop-8c"]
        # Saturate m0 (max_corun=2 -> two residents), queue the third job,
        # then join a machine: the queued job must land on the new m1.
        jobs = [
            job("a", steps=10),
            job("b", steps=10),
            job("c", steps=4, arrival=0.5),
        ]
        plan = FaultPlan(events=(MachineJoin(time=2.0, machine_name="laptop-4c"),))
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        by_name = {c.job: c for c in result.completions}
        assert by_name["c"].machine_id == "m1"
        assert by_name["c"].start_time == pytest.approx(2.0)
        assert len(result.machine_reports) == 2
        m1 = next(m for m in result.machine_reports if m.machine_id == "m1")
        assert m1.machine_name == "laptop-4c"

    def test_joined_machine_can_crash_later(self):
        machines = ["desktop-8c"]
        jobs = [job("a", steps=3)]
        plan = FaultPlan(
            events=(
                MachineJoin(time=0.5, machine_name="laptop-4c"),
                MachineCrash(time=1.0, machine="m1"),
            )
        )
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)  # no ValueError
        assert len(result.completions) == 1


class TestStragglerWindows:
    def test_window_scales_rounds_inside_it(self):
        machines = ["desktop-8c"]
        jobs = [job("a", steps=4)]  # 1 s rounds un-scaled
        plan = FaultPlan(
            events=(Straggler(time=1.0, machine="m0", factor=2.0, duration=10.0),)
        )
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        # Round 1 before the window (1 s); round 2 starts at the very
        # instant the window opens and still prices at 1 s — a round
        # completing (and its successor starting) at a fault instant
        # precedes the fault; rounds 3-4 run inside the window (2 s each).
        assert result.completions[0].finish_time == pytest.approx(6.0)

    def test_in_flight_round_keeps_its_start_price(self):
        machines = ["desktop-8c"]
        jobs = [job("a", steps=3)]
        # Window opens mid-round at t=0.5: the in-flight round keeps its
        # 1 s start price; round 2 starts at 1.0 inside the window (2 s)
        # and ends at 3.0, past the close at 2.5, keeping its 2 s price;
        # round 3 starts after the close and is back to 1 s.
        plan = FaultPlan(
            events=(Straggler(time=0.5, machine="m0", factor=2.0, duration=2.0),)
        )
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        assert result.completions[0].finish_time == pytest.approx(4.0)

    def test_straggler_does_not_pollute_the_estimator(self):
        # The estimator sees only unscaled queries: a second, fault-free
        # run against the same FakeEstimator returns unscaled times.
        machines = ["desktop-8c"]
        estimator = fake_estimator(machines)
        sim = FleetSimulator(machines, policy="first-fit", estimator=estimator)
        plan = FaultPlan(
            events=(Straggler(time=0.0, machine="m0", factor=3.0, duration=100.0),)
        )
        faulted = sim.run([job("a", steps=2)], prewarm=False, faults=plan)
        assert faulted.makespan == pytest.approx(6.0)
        clean = sim.run([job("a", steps=2)], prewarm=False)
        assert clean.makespan == pytest.approx(2.0)


class TestTraceValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate job name"):
            validate_trace([job("a"), job("b"), job("a")])

    @staticmethod
    def smuggled(name, steps=2, arrival=0.0):
        # Job.__post_init__ already rejects these at construction time;
        # validate_trace guards against values smuggled past it (external
        # tooling, __setattr__ tricks), so build one that way.
        bad = job(name)
        object.__setattr__(bad, "num_steps", steps)
        object.__setattr__(bad, "arrival_time", arrival)
        return bad

    def test_job_constructor_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="num_steps"):
            job("a", steps=0)
        with pytest.raises(ValueError, match="arrival_time"):
            job("a", arrival=-0.5)

    def test_non_positive_steps_rejected(self):
        with pytest.raises(ValueError, match="non-positive num_steps"):
            validate_trace([self.smuggled("a", steps=0)])

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="negative arrival_time"):
            validate_trace([self.smuggled("a", arrival=-0.5)])

    def test_simulator_run_validates(self):
        sim = FleetSimulator(
            ["desktop-8c"], policy="first-fit", estimator=fake_estimator(["desktop-8c"])
        )
        with pytest.raises(ValueError, match="duplicate job name"):
            sim.run([job("x"), job("x")], prewarm=False)


class TestWatchdogAndDeadFleet:
    def test_all_machines_crashed_before_first_arrival_terminates(self):
        # The small-fix satellite: a fully dead fleet must terminate with
        # every job failed (attempts == max_retries), not hang.
        machines = ["desktop-8c", "laptop-4c"]
        jobs = [job("a", steps=3, arrival=5.0), job("b", steps=2, arrival=6.0)]
        plan = FaultPlan(
            events=(
                MachineCrash(time=1.0, machine="m0"),
                MachineCrash(time=2.0, machine="m1"),
            ),
            max_retries=3,
        )
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=fake_estimator(machines)
        )
        result = sim.run(jobs, prewarm=False, faults=plan)
        assert not result.completions
        assert sorted(f.job for f in result.failures) == ["a", "b"]
        assert all(f.attempts == 3 for f in result.failures)
        assert all(f.kind == "kind-a" for f in result.failures)

    def test_dead_fleet_equivalent_across_paths(self):
        machines = ["desktop-8c"]
        jobs = [job("a", steps=3, arrival=2.0)]
        plan = FaultPlan(events=(MachineCrash(time=0.5, machine="m0"),))
        (reference, compressed), _ = run_both_paths(machines, "first-fit", jobs, plan)
        assert deterministic_dict(reference) == deterministic_dict(compressed)
        assert [f.job for f in reference.failures] == ["a"]

    def test_policy_livelock_raises_fleet_stalled(self):
        class NeverPlace:
            name = "never-place"

            def place(self, job, fleet):
                return None

        sim = FleetSimulator(
            ["desktop-8c"], policy=NeverPlace(), estimator=fake_estimator(["desktop-8c"])
        )
        with pytest.raises(FleetStalled) as excinfo:
            sim.run([job("a", steps=2)], prewarm=False)
        assert excinfo.value.jobs == ("a",)
        assert "a" in str(excinfo.value)


class TestPlanSerialization:
    PLAN = FaultPlan(
        events=(
            MachineCrash(time=3.0, machine="m0"),
            MachineJoin(time=4.0, machine_name="laptop-4c"),
            MachineLeave(time=5.0, machine="m1"),
            Straggler(time=1.0, machine="m2", factor=2.5, duration=7.0),
            JobPreempt(time=6.0, job="job-x"),
        ),
        max_retries=5,
    )

    def test_round_trip_exact(self):
        assert FaultPlan.from_dict(self.PLAN.to_dict()) == self.PLAN
        # ... and through actual JSON text.
        assert FaultPlan.from_dict(json.loads(json.dumps(self.PLAN.to_dict()))) == self.PLAN

    def test_resolve_accepts_every_spec_shape(self, tmp_path):
        as_dict = self.PLAN.to_dict()
        as_json = json.dumps(as_dict)
        path = tmp_path / "plan.json"
        path.write_text(as_json)
        for value in (self.PLAN, FaultInjector(self.PLAN), as_dict, as_json, str(path)):
            assert resolve_fault_plan(value) == self.PLAN
        assert resolve_fault_plan(None) is None

    def test_resolve_registered_names(self):
        names = available_fault_specs()
        assert "single-crash" in names
        for name in names:
            plan = resolve_fault_plan(name)
            assert isinstance(plan, FaultPlan)
            assert plan == FaultPlan.from_dict(get_fault_spec(name))

    def test_resolve_rejects_garbage(self):
        with pytest.raises(ValueError, match="registered fault-spec name"):
            resolve_fault_plan("no-such-spec-or-json")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict({"events": [{"kind": "meteor", "time": 1.0}]})

    def test_event_validation(self):
        with pytest.raises(ValueError):
            MachineCrash(time=-1.0, machine="m0")
        with pytest.raises(ValueError):
            Straggler(time=0.0, machine="m0", factor=0.0, duration=1.0)
        with pytest.raises(ValueError):
            Straggler(time=0.0, machine="m0", factor=2.0, duration=0.0)
        with pytest.raises(KeyError):
            MachineJoin(time=0.0, machine_name="not-a-zoo-machine")
        with pytest.raises(ValueError):
            FaultPlan(max_retries=0)

    def test_validate_for_unknown_machine_ids(self):
        plan = FaultPlan(events=(MachineCrash(time=1.0, machine="m9"),))
        with pytest.raises(ValueError, match="unknown machine ids m9"):
            FleetSimulator(
                ["desktop-8c"],
                policy="first-fit",
                estimator=fake_estimator(["desktop-8c"]),
            ).run([job("a")], prewarm=False, faults=plan)

    def test_generated_plans_are_seeded_values(self):
        kwargs = dict(
            horizon=50.0,
            crash_rate=0.5,
            straggler_rate=0.5,
            preempt_rate=0.5,
            job_names=("a", "b"),
            join_machines=("laptop-4c",),
        )
        first = generate_fault_plan(["m0", "m1"], seed=7, **kwargs)
        second = generate_fault_plan(["m0", "m1"], seed=7, **kwargs)
        other = generate_fault_plan(["m0", "m1"], seed=8, **kwargs)
        assert first == second
        assert first != other
        with pytest.raises(ValueError, match="crash_rate"):
            generate_fault_plan(["m0"], horizon=10.0, crash_rate=1.5)
        with pytest.raises(ValueError, match="horizon"):
            generate_fault_plan(["m0"], horizon=0.0)

    def test_timeline_expands_and_orders(self):
        plan = FaultPlan(
            events=(
                Straggler(time=2.0, machine="m0", factor=2.0, duration=3.0),
                MachineCrash(time=2.0, machine="m1"),
            )
        )
        timeline = plan.timeline()
        assert [(i.time, i.action) for i in timeline] == [
            (2.0, "straggler-start"),  # plan order breaks the t=2.0 tie
            (2.0, "crash"),
            (5.0, "straggler-end"),
        ]
