"""Round-compression fast path: equivalence, canonical mixes, prewarm.

The compressed fleet simulator batch-advances stable job mixes as
multi-round segments; these tests pin the contract that it is a pure
optimisation — ``FleetSimulator`` and the seed one-event-per-round loop
(``ReferenceFleetSimulator``, tests/reference_fleet.py) produce
byte-identical deterministic outcomes
(``FleetResult.to_dict(include_overhead=False)``) — plus the satellite
guarantees around ``canonical_mix`` signature stability, estimator
memo accounting and the prewarm's on-disk dedupe.  The fast loop's
boundary calendar is covered by the fault/admission traces below, which
also compare the full fleet ``InterferenceTracker`` snapshot; the
history-order tests use an estimator whose slowdowns differ per
machine, so a fleet-wide pair history merged out of order fails them.
"""

from __future__ import annotations

import json

import pytest
from reference_fleet import ReferenceFleetSimulator

from repro.core.config import RuntimeConfig
from repro.fleet import (
    AdmissionController,
    FleetSimulator,
    Job,
    StepTimeEstimator,
    canonical_mix,
    corun_step_time,
    generate_fault_plan,
    generate_trace,
)
from repro.fleet.estimates import EstimatorStats
from repro.scenarios import Workload
from repro.sweep import SweepCache, SweepExecutor

SYN_A = Workload(synthetic_ops=24, synthetic_width=4, label="kind-a")
SYN_B = Workload(synthetic_ops=24, synthetic_width=4, heavy_fraction=0.6, label="kind-b")
SYN_C = Workload(synthetic_ops=16, synthetic_width=2, heavy_fraction=0.3, label="kind-c")


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

    def __init__(self, solo, pair_factor=1.5, pair_factors=None):
        self.solo = solo
        self.pair_factor = pair_factor
        self.pair_factors = pair_factors or {}
        self.stats = EstimatorStats()

    def step_time(self, machine_name, jobs):
        jobs = list(jobs)
        self.stats.requests += 1
        if len(jobs) == 1:
            return self.solo[(machine_name, jobs[0].kind)]
        slowest = max(self.solo[(machine_name, j.kind)] for j in jobs)
        kinds = tuple(sorted(j.kind for j in jobs))
        return slowest * self.pair_factors.get(kinds, self.pair_factor)

    def solo_time(self, machine_name, job):
        return self.step_time(machine_name, (job,))

    def prewarm(self, machine_names, jobs, max_corun=1):
        return 0


BASES = {"desktop-8c": 1.0, "laptop-4c": 3.0, "cloud-vm-16v": 2.0, "arm-server-64c": 1.5}


def fake_estimator(machines, pair_factor=1.5, pair_factors=None):
    solo = {}
    for name in machines:
        base = BASES[name]
        solo[(name, "kind-a")] = base
        solo[(name, "kind-b")] = 1.5 * base
        solo[(name, "kind-c")] = 0.7 * base
    return FakeEstimator(solo, pair_factor, pair_factors)


class MachinePairEstimator(FakeEstimator):
    """FakeEstimator whose co-run step time depends on the machine.

    A mix runs ``machine_factors[machine]`` times its slowest member,
    unless ``pair_times`` pins ``(machine, sorted kinds)`` outright.  With
    :class:`FakeEstimator` every machine records the same slowdown for a
    pairing, so the order of a fleet-wide pair history is invisible; here
    each machine records its own value, and a misordered history fails
    the tracker comparison.
    """

    def __init__(self, solo, machine_factors, pair_times=None):
        super().__init__(solo)
        self.machine_factors = machine_factors
        self.pair_times = pair_times or {}

    def step_time(self, machine_name, jobs):
        jobs = list(jobs)
        if len(jobs) == 1:
            return super().step_time(machine_name, jobs)
        self.stats.requests += 1
        kinds = tuple(sorted(j.kind for j in jobs))
        pinned = self.pair_times.get((machine_name, kinds))
        if pinned is not None:
            return pinned
        slowest = max(self.solo[(machine_name, j.kind)] for j in jobs)
        return slowest * self.machine_factors[machine_name]


#: Per-machine co-run factors: a two-job mix on the arm server crosses
#: the default 0.75 blacklist threshold, on the others it stays below.
MACHINE_FACTORS = {
    "desktop-8c": 1.3,
    "laptop-4c": 1.55,
    "cloud-vm-16v": 1.42,
    "arm-server-64c": 1.85,
}


def machine_pair_estimator(machines):
    return MachinePairEstimator(fake_estimator(machines).solo, MACHINE_FACTORS)


def deterministic_dict(result):
    return json.dumps(result.to_dict(include_overhead=False), sort_keys=True)


def run_both_paths(machines, policy, jobs, *, estimator_kwargs=None, preseed=None):
    """Run one trace through both simulator paths; return the two results."""
    results = []
    for simulator_cls in (ReferenceFleetSimulator, FleetSimulator):
        sim = simulator_cls(
            machines,
            policy=policy,
            estimator=fake_estimator(machines, **(estimator_kwargs or {})),
        )
        if preseed:
            for pair in preseed:
                sim.tracker.record(*pair)
        results.append(sim.run(jobs, prewarm=False))
    return results


class TestCompressionEquivalence:
    @pytest.mark.parametrize(
        "policy", ["first-fit", "load-balanced", "interference-aware"]
    )
    @pytest.mark.parametrize("pair_factor", [1.1, 1.5, 2.5])
    def test_generated_traces_byte_identical(self, policy, pair_factor):
        machines = ["desktop-8c", "laptop-4c", "desktop-8c"]
        for seed in range(4):
            jobs = generate_trace(
                12,
                seed=seed,
                workloads=(SYN_A, SYN_B, SYN_C),
                min_steps=2,
                max_steps=25,
                mean_interarrival=1.5,
            )
            reference, compressed = run_both_paths(
                machines, policy, jobs, estimator_kwargs={"pair_factor": pair_factor}
            )
            assert deterministic_dict(reference) == deterministic_dict(compressed)

    @pytest.mark.parametrize(
        "policy", ["first-fit", "load-balanced", "interference-aware"]
    )
    def test_simultaneous_arrivals_byte_identical(self, policy):
        # Many jobs at t=0 on identical machines keep round boundaries
        # exactly tied across machines for the whole simulation — the
        # worst case for the compressed path's global flush ordering.
        machines = ["desktop-8c"] * 4
        jobs = [
            job(
                f"j{i}",
                workload=(SYN_A if i % 3 else SYN_B),
                steps=4 + (i % 9),
                arrival=0.0,
            )
            for i in range(10)
        ]
        reference, compressed = run_both_paths(
            machines, policy, jobs, estimator_kwargs={"pair_factor": 2.5}
        )
        assert deterministic_dict(reference) == deterministic_dict(compressed)

    def test_long_jobs_compress_to_few_events(self):
        # The whole point: O(total steps) reference events collapse to
        # O(mix changes) while the outcome stays byte-identical.
        # Lightly loaded on purpose: a saturated fleet re-consults the
        # policy every round (queued jobs), which compression must not
        # skip — the fast path pays off on sanely provisioned fleets.
        machines = ["desktop-8c", "laptop-4c", "cloud-vm-16v", "desktop-8c"]
        jobs = generate_trace(
            30,
            seed=3,
            workloads=(SYN_A, SYN_B),
            min_steps=50,
            max_steps=150,
            mean_interarrival=100.0,
        )
        reference, compressed = run_both_paths(machines, "load-balanced", jobs)
        assert deterministic_dict(reference) == deterministic_dict(compressed)
        total_rounds = sum(m.rounds for m in reference.machine_reports)
        assert reference.events_processed > total_rounds  # one per round + arrivals
        assert compressed.events_processed < total_rounds / 5

    def test_preseeded_blacklist_byte_identical(self):
        machines = ["desktop-8c", "laptop-4c"]
        jobs = [
            job("a", steps=6),
            job("b", workload=SYN_B, steps=6),
            job("c", workload=SYN_C, steps=3, arrival=0.5),
        ]
        reference, compressed = run_both_paths(
            machines,
            "interference-aware",
            jobs,
            preseed=[("kind-a", "kind-b", 2.0)],
        )
        assert deterministic_dict(reference) == deterministic_dict(compressed)

    def test_max_corun_three_byte_identical(self):
        # Larger gangs: three residents, pairwise interference records.
        machines = ["desktop-8c", "laptop-4c"]
        jobs = generate_trace(
            10,
            seed=1,
            workloads=(SYN_A, SYN_B, SYN_C),
            min_steps=3,
            max_steps=20,
            mean_interarrival=1.0,
        )
        results = []
        for simulator_cls in (ReferenceFleetSimulator, FleetSimulator):
            sim = simulator_cls(
                machines,
                policy="first-fit",
                estimator=fake_estimator(machines, pair_factor=1.3),
                max_corun=3,
            )
            results.append(sim.run(jobs, prewarm=False))
        assert deterministic_dict(results[0]) == deterministic_dict(results[1])

    def test_real_estimator_pr4_trace_all_policies(self):
        # The acceptance gate: the PR 4 benchmark trace (50 jobs, arrival
        # seed 42, five-machine reference fleet) through the real
        # merged-graph estimator, byte-identical under every policy.
        from repro.api import DEFAULT_FLEET

        jobs = generate_trace(50, seed=42)
        estimator = StepTimeEstimator()  # shared memo across all six runs
        for policy in ("first-fit", "load-balanced", "interference-aware"):
            outcomes = []
            for simulator_cls in (ReferenceFleetSimulator, FleetSimulator):
                sim = simulator_cls(
                    DEFAULT_FLEET,
                    policy=policy,
                    estimator=estimator,
                )
                outcomes.append(deterministic_dict(sim.run(jobs)))
            assert outcomes[0] == outcomes[1], policy

    def test_compressed_interference_observations_match(self):
        # Not just the blacklist: the full per-pair observation history
        # of the fleet-wide tracker matches the reference loop's.
        machines = ["desktop-8c", "laptop-4c"]
        jobs = generate_trace(
            12,
            seed=5,
            workloads=(SYN_A, SYN_B),
            min_steps=4,
            max_steps=30,
            mean_interarrival=1.0,
        )
        trackers = []
        for simulator_cls in (ReferenceFleetSimulator, FleetSimulator):
            sim = simulator_cls(
                machines,
                policy="first-fit",
                estimator=fake_estimator(machines, pair_factor=1.8),
            )
            sim.run(jobs, prewarm=False)
            trackers.append(sim.tracker.snapshot())
        assert trackers[0] == trackers[1]


class TestCanonicalMixStability:
    def test_ordering_invariance(self):
        jobs = [
            job("a", SYN_A, seed=1),
            job("b", SYN_B, seed=2),
            job("c", SYN_C, seed=3),
        ]
        import itertools

        signatures = {
            canonical_mix(perm) for perm in itertools.permutations(jobs)
        }
        assert len(signatures) == 1

    def test_job_identity_does_not_leak_into_signature(self):
        # Different names, arrivals and step counts, same workload class:
        # one signature (that is what makes estimates reusable).
        first = canonical_mix(
            [job("x", SYN_A, steps=3, arrival=0.0), job("y", SYN_B, steps=9)]
        )
        second = canonical_mix(
            [job("p", SYN_B, steps=1, arrival=7.5), job("q", SYN_A, steps=2)]
        )
        assert first == second

    def test_cross_process_cache_key_equality(self, tmp_path):
        # The signature must hash identically through the sweep cache
        # regardless of construction order and across a process boundary:
        # the second (process-backend) run must be all cache hits.
        entries_fwd = canonical_mix([job("a", SYN_A), job("b", SYN_B)])
        entries_rev = canonical_mix([job("b", SYN_B), job("a", SYN_A)])
        assert entries_fwd == entries_rev
        config = RuntimeConfig()
        cache_dir = tmp_path / "cache"
        with SweepExecutor("serial", cache=SweepCache(cache_dir)) as executor:
            first = executor.map(
                corun_step_time, [(entries_fwd, "laptop-4c", config)]
            )[0]
        with SweepExecutor(
            "process", jobs=1, cache=SweepCache(cache_dir)
        ) as executor:
            second = executor.map(
                corun_step_time, [(entries_rev, "laptop-4c", config)]
            )[0]
            assert executor.stats.cache_hits == 1
        assert first == second

    def test_memo_hits_equal_requested_minus_computed(self):
        # Regression: the estimator traffic reported on a FleetResult
        # must satisfy memo_hits == estimates_requested - estimates_computed,
        # including prewarmed estimates (which count as both).
        machines = ("laptop-4c", "desktop-8c")
        jobs = generate_trace(6, seed=2)
        estimator = StepTimeEstimator()
        sim = FleetSimulator(machines, policy="load-balanced", estimator=estimator)
        result = sim.run(jobs)
        assert result.estimates_requested - result.estimates_computed >= 0
        assert (
            estimator.stats.memo_hits
            == estimator.stats.requests - estimator.stats.computed
        )
        # A rerun is served entirely from the memo: zero new simulations.
        rerun = sim.run(jobs)
        assert rerun.estimates_computed == 0
        assert rerun.estimates_requested - rerun.estimates_computed == (
            rerun.estimates_requested
        )


class TestMixPrewarm:
    def test_prewarm_mixes_covers_every_corun_signature(self):
        estimator = StepTimeEstimator()
        jobs = [job("a", SYN_A), job("b", SYN_B), job("c", SYN_A)]
        # Two distinct classes on one machine: 2 solos + 3 pair multisets.
        computed = estimator.prewarm(["laptop-4c"], jobs, max_corun=2)
        assert computed == 5
        # Every pair estimate is now a memo hit.
        before = estimator.stats.computed
        estimator.step_time("laptop-4c", [jobs[0], jobs[1]])
        estimator.step_time("laptop-4c", [jobs[0], jobs[2]])
        estimator.step_time("laptop-4c", [jobs[1], jobs[1]])
        assert estimator.stats.computed == before

    def test_prewarm_mixes_keeps_simulation_memo_only(self):
        machines = ("laptop-4c", "desktop-8c")
        jobs = generate_trace(8, seed=4, workloads=(SYN_A, SYN_B))
        estimator = StepTimeEstimator()
        sim = FleetSimulator(
            machines, policy="first-fit", estimator=estimator, max_corun=2
        )
        # The full mix closure: 2 classes -> 2 solos + 3 pairs, per machine.
        assert estimator.prewarm(machines, jobs, max_corun=2) == 10
        # Everything the event loop needed was prewarmed, so neither run
        # simulates anything.
        result = sim.run(jobs)
        assert result.estimates_requested > 0
        assert result.estimates_computed == 0
        rerun = sim.run(jobs)
        assert rerun.estimates_computed == 0

    def test_prewarm_rejects_bad_max_corun(self):
        with pytest.raises(ValueError):
            StepTimeEstimator().prewarm(["laptop-4c"], [job("a")], max_corun=0)


POLICIES = ("first-fit", "load-balanced", "interference-aware")

MACHINES = ["desktop-8c", "laptop-4c", "cloud-vm-16v", "desktop-8c", "arm-server-64c"]

ADMISSION = dict(queue_limit=4, deadline=12.0, shed_policy="drop-oldest")


def calendar_trace(num_jobs=50, seed=0, **kwargs):
    kwargs.setdefault("workloads", (SYN_A, SYN_B, SYN_C))
    kwargs.setdefault("min_steps", 2)
    kwargs.setdefault("max_steps", 25)
    kwargs.setdefault("mean_interarrival", 1.5)
    return generate_trace(num_jobs, seed=seed, **kwargs)


def fault_plan(jobs, seed=3):
    horizon = max(1.0, jobs[-1].arrival_time * 1.5)
    return generate_fault_plan(
        [f"m{i}" for i in range(len(MACHINES))],
        horizon=horizon,
        seed=seed,
        crash_rate=0.5,
        straggler_rate=0.5,
        preempt_rate=0.3,
        job_names=[job.name for job in jobs],
        join_machines=["laptop-4c"],
    )


def assert_loops_agree(policy, jobs, *, faults=None, admission=None):
    """Fast and reference loop: same outcome and same fleet tracker."""
    outcomes = []
    for simulator_cls in (ReferenceFleetSimulator, FleetSimulator):
        sim = simulator_cls(
            MACHINES,
            policy=policy,
            estimator=fake_estimator(MACHINES),
            admission=admission,
        )
        result = sim.run(jobs, prewarm=False, faults=faults)
        outcomes.append((deterministic_dict(result), sim.tracker.snapshot()))
    assert outcomes[1] == outcomes[0]


class TestCalendarByteIdentity:
    """The boundary calendar finds every due machine: the fast loop stays
    byte-identical to the reference loop through placements onto running
    segments, faults, admission shedding and mid-trace joins."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scenario", ("clean", "faults", "admission"))
    def test_fifty_job_trace(self, policy, scenario):
        jobs = calendar_trace(50, seed=0)
        faults = fault_plan(jobs) if scenario == "faults" else None
        admission = (
            AdmissionController(**ADMISSION) if scenario == "admission" else None
        )
        assert_loops_agree(policy, jobs, faults=faults, admission=admission)

    def test_thousand_job_trace(self):
        jobs = calendar_trace(1000, seed=5, mean_interarrival=0.8)
        assert_loops_agree("first-fit", jobs)

    def test_faults_and_admission_compose(self):
        jobs = calendar_trace(50, seed=2)
        assert_loops_agree(
            "load-balanced",
            jobs,
            faults=fault_plan(jobs, seed=7),
            admission=AdmissionController(**ADMISSION),
        )


def loops_outcome(machines, policy, jobs, estimator_for, **sim_kwargs):
    """Digest plus fleet tracker snapshot of both loops, reference first."""
    outcomes = []
    for simulator_cls in (ReferenceFleetSimulator, FleetSimulator):
        sim = simulator_cls(
            machines,
            policy=policy,
            estimator=estimator_for(machines),
            **sim_kwargs,
        )
        result = sim.run(jobs, prewarm=False)
        outcomes.append((deterministic_dict(result), sim.tracker.snapshot()))
    return outcomes


class TestFleetHistoryOrder:
    """The fleet-wide pair histories keep the reference loop's order:
    boundary time first, then machine index, then record order."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("max_corun", [2, 3])
    def test_machine_dependent_slowdowns(self, policy, max_corun):
        # Long jobs on five mixed machines overflow the 128-entry window
        # of every busy pair; each machine records its own slowdown.
        jobs = calendar_trace(
            24, seed=11, min_steps=150, max_steps=370, mean_interarrival=30.0
        )
        reference, compressed = loops_outcome(
            MACHINES, policy, jobs, machine_pair_estimator, max_corun=max_corun
        )
        assert compressed == reference
        histories = [values for _, values in reference[1].observations]
        assert any(len(values) == 128 and len(set(values)) > 1 for values in histories)

    def test_tied_boundaries_order_by_machine_index(self):
        # Both machines co-run (kind-a, kind-b) at exactly 1.53 s after
        # one 1.0 s kind-a solo round, so every co-run boundary ties; the
        # two machines record different slowdowns, and only the machine
        # index orders them.
        machines = ["desktop-8c", "laptop-4c"]
        solo = {
            ("desktop-8c", "kind-a"): 1.0,
            ("laptop-4c", "kind-a"): 1.0,
            ("desktop-8c", "kind-b"): 1.0,
            ("laptop-4c", "kind-b"): 1.25,
        }
        pinned = {(name, ("kind-a", "kind-b")): 1.53 for name in machines}
        jobs = [
            job(f"j{i}", workload=(SYN_B if i % 2 else SYN_A), steps=300)
            for i in range(4)
        ]
        reference, compressed = loops_outcome(
            machines,
            "first-fit",
            jobs,
            lambda names: MachinePairEstimator(solo, {}, pinned),
            interference_threshold=5.0,
        )
        assert compressed == reference
        (key, history), = reference[1].observations
        assert key == ("kind-a", "kind-b") and len(history) == 128
        assert set(history[0::2]) == {1.53 / 1.0 - 1.0}  # m0, the desktop
        assert set(history[1::2]) == {1.53 / 1.25 - 1.0}  # m1, the laptop


class TestPrewarmDedupe:
    """prewarm() dedupes against the shared on-disk estimate cache: a
    warm estimator (fresh memo, same cache root) fills from disk and
    skips the sweep fan-out entirely."""

    def test_second_prewarm_computes_nothing(self, tmp_path):
        jobs = calendar_trace(12, seed=0)
        machines = MACHINES[:2]
        cache = SweepCache(tmp_path / "cache")

        cold = StepTimeEstimator(executor=SweepExecutor(backend="serial", cache=cache))
        computed = cold.prewarm(machines, jobs, max_corun=2)
        assert computed > 0
        assert cold.stats.computed == computed
        assert cold.stats.cache_hits == 0

        warm = StepTimeEstimator(executor=SweepExecutor(backend="serial", cache=cache))
        assert warm.prewarm(machines, jobs, max_corun=2) == 0
        assert warm.stats.computed == 0
        assert warm.stats.cache_hits == computed
        # The disk hits landed in the memo: step_time replays without
        # touching the executor at all.
        warm.executor = None
        job = jobs[0]
        assert warm.solo_time(machines[0], job) == cold.solo_time(machines[0], job)
