"""The fleet layer: jobs, estimates, policies, simulator, API."""

from __future__ import annotations

import json

import pytest
from reference_fleet import ReferenceFleetSimulator

from repro.api import DEFAULT_FLEET, run_fleet
from repro.core.config import RuntimeConfig
from repro.core.interference import InterferenceTracker
from repro.fleet import (
    FleetSimulator,
    Job,
    StepTimeEstimator,
    available_policies,
    canonical_mix,
    corun_step_time,
    generate_trace,
    jobs_from_scenario,
    make_policy,
)
from repro.fleet.estimates import EstimatorStats
from repro.fleet.policies import FirstFitPolicy, InterferenceAwarePolicy
from repro.scenarios import Workload
from repro.sweep import SweepCache, SweepExecutor

SYN_A = Workload(synthetic_ops=24, synthetic_width=4, label="kind-a")
SYN_B = Workload(synthetic_ops=24, synthetic_width=4, heavy_fraction=0.6, label="kind-b")


def job(name, workload=SYN_A, steps=2, arrival=0.0, seed=0):
    return Job(
        name=name,
        workload=workload,
        num_steps=steps,
        arrival_time=arrival,
        graph_seed=seed,
    )


class FakeEstimator:
    """Deterministic dict-driven estimator for fast policy/simulator tests.

    ``solo[(machine, kind)]`` gives the isolated step time; co-run mixes
    cost ``pair_factor`` (optionally per unordered kind pair) times the
    slowest member.
    """

    def __init__(self, solo, pair_factor=1.5, pair_factors=None):
        self.solo = solo
        self.pair_factor = pair_factor
        self.pair_factors = pair_factors or {}
        self.stats = EstimatorStats()

    def _solo(self, machine_name, job):
        return self.solo[(machine_name, job.kind)]

    def step_time(self, machine_name, jobs):
        jobs = list(jobs)
        self.stats.requests += 1
        if len(jobs) == 1:
            return self._solo(machine_name, jobs[0])
        slowest = max(self._solo(machine_name, j) for j in jobs)
        kinds = sorted(j.kind for j in jobs)
        factor = self.pair_factors.get(tuple(kinds), self.pair_factor)
        return slowest * factor

    def solo_time(self, machine_name, job):
        return self.step_time(machine_name, (job,))

    def prewarm(self, machine_names, jobs, max_corun=1):
        return 0


class TestJobAndTrace:
    def test_job_validation(self):
        with pytest.raises(ValueError):
            job("")
        with pytest.raises(ValueError):
            job("x", steps=0)
        with pytest.raises(ValueError):
            Job(name="x", workload=SYN_A, num_steps=1, arrival_time=-1.0)

    def test_kind_is_workload_name(self):
        assert job("x", workload=SYN_B).kind == "kind-b"

    def test_trace_is_deterministic(self):
        first = generate_trace(12, seed=5)
        second = generate_trace(12, seed=5)
        assert first == second
        different = generate_trace(12, seed=6)
        assert first != different

    def test_trace_arrivals_increase(self):
        trace = generate_trace(10, seed=1)
        arrivals = [j.arrival_time for j in trace]
        assert arrivals == sorted(arrivals)
        assert len({j.name for j in trace}) == 10

    def test_trace_shares_graph_seed_per_kind(self):
        trace = generate_trace(30, seed=2)
        seeds_by_kind = {}
        for j in trace:
            seeds_by_kind.setdefault(j.kind, set()).add(j.graph_seed)
        assert all(len(seeds) == 1 for seeds in seeds_by_kind.values())

    def test_jobs_from_scenario(self):
        jobs = jobs_from_scenario("corun-mix-knl", num_steps=3)
        assert len(jobs) == 2
        assert {j.kind for j in jobs} == {"resnet50", "dcgan"}
        assert all(j.num_steps == 3 for j in jobs)


class TestCanonicalMix:
    def test_order_independent(self):
        a, b = job("a"), job("b", workload=SYN_B)
        assert canonical_mix([a, b]) == canonical_mix([b, a])

    def test_same_kind_jobs_share_key(self):
        # Two different jobs of one kind canonicalise identically.
        assert canonical_mix([job("a"), job("b")]) == canonical_mix(
            [job("c"), job("d")]
        )


class TestCorunStepTime:
    def test_is_pure_and_cacheable(self, tmp_path):
        entries = canonical_mix([job("a"), job("b", workload=SYN_B)])
        config = RuntimeConfig()
        direct = corun_step_time(entries, "laptop-4c", config)
        assert direct > 0
        cache = SweepCache(tmp_path / "cache")
        with SweepExecutor("serial", cache=cache) as executor:
            first = executor.map(corun_step_time, [(entries, "laptop-4c", config)])[0]
        with SweepExecutor("serial", cache=SweepCache(tmp_path / "cache")) as executor:
            second = executor.map(corun_step_time, [(entries, "laptop-4c", config)])[0]
            assert executor.stats.cache_hits == 1
        assert first == direct
        assert second == direct

    def test_estimator_memoises(self):
        estimator = StepTimeEstimator()
        a = job("a")
        first = estimator.step_time("laptop-4c", (a,))
        second = estimator.solo_time("laptop-4c", job("b"))
        assert first == second  # same kind, same seed -> same canonical mix
        assert estimator.stats.requests == 2
        assert estimator.stats.computed == 1

    def test_prewarm_covers_solo_estimates(self):
        estimator = StepTimeEstimator()
        jobs = [job("a"), job("b", workload=SYN_B)]
        computed = estimator.prewarm(["laptop-4c", "laptop-4c"], jobs)
        assert computed == 2
        estimator.solo_time("laptop-4c", jobs[0])
        assert estimator.stats.computed == 2  # served from memo
        # Prewarmed estimates count as requests: memo_hits stays >= 0.
        assert estimator.stats.requests == 3
        assert estimator.stats.memo_hits == 1


def fake_fleet(machines, policy, **kwargs):
    """A simulator over FakeEstimator-backed machines 'fast' and 'slow'."""
    solo = {}
    for name in machines:
        base = 1.0 if name == "desktop-8c" else 3.0
        solo[(name, "kind-a")] = base
        solo[(name, "kind-b")] = 1.5 * base
    estimator = kwargs.pop("estimator", None) or FakeEstimator(solo, **kwargs)
    return (
        FleetSimulator(machines, policy=policy, estimator=estimator),
        estimator,
    )


class TestPolicies:
    def test_available_policies_sorted(self):
        assert available_policies() == (
            "first-fit",
            "interference-aware",
            "load-balanced",
        )
        with pytest.raises(KeyError, match="first-fit"):
            make_policy(
                "nonexistent",
                estimator=StepTimeEstimator(),
                tracker=InterferenceTracker(),
            )

    def test_first_fit_packs_early_machines(self):
        machines = ["desktop-8c", "desktop-8c"]
        sim, _ = fake_fleet(machines, "first-fit")
        jobs = [job("a", arrival=0.0), job("b", arrival=0.0, steps=3)]
        result = sim.run(jobs, prewarm=False)
        assert {p.machine_id for p in result.placements} == {"m0"}

    def test_load_balanced_spreads(self):
        machines = ["desktop-8c", "desktop-8c"]
        sim, _ = fake_fleet(machines, "load-balanced")
        jobs = [job("a", arrival=0.0), job("b", arrival=0.0, steps=3)]
        result = sim.run(jobs, prewarm=False)
        assert {p.machine_id for p in result.placements} == {"m0", "m1"}

    def test_interference_aware_avoids_blacklisted_pairing(self):
        machines = ["desktop-8c", "laptop-4c"]
        sim, _ = fake_fleet(machines, "interference-aware")
        # Pre-seed fleet-wide knowledge: kind-a x kind-b thrash.
        sim.tracker.record("kind-a", "kind-b", 2.0)
        jobs = [
            job("a", arrival=0.0, steps=4),
            job("b", workload=SYN_B, arrival=0.0, steps=4),
        ]
        result = sim.run(jobs, prewarm=False)
        by_job = {p.job: p.machine_id for p in result.placements}
        # Despite the fast machine having a free slot, the blacklisted
        # pairing forces the second job onto the slow machine.
        assert by_job["a"] != by_job["b"]

    def test_interference_aware_colocates_when_profitable(self):
        machines = ["desktop-8c", "laptop-4c"]
        # Pairing overhead is tiny: sharing the fast machine beats the
        # 3x slower idle machine.
        sim, _ = fake_fleet(machines, "interference-aware", pair_factor=1.1)
        jobs = [job("a", arrival=0.0, steps=4), job("b", arrival=0.0, steps=4)]
        result = sim.run(jobs, prewarm=False)
        assert {p.machine_id for p in result.placements} == {"m0"}

    def test_interference_tracker_learns_from_corun_rounds(self):
        machines = ["desktop-8c"]
        # One machine, forced co-location, terrible pairing.
        sim, _ = fake_fleet(machines, "first-fit", pair_factor=2.5)
        jobs = [job("a", steps=3), job("b", workload=SYN_B, steps=3)]
        result = sim.run(jobs, prewarm=False)
        assert ("kind-a", "kind-b") in result.blacklisted_pairs
        assert sim.tracker.observations("kind-a", "kind-b")


class TestFleetSimulator:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FleetSimulator([])
        with pytest.raises(KeyError):
            FleetSimulator(["pdp-11"])
        with pytest.raises(ValueError):
            FleetSimulator(["laptop-4c"], max_corun=0)
        sim, _ = fake_fleet(["desktop-8c"], "first-fit")
        with pytest.raises(ValueError):
            sim.run([job("a"), job("a")])

    def test_empty_trace_returns_empty_result(self):
        # An empty trace must not raise (mean_wait_time used to divide by
        # zero and makespan's max() blew up on the empty sequence).
        for simulator_cls in (ReferenceFleetSimulator, FleetSimulator):
            sim = simulator_cls(
                ["desktop-8c", "laptop-4c"],
                policy="first-fit",
            )
            result = sim.run([])
            assert result.num_jobs == 0
            assert result.makespan == 0.0
            assert result.mean_wait_time == 0.0
            assert result.mean_turnaround_time == 0.0
            assert result.completions == ()
            assert result.placements == ()
            assert len(result.machine_reports) == 2
            for report in result.machine_reports:
                assert report.rounds == 0
                assert report.utilization == 0.0
            # The dict form round-trips through json unscathed.
            json.dumps(result.to_dict())

    def test_all_jobs_complete_exactly_once(self):
        sim, _ = fake_fleet(["desktop-8c", "laptop-4c"], "load-balanced")
        jobs = generate_trace(9, seed=4, workloads=(SYN_A, SYN_B))
        result = sim.run(jobs, prewarm=False)
        assert sorted(c.job for c in result.completions) == sorted(
            j.name for j in jobs
        )
        for completion in result.completions:
            assert completion.start_time >= completion.arrival_time
            assert completion.finish_time > completion.start_time
        assert result.makespan == max(c.finish_time for c in result.completions)

    def test_deterministic_for_fixed_inputs(self):
        jobs = generate_trace(8, seed=9, workloads=(SYN_A, SYN_B))
        outcomes = []
        for _ in range(2):
            sim, _ = fake_fleet(
                ["desktop-8c", "laptop-4c", "desktop-8c"], "interference-aware"
            )
            result = sim.run(jobs, prewarm=False)
            outcomes.append(
                json.dumps(result.to_dict(include_overhead=False), sort_keys=True)
            )
        assert outcomes[0] == outcomes[1]

    def test_reused_simulator_is_deterministic(self):
        # A second run on the SAME simulator must not be contaminated by
        # the first run's learned blacklist or cumulative estimator stats.
        jobs = generate_trace(8, seed=9, workloads=(SYN_A, SYN_B))
        sim, _ = fake_fleet(
            ["desktop-8c", "laptop-4c"], "interference-aware", pair_factor=2.5
        )
        first = sim.run(jobs, prewarm=False)
        second = sim.run(jobs, prewarm=False)
        assert first.to_dict(include_overhead=False) == second.to_dict(
            include_overhead=False
        )
        assert first.estimates_requested == second.estimates_requested

    def test_preseeded_knowledge_survives_reuse(self):
        sim, _ = fake_fleet(["desktop-8c", "laptop-4c"], "interference-aware")
        sim.tracker.record("kind-a", "kind-b", 2.0)
        jobs = [
            job("a", arrival=0.0, steps=4),
            job("b", workload=SYN_B, arrival=0.0, steps=4),
        ]
        for _ in range(2):
            result = sim.run(jobs, prewarm=False)
            by_job = {p.job: p.machine_id for p in result.placements}
            assert by_job["a"] != by_job["b"]

    def test_machine_reports_carry_local_blacklist(self):
        sim, _ = fake_fleet(["desktop-8c"], "first-fit", pair_factor=2.5)
        jobs = [job("a", steps=3), job("b", workload=SYN_B, steps=3)]
        result = sim.run(jobs, prewarm=False)
        assert result.machine_reports[0].local_blacklist == (("kind-a", "kind-b"),)
        # Fleet-wide blacklist is the union of the machines' local ones.
        assert set(result.blacklisted_pairs) >= set(
            result.machine_reports[0].local_blacklist
        )

    def test_capacity_respected(self):
        sim, _ = fake_fleet(["desktop-8c"], "first-fit")
        jobs = [job(f"j{i}", steps=2, arrival=0.0) for i in range(5)]
        result = sim.run(jobs, prewarm=False)
        # Never more than max_corun residents: every round is at most a pair.
        for report in result.machine_reports:
            assert report.corun_rounds <= report.rounds
        assert len(result.completions) == 5

    def test_real_estimator_end_to_end(self):
        # Small real integration: actual merged-graph simulation under the
        # runtime, two machines, deterministic across simulator instances.
        jobs = [
            job("a", steps=2),
            job("b", workload=SYN_B, steps=2, arrival=0.5),
            job("c", steps=1, arrival=1.0),
        ]
        results = []
        for _ in range(2):
            sim = FleetSimulator(
                ["laptop-4c", "desktop-8c"], policy="interference-aware"
            )
            results.append(sim.run(jobs).to_dict(include_overhead=False))
        assert results[0] == results[1]
        assert results[0]["makespan"] > 0


class TestRunFleetApi:
    def test_run_fleet_outcome(self):
        outcome = run_fleet(
            num_jobs=4,
            arrival_seed=3,
            machines=("laptop-4c", "desktop-8c"),
            policy="first-fit",
        )
        assert outcome.policy == "first-fit"
        assert outcome.num_jobs == 4
        assert outcome.makespan > 0
        assert outcome.total_rounds >= outcome.corun_rounds
        assert "fleet[first-fit]" in str(outcome)

    def test_default_fleet_machines_exist(self):
        from repro.hardware.zoo import available_machines

        assert len(DEFAULT_FLEET) == 5
        for name in DEFAULT_FLEET:
            assert name in available_machines()

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            run_fleet(num_jobs=2, machines=("laptop-4c",), policy="pdp-11")
