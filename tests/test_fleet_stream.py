"""Open-loop streaming fleet: arrivals, admission control, SLO metrics.

The tentpole contract: arrival processes are seeded lazy generators the
simulator pulls event-by-event — a streamed run is byte-identical to
the same trace pre-materialised, on both simulator paths, under every
shed policy, with or without a fault plan.  The satellites pin the
admission semantics (reject-at-arrival / drop-oldest / deadline-expire),
the exact-percentile and windowed-series metrics, the ``generate_trace``
delegation (zero-padded names, shared graph seeds, ``num_jobs=0``) and
the spec-resolution surface (registered names, JSON, dicts, replays).
"""

from __future__ import annotations

import json

import pytest
from reference_fleet import ReferenceFleetSimulator

from repro.fleet import (
    AdmissionController,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    FleetSimulator,
    Job,
    PoissonArrivals,
    ReplayArrivals,
    exact_percentiles,
    generate_fault_plan,
    generate_trace,
    resolve_arrivals,
)
from repro.fleet.arrivals import NO_ADMISSION, name_width, resolve_admission
from repro.fleet.simulator import _QueueDepthLog, _windowed_completions
from repro.scenarios import (
    Workload,
    available_arrival_specs,
    get_arrival_spec,
    register_arrival_spec,
)
from test_fleet_faults import SYN_A, SYN_B, SYN_C, deterministic_dict, fake_estimator

POLICIES = ("first-fit", "load-balanced", "interference-aware")
WORKLOADS = (SYN_A, SYN_B, SYN_C)
MACHINES = ["desktop-8c", "laptop-4c", "cloud-vm-16v"]

PROCESSES = {
    "poisson": lambda n, seed: PoissonArrivals(
        num_jobs=n, seed=seed, mean_interarrival=0.5, workloads=WORKLOADS,
        min_steps=2, max_steps=8,
    ),
    "diurnal": lambda n, seed: DiurnalArrivals(
        num_jobs=n, seed=seed, mean_interarrival=0.5, workloads=WORKLOADS,
        min_steps=2, max_steps=8, period=20.0, amplitude=0.9,
    ),
    "bursty": lambda n, seed: BurstyArrivals(
        num_jobs=n, seed=seed, mean_interarrival=0.5, workloads=WORKLOADS,
        min_steps=2, max_steps=8, burst_size=5, tail_alpha=1.4,
    ),
}

ADMISSIONS = (
    AdmissionController(queue_limit=3),
    AdmissionController(queue_limit=2, shed_policy="drop-oldest"),
    AdmissionController(deadline=3.0, shed_policy="deadline-expire"),
)


def simulate(source, *, policy="first-fit", compressed=True, admission=None, faults=None):
    sim = (FleetSimulator if compressed else ReferenceFleetSimulator)(
        MACHINES,
        policy=policy,
        estimator=fake_estimator(MACHINES),
        admission=admission,
    )
    return sim.run(source, prewarm=False, faults=faults)


class TestStreamedEqualsMaterialised:
    """The acceptance gate: lazy pull == upfront trace, byte for byte."""

    @pytest.mark.parametrize("kind", sorted(PROCESSES))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_process_every_policy(self, kind, policy):
        for seed, admission in zip((0, 1, 2), ADMISSIONS):
            make = PROCESSES[kind]
            trace = make(30, seed).materialize()
            digests = {
                deterministic_dict(
                    simulate(
                        make(30, seed) if streamed else trace,
                        policy=policy,
                        compressed=compressed,
                        admission=admission,
                    )
                )
                for streamed in (False, True)
                for compressed in (False, True)
            }
            assert len(digests) == 1, (
                f"{kind}/{policy}/seed {seed}: streamed and materialised "
                "runs diverged across simulator paths"
            )

    @pytest.mark.parametrize("kind", sorted(PROCESSES))
    def test_streamed_equivalence_under_faults(self, kind):
        make = PROCESSES[kind]
        trace = make(25, 5).materialize()
        plan = generate_fault_plan(
            [f"m{i}" for i in range(len(MACHINES))],
            horizon=max(trace[-1].arrival_time * 1.5, 5.0),
            seed=99,
            crash_rate=0.4,
            straggler_rate=0.4,
        )
        admission = AdmissionController(queue_limit=3)
        digests = {
            deterministic_dict(
                simulate(
                    make(25, 5) if streamed else trace,
                    compressed=compressed,
                    admission=admission,
                    faults=plan,
                )
            )
            for streamed in (False, True)
            for compressed in (False, True)
        }
        assert len(digests) == 1

    def test_process_is_a_factory(self):
        # Two .jobs() pulls from one process yield identical streams.
        process = PROCESSES["bursty"](12, 3)
        assert process.materialize() == process.materialize()
        first = simulate(process)
        second = simulate(process)
        assert deterministic_dict(first) == deterministic_dict(second)


class TestAdmissionSemantics:
    def overload(self, n=30, seed=0):
        return PROCESSES["poisson"](n, seed)

    def test_reject_at_arrival_bounds_the_queue(self):
        result = simulate(
            self.overload(), admission=AdmissionController(queue_limit=2)
        )
        assert result.rejections, "sustained overload should shed"
        assert result.peak_queue_depth <= 2
        assert all(r.reason == "reject-at-arrival" for r in result.rejections)
        # A rejected job never appears anywhere downstream.
        rejected = {r.job for r in result.rejections}
        placed = {p.job for p in result.placements}
        assert not rejected & placed
        # Rejected at the door: zero wait by construction.
        assert all(r.wait_time == 0.0 for r in result.rejections)

    def test_drop_oldest_sheds_the_head_and_admits_the_newcomer(self):
        result = simulate(
            self.overload(),
            admission=AdmissionController(queue_limit=2, shed_policy="drop-oldest"),
        )
        assert result.rejections
        assert all(r.reason == "drop-oldest" for r in result.rejections)
        # The shed victim waited in the queue before being dropped.
        assert any(r.wait_time > 0.0 for r in result.rejections)
        assert result.peak_queue_depth <= 2

    def test_deadline_expire_sheds_only_still_queued_jobs(self):
        deadline = 2.0
        result = simulate(
            self.overload(),
            admission=AdmissionController(
                deadline=deadline, shed_policy="deadline-expire"
            ),
        )
        assert result.rejections
        for rejection in result.rejections:
            assert rejection.reason == "deadline-expire"
            assert rejection.rejected_time == pytest.approx(
                rejection.arrival_time + deadline
            )
        # Expired and completed sets are disjoint.
        expired = {r.job for r in result.rejections}
        done = {c.job for c in result.completions}
        assert not expired & done

    @pytest.mark.parametrize("admission", ADMISSIONS, ids=lambda a: a.shed_policy)
    def test_accounting_invariant(self, admission):
        result = simulate(self.overload(40, 7), admission=admission)
        assert (
            len(result.completions) + len(result.failures) + len(result.rejections)
            == result.num_jobs
            == 40
        )
        assert result.shed_rate == len(result.rejections) / 40

    def test_no_admission_is_inert(self):
        free = simulate(self.overload())
        explicit = simulate(self.overload(), admission=NO_ADMISSION)
        assert deterministic_dict(free) == deterministic_dict(explicit)
        assert free.rejections == ()
        assert free.shed_rate == 0.0

    def test_policies_see_the_queue_limit(self):
        seen = []

        class Probe:
            name = "probe"

            def place(self, job, fleet):
                seen.append((fleet.queue_limit, fleet.queue_depth))
                for machine in fleet.machines:
                    if machine.accepting and machine.free_slots > 0:
                        return machine.machine_id
                return None

        sim = FleetSimulator(
            MACHINES,
            policy=Probe(),
            estimator=fake_estimator(MACHINES),
            admission=AdmissionController(queue_limit=4),
        )
        sim.run(self.overload(15), prewarm=False)
        assert seen
        assert all(limit == 4 for limit, _ in seen)
        assert all(depth <= 4 for _, depth in seen)

    def test_controller_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=0)
        with pytest.raises(ValueError):
            AdmissionController(deadline=0.0, shed_policy="deadline-expire")
        with pytest.raises(ValueError):
            AdmissionController(shed_policy="drop-oldest")  # needs queue_limit
        with pytest.raises(ValueError):
            AdmissionController(shed_policy="deadline-expire")  # needs deadline
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=2, shed_policy="lottery")
        round_trip = AdmissionController.from_dict(
            AdmissionController(
                queue_limit=5, deadline=2.5, shed_policy="deadline-expire"
            ).to_dict()
        )
        assert round_trip.queue_limit == 5 and round_trip.deadline == 2.5
        assert resolve_admission({"queue_limit": 9}).queue_limit == 9


class TestSloMetrics:
    def test_exact_percentiles_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        out = exact_percentiles(values)
        assert out == {"p50": 5.0, "p95": 10.0, "p99": 10.0}
        assert exact_percentiles([3.0], percentiles=(1, 50, 100)) == {
            "p1": 3.0, "p50": 3.0, "p100": 3.0,
        }
        assert exact_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        # Nearest rank is an observed value, never an interpolation.
        sample = [0.5, 1.5, 9.0]
        assert all(v in sample for v in exact_percentiles(sample).values())

    def test_result_percentiles_match_completions(self):
        result = simulate(PROCESSES["poisson"](25, 1))
        waits = sorted(c.wait_time for c in result.completions)
        assert result.wait_percentiles["p50"] in waits
        assert result.wait_percentiles["p99"] == waits[-1] or (
            result.wait_percentiles["p99"] in waits
        )
        turnarounds = [c.finish_time - c.arrival_time for c in result.completions]
        assert result.turnaround_percentiles["p99"] == pytest.approx(
            exact_percentiles(turnarounds)["p99"]
        )

    def test_queue_depth_log_windows(self):
        log = _QueueDepthLog(10.0)
        log.record(1.0, 2)
        log.record(4.0, 5)   # window 0 max -> 5
        log.record(12.0, 1)  # window 1 opens carrying depth 5, then 1
        log.record(33.0, 7)  # windows 2 carries 1; window 3 max 7
        series = log.finish()
        assert series == (5, 5, 1, 7)

    def test_windowed_series_on_the_result(self):
        window = 5.0
        sim = FleetSimulator(
            MACHINES,
            policy="first-fit",
            estimator=fake_estimator(MACHINES),
            series_window=window,
            admission=AdmissionController(queue_limit=3),
        )
        result = sim.run(PROCESSES["poisson"](30, 2), prewarm=False)
        assert result.series_window == window
        assert result.peak_queue_depth == max(result.queue_depth_series)
        expected_len = int(max(c.finish_time for c in result.completions) // window) + 1
        assert len(result.throughput_series) == expected_len
        assert sum(result.throughput_series) == len(result.completions)
        assert len(result.goodput_series) == expected_len
        # Goodput counts completed training steps, so it dominates the
        # per-window job count (every job trains at least one step).
        assert all(
            g >= t for g, t in zip(result.goodput_series, result.throughput_series)
        )
        assert sum(result.goodput_series) == sum(
            c.num_steps for c in result.completions
        )

    def test_windowed_completions_empty(self):
        assert _windowed_completions([], 25.0) == ((), ())

    def test_series_window_validated(self):
        with pytest.raises(ValueError):
            FleetSimulator(MACHINES, series_window=0.0)

    def test_metrics_are_in_the_determinism_digest(self):
        result = simulate(
            PROCESSES["poisson"](20, 3), admission=AdmissionController(queue_limit=2)
        )
        payload = result.to_dict(include_overhead=False)
        for key in (
            "rejections",
            "shed_rate",
            "wait_percentiles",
            "turnaround_percentiles",
            "queue_depth_series",
            "throughput_series",
            "goodput_series",
            "peak_queue_depth",
            "series_window",
        ):
            assert key in payload, f"digest is missing {key}"
        assert payload["rejections"], "overload digest should carry rejections"


class TestGenerateTraceDelegation:
    def test_poisson_process_matches_generate_trace(self):
        for seed in (0, 5, 42):
            process = PoissonArrivals(
                num_jobs=40, seed=seed, mean_interarrival=1.5,
                workloads=WORKLOADS, min_steps=2, max_steps=9,
            )
            trace = generate_trace(
                40, seed=seed, mean_interarrival=1.5,
                workloads=WORKLOADS, min_steps=2, max_steps=9,
            )
            assert process.materialize() == trace

    def test_zero_jobs_is_an_empty_trace(self):
        assert generate_trace(0) == ()
        outcome = simulate(())
        assert outcome.num_jobs == 0 and outcome.makespan == 0.0

    def test_names_zero_pad_to_the_trace_length(self):
        assert name_width(1) == 3
        assert name_width(1000) == 3
        assert name_width(1001) == 4
        assert name_width(1_000_000) == 6
        small = generate_trace(5, seed=1, workloads=WORKLOADS)
        assert all(job.name.startswith("job-00") for job in small)
        big = PoissonArrivals(num_jobs=1200, seed=1, workloads=WORKLOADS)
        names = [job.name for job in big.jobs()]
        assert names[0].startswith("job-0000-")
        assert names[-1].startswith("job-1199-")
        assert names == sorted(names)

    def test_identical_kinds_share_graph_seeds(self):
        trace = generate_trace(30, seed=4, workloads=WORKLOADS)
        seeds_by_kind: dict[str, set[int]] = {}
        for job in trace:
            seeds_by_kind.setdefault(job.kind, set()).add(job.graph_seed)
        for kind, seeds in seeds_by_kind.items():
            assert len(seeds) == 1, f"kind {kind} got {len(seeds)} graph seeds"

    def test_generation_validation(self):
        with pytest.raises(ValueError):
            generate_trace(-1)
        with pytest.raises(ValueError):
            generate_trace(5, workloads=())
        with pytest.raises(ValueError):
            generate_trace(5, min_steps=0)
        with pytest.raises(ValueError):
            generate_trace(5, min_steps=9, max_steps=3)
        with pytest.raises(ValueError):
            generate_trace(5, mean_interarrival=0.0)


class TestSpecResolution:
    def test_registered_names(self):
        assert "overload" in available_arrival_specs()
        spec = get_arrival_spec("overload")
        assert spec["kind"] == "poisson"
        process = resolve_arrivals("overload", num_jobs=10, seed=3)
        assert isinstance(process, PoissonArrivals)
        assert process.num_jobs == 10 and process.seed == 3
        with pytest.raises(KeyError):
            get_arrival_spec("no-such-arrival-spec")

    def test_json_and_dict_specs(self):
        process = resolve_arrivals(
            json.dumps({"kind": "diurnal", "num_jobs": 8, "period": 30.0})
        )
        assert isinstance(process, DiurnalArrivals) and process.period == 30.0
        process = resolve_arrivals({"kind": "bursty", "num_jobs": 4, "burst_size": 2})
        assert isinstance(process, BurstyArrivals) and process.burst_size == 2

    def test_defaults_fill_only_missing_keys(self):
        process = resolve_arrivals(
            {"kind": "poisson", "num_jobs": 6, "seed": 11},
            num_jobs=99,
            seed=0,
            mean_interarrival=7.0,
        )
        assert process.num_jobs == 6 and process.seed == 11
        assert process.mean_interarrival == 7.0

    def test_sequences_become_replays(self):
        trace = generate_trace(6, seed=2, workloads=WORKLOADS)
        process = resolve_arrivals(trace)
        assert isinstance(process, ReplayArrivals)
        assert process.materialize() == trace
        assert isinstance(process, ArrivalProcess)
        streamed = simulate(process)
        materialised = simulate(trace)
        assert deterministic_dict(streamed) == deterministic_dict(materialised)

    def test_replay_rejects_malformed_traces(self):
        job = Job(name="a", workload=Workload(synthetic_ops=8), num_steps=1)
        dup = Job(name="a", workload=Workload(synthetic_ops=8), num_steps=1)
        with pytest.raises(ValueError):
            ReplayArrivals(trace=(job, dup))

    def test_register_arrival_spec_round_trip(self):
        register_arrival_spec(
            "test-stream-spec",
            {"kind": "poisson", "mean_interarrival": 0.1},
            description="test-only",
            overwrite=True,
        )
        process = resolve_arrivals("test-stream-spec", num_jobs=3)
        assert process.mean_interarrival == 0.1
        with pytest.raises(ValueError):
            register_arrival_spec("test-stream-spec", {"kind": "poisson"})
        with pytest.raises(ValueError):
            register_arrival_spec("bad-spec", {"mean_interarrival": 1.0})
