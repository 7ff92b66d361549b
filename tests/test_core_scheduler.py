"""Tests for the runtime configuration, interference tracker and scheduler."""

from __future__ import annotations

import pytest

from repro.baselines.tf_default import recommended_policy
from repro.core.config import RuntimeConfig
from repro.core.hill_climbing import HillClimbingModel
from repro.core.interference import InterferenceTracker
from repro.core.oracle import OraclePerformanceModel
from repro.core.scheduler import RuntimeSchedulerPolicy
from repro.execsim.simulator import PlacementKind, StepSimulator
from repro.execsim.standalone import StandaloneRunner
from repro.graph.builder import GraphBuilder
from repro.graph.shapes import TensorShape
from repro.models import build_model


class TestRuntimeConfig:
    def test_defaults_enable_everything(self):
        config = RuntimeConfig()
        assert config.label == "S1+S2+S3+S4"

    def test_ablation_constructors(self):
        assert RuntimeConfig.strategies_1_2().label == "S1+S2"
        assert RuntimeConfig.strategies_1_2_3().label == "S1+S2+S3"
        assert RuntimeConfig.all_strategies().label == "S1+S2+S3+S4"

    def test_with_strategies(self):
        config = RuntimeConfig().with_strategies(s4=False)
        assert config.strategy4_hyperthreading is False
        assert config.strategy3_corun is True

    def test_s2_requires_s1(self):
        with pytest.raises(ValueError):
            RuntimeConfig(strategy1_per_op_concurrency=False, strategy2_stable_concurrency=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(hill_climbing_interval=0)
        with pytest.raises(ValueError):
            RuntimeConfig(corun_candidates=0)
        with pytest.raises(ValueError):
            RuntimeConfig(profiling_noise_sigma=-1)


class TestInterferenceTracker:
    def test_blacklists_bad_pairs(self):
        tracker = InterferenceTracker(threshold=0.5)
        tracker.record("Conv2D", "Mul", 0.2)
        assert tracker.allowed("Conv2D", "Mul")
        tracker.record("Conv2D", "Mul", 0.8)
        assert not tracker.allowed("Conv2D", "Mul")
        assert not tracker.allowed("Mul", "Conv2D")  # symmetric
        assert ("Conv2D", "Mul") in tracker.blacklisted_pairs()

    def test_allowed_with_all(self):
        tracker = InterferenceTracker(threshold=0.3)
        tracker.record("A", "B", 0.9)
        assert not tracker.allowed_with_all("A", ["C", "B"])
        assert tracker.allowed_with_all("A", ["C", "D"])

    def test_blocked_with(self):
        tracker = InterferenceTracker(threshold=0.3)
        assert tracker.blocked_with("A") == frozenset()
        tracker.record("B", "A", 0.9)
        tracker.mark_blacklisted("A", "A")
        tracker.mark_blacklisted("C", "D")
        assert tracker.blocked_with("A") == {"A", "B"}
        assert tracker.blocked_with("B") == {"A"}
        assert tracker.blocked_with("E") == frozenset()
        # The set answers allowed_with_all for any kind list.
        for key in "ABCDE":
            for others in (["A"], ["B", "C"], ["D", "E"], []):
                assert tracker.blocked_with(key).isdisjoint(
                    others
                ) == tracker.allowed_with_all(key, others)

    def test_changes_counts_blacklist_writers(self):
        tracker = InterferenceTracker(threshold=0.3)
        assert tracker.changes == 0
        tracker.record("A", "B", 0.1)
        assert tracker.changes == 1
        tracker.mark_blacklisted("A", "C")
        assert tracker.changes == 2
        other = InterferenceTracker(threshold=0.3)
        other.record("C", "D", 0.9)
        tracker.merge(other)
        assert tracker.changes == 3
        tracker.merge(other.snapshot())
        assert tracker.changes == 4
        # Bulk history appends never touch the blacklist.
        tracker.history_for("A", "B").append(0.2)
        assert tracker.changes == 4
        tracker.clear()
        assert tracker.changes == 5
        assert tracker.blocked_with("A") == frozenset()

    def test_observations_and_clear(self):
        tracker = InterferenceTracker()
        tracker.record("A", "B", 0.1)
        tracker.record("B", "A", 0.2)
        assert tracker.observations("A", "B") == (0.1, 0.2)
        tracker.clear()
        assert tracker.observations("A", "B") == ()

    def test_negative_slowdown_clamped(self):
        tracker = InterferenceTracker()
        tracker.record("A", "B", -0.5)
        assert tracker.observations("A", "B") == (0.0,)

    def test_history_is_capped(self):
        tracker = InterferenceTracker(history=4)
        for value in range(10):
            tracker.record("A", "B", value / 100.0)
        observed = tracker.observations("A", "B")
        assert len(observed) == 4
        assert observed == (0.06, 0.07, 0.08, 0.09)

    def test_history_validation(self):
        with pytest.raises(ValueError):
            InterferenceTracker(history=0)
        unbounded = InterferenceTracker(history=None)
        for value in range(300):
            unbounded.record("A", "B", 0.0)
        assert len(unbounded.observations("A", "B")) == 300

    def test_snapshot_merge_shares_knowledge(self):
        left = InterferenceTracker(threshold=0.5)
        left.record("resnet50", "dcgan", 0.9)  # blacklisted on this machine
        left.record("resnet50", "lstm", 0.1)
        right = InterferenceTracker(threshold=0.5)
        right.merge(left.snapshot())
        assert not right.allowed("dcgan", "resnet50")
        assert right.observations("resnet50", "lstm") == (0.1,)
        # Merging a tracker directly works too, and is additive.
        third = InterferenceTracker(threshold=0.5)
        third.record("lstm", "resnet50", 0.2)
        right.merge(third)
        assert right.observations("resnet50", "lstm") == (0.1, 0.2)

    def test_snapshot_is_deterministic(self):
        tracker = InterferenceTracker()
        tracker.record("B", "A", 0.7)
        tracker.record("C", "A", 0.8)
        assert tracker.snapshot() == tracker.snapshot()
        assert tracker.snapshot().num_observations == 2

    def test_mean_slowdown(self):
        tracker = InterferenceTracker()
        assert tracker.mean_slowdown("A", "B") is None
        tracker.record("A", "B", 0.2)
        tracker.record("A", "B", 0.4)
        assert tracker.mean_slowdown("B", "A") == pytest.approx(0.3)

    def test_arbitrary_hashable_keys(self):
        # The same class serves op-type pairs and e.g. (model, batch) pairs.
        tracker = InterferenceTracker(threshold=0.5)
        tracker.record(("resnet50", 32), ("dcgan", 64), 0.9)
        assert not tracker.allowed(("dcgan", 64), ("resnet50", 32))
        assert tracker.allowed(("resnet50", 32), ("resnet50", 32))

    def test_partially_ordered_keys_stay_symmetric(self):
        # frozensets answer False to both a <= b and b <= a: the pair key
        # must still canonicalise identically for both argument orders.
        tracker = InterferenceTracker(threshold=0.5)
        a, b = frozenset({1}), frozenset({2})
        tracker.record(a, b, 0.9)
        assert not tracker.allowed(b, a)
        assert not tracker.allowed(a, b)
        tracker.record(b, a, 0.1)
        assert tracker.observations(a, b) == (0.9, 0.1)


def _wide_graph():
    """One big conv followed by several independent medium/small ops."""
    b = GraphBuilder("wide")
    big = TensorShape((32, 8, 8, 2048))
    mid = TensorShape((32, 8, 8, 384))
    small = TensorShape((32, 1024))
    conv = b.add("Conv2D", inputs=[big], output=big, attrs={"kernel": (3, 3)}, name="bigconv")
    for index in range(4):
        b.add("Conv2DBackpropInput", inputs=[mid, mid], output=mid,
              attrs={"kernel": (3, 3)}, name=f"medium{index}", deps=[conv])
    for index in range(4):
        b.add("Mul", inputs=[small, small], output=small, name=f"small{index}", deps=[conv])
    return b.build()


@pytest.fixture(scope="module")
def oracle_and_graph(knl):
    graph = _wide_graph()
    oracle = OraclePerformanceModel(knl)
    oracle.observe_graph(graph)
    return oracle, graph


class TestRuntimeSchedulerPolicy:
    def test_strategy2_assigns_one_thread_count_per_type(self, knl):
        graph = build_model("resnet50", stage_blocks=(1, 1, 1, 1))
        oracle = OraclePerformanceModel(knl)
        oracle.observe_graph(graph)
        policy = RuntimeSchedulerPolicy(oracle, RuntimeConfig.strategies_1_2())
        policy.on_step_begin(graph, knl)
        by_type: dict[str, set[int]] = {}
        for op in graph:
            assignment = policy.assignment_for(op.name)
            by_type.setdefault(op.op_type, set()).add(assignment.threads)
        assert all(len(threads) == 1 for threads in by_type.values())

    def test_strategy1_without_s2_varies_threads_per_instance(self, knl):
        graph = build_model("resnet50", stage_blocks=(1, 1, 1, 1))
        oracle = OraclePerformanceModel(knl)
        oracle.observe_graph(graph)
        config = RuntimeConfig(strategy2_stable_concurrency=False,
                               strategy3_corun=False, strategy4_hyperthreading=False)
        policy = RuntimeSchedulerPolicy(oracle, config)
        policy.on_step_begin(graph, knl)
        conv_threads = {
            policy.assignment_for(op.name).threads
            for op in graph.instances_of("Conv2DBackpropFilter")
        }
        assert len(conv_threads) > 1

    def test_serial_mode_runs_one_op_at_a_time(self, knl, oracle_and_graph):
        oracle, graph = oracle_and_graph
        policy = RuntimeSchedulerPolicy(oracle, RuntimeConfig.strategies_1_2())
        result = StepSimulator(knl).run_step(graph, policy)
        assert max(result.trace.corunning_series()) == 1

    def test_corun_mode_overlaps_operations(self, knl, oracle_and_graph):
        oracle, graph = oracle_and_graph
        policy = RuntimeSchedulerPolicy(oracle, RuntimeConfig.strategies_1_2_3())
        result = StepSimulator(knl).run_step(graph, policy)
        assert max(result.trace.corunning_series()) >= 2

    def test_corun_beats_serial_strategies(self, knl, oracle_and_graph):
        oracle, graph = oracle_and_graph
        sim = StepSimulator(knl)
        serial = sim.run_step(graph, RuntimeSchedulerPolicy(oracle, RuntimeConfig.strategies_1_2()))
        corun = sim.run_step(graph, RuntimeSchedulerPolicy(oracle, RuntimeConfig.strategies_1_2_3()))
        assert corun.step_time < serial.step_time

    def test_full_runtime_beats_recommendation(self, knl, oracle_and_graph):
        oracle, graph = oracle_and_graph
        sim = StepSimulator(knl)
        ours = sim.run_step(graph, RuntimeSchedulerPolicy(oracle, RuntimeConfig.all_strategies()))
        rec = sim.run_step(graph, recommended_policy(knl))
        assert ours.step_time < rec.step_time

    def test_hyperthread_packing_uses_smt_slots(self, knl, oracle_and_graph):
        oracle, graph = oracle_and_graph
        policy = RuntimeSchedulerPolicy(oracle, RuntimeConfig.all_strategies())
        result = StepSimulator(knl).run_step(graph, policy)
        # The big conv occupies all cores; if any small op was packed onto
        # hyper-threads the trace records it.
        hyper = [r for r in result.trace.records if r.used_hyperthreads]
        dedicated = [r for r in result.trace.records if not r.used_hyperthreads]
        assert len(dedicated) >= len(graph) - 4
        # Packing is opportunistic; when it happens it must be a small op.
        for record in hyper:
            assert record.op_type == "Mul"

    def test_interference_blacklist_prevents_corun(self, knl, oracle_and_graph):
        oracle, graph = oracle_and_graph
        tracker = InterferenceTracker(threshold=0.1)
        # Forbid every pairing involving the medium convs.
        for other in ("Conv2D", "Conv2DBackpropInput", "Mul"):
            tracker.record("Conv2DBackpropInput", other, 1.0)
        policy = RuntimeSchedulerPolicy(
            oracle, RuntimeConfig.strategies_1_2_3(), interference=tracker
        )
        result = StepSimulator(knl).run_step(graph, policy)
        # The medium convs never co-run with each other.
        records = {r.op_name: r for r in result.trace.records}
        mediums = [records[f"medium{i}"] for i in range(4)]
        for a in mediums:
            for b in mediums:
                if a.op_name == b.op_name:
                    continue
                overlap = min(a.finish_time, b.finish_time) - max(a.start_time, b.start_time)
                assert overlap <= 1e-9

    def test_unknown_signature_falls_back_to_all_cores(self, knl, oracle_and_graph):
        _, graph = oracle_and_graph
        empty_oracle = OraclePerformanceModel(knl)  # knows nothing
        policy = RuntimeSchedulerPolicy(empty_oracle, RuntimeConfig.strategies_1_2())
        policy.on_step_begin(graph, knl)
        assignment = policy.assignment_for("bigconv")
        assert assignment.threads == knl.topology.num_cores
