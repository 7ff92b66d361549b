"""Tests for the discrete-event step simulator and the contention model."""

from __future__ import annotations

import pytest
from reference_step import corun_slowdowns

from repro.baselines.tf_default import UniformPolicy, recommended_policy
from repro.execsim.contention import RunningOpView
from repro.execsim.events import EventKind
from repro.execsim.simulator import (
    LaunchRequest,
    PlacementKind,
    SchedulingContext,
    StepSimulator,
)
from repro.execsim.standalone import StandaloneConfig, StandaloneRunner
from repro.graph.builder import GraphBuilder
from repro.graph.shapes import TensorShape
from repro.graph.traversal import critical_path_length, serial_time

from tests.conftest import make_conv_op, make_elementwise_op


def build_small_graph() -> "DataflowGraph":  # noqa: F821 - doc only
    """conv -> {mul, bias} -> add, plus an independent conv."""
    b = GraphBuilder("small")
    s = TensorShape((8, 16, 16, 32))
    conv = b.add("Conv2D", inputs=[s], output=s, attrs={"kernel": (3, 3)})
    mul = b.add("Mul", inputs=[s, s], output=s, deps=[conv])
    bias = b.add("BiasAdd", inputs=[s, TensorShape((32,))], output=s, deps=[conv])
    b.add("Add", inputs=[s, s], output=s, deps=[mul, bias])
    b.add("Conv2D", inputs=[s], output=s, attrs={"kernel": (3, 3)}, name="independent")
    return b.build()


class TestStepSimulator:
    def test_all_ops_execute_exactly_once(self, knl):
        graph = build_small_graph()
        sim = StepSimulator(knl)
        result = sim.run_step(graph, recommended_policy(knl))
        assert len(result.trace.records) == len(graph)
        assert {r.op_name for r in result.trace.records} == {op.name for op in graph}

    def test_dependencies_respected(self, knl):
        graph = build_small_graph()
        sim = StepSimulator(knl)
        result = sim.run_step(graph, recommended_policy(knl))
        finish = {r.op_name: r.finish_time for r in result.trace.records}
        start = {r.op_name: r.start_time for r in result.trace.records}
        for op in graph:
            for dep in graph.predecessors(op.name):
                assert start[op.name] >= finish[dep] - 1e-12

    def test_step_time_bounds(self, knl):
        """Makespan lies between the critical path and the serial sum."""
        graph = build_small_graph()
        sim = StepSimulator(knl)
        result = sim.run_step(graph, UniformPolicy(34, 2))
        durations = {r.op_name: r.duration for r in result.trace.records}
        lower = critical_path_length(graph, durations)
        upper = serial_time(graph, durations)
        assert lower - 1e-9 <= result.step_time <= upper + 1e-9

    def test_events_are_consistent(self, knl):
        graph = build_small_graph()
        sim = StepSimulator(knl)
        result = sim.run_step(graph, recommended_policy(knl))
        events = result.trace.events
        assert events[0].kind is EventKind.STEP_BEGIN
        assert events[-1].kind is EventKind.STEP_END
        launches = [e for e in events if e.kind is EventKind.LAUNCH]
        finishes = [e for e in events if e.kind is EventKind.FINISH]
        assert len(launches) == len(finishes) == len(graph)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_recommendation_runs_serially(self, knl):
        graph = build_small_graph()
        sim = StepSimulator(knl)
        result = sim.run_step(graph, recommended_policy(knl))
        # inter-op = 1: never more than one running operation.
        assert max(result.trace.corunning_series()) == 1

    def test_inter_op_2_coruns(self, knl):
        graph = build_small_graph()
        sim = StepSimulator(knl)
        result = sim.run_step(graph, UniformPolicy(34, 2))
        assert max(result.trace.corunning_series()) >= 2

    def test_deterministic_without_noise(self, knl):
        graph = build_small_graph()
        a = StepSimulator(knl).run_step(graph, recommended_policy(knl)).step_time
        b = StepSimulator(knl).run_step(graph, recommended_policy(knl)).step_time
        assert a == pytest.approx(b)

    def test_noise_changes_durations_but_not_correctness(self, knl):
        graph = build_small_graph()
        sim = StepSimulator(knl, noise_sigma=0.05, seed=1)
        result = sim.run_step(graph, recommended_policy(knl))
        assert len(result.trace.records) == len(graph)

    def test_policy_launching_not_ready_op_rejected(self, knl):
        graph = build_small_graph()

        class BadPolicy:
            name = "bad"

            def on_step_begin(self, graph, machine):
                pass

            def select_launches(self, context: SchedulingContext):
                return [LaunchRequest(op_name="Add_0", threads=4)]

        sim = StepSimulator(knl)
        with pytest.raises(ValueError):
            sim.run_step(graph, BadPolicy())

    def test_lazy_policy_triggers_forced_launches(self, knl):
        """A policy that never launches anything must not deadlock the step."""
        graph = build_small_graph()

        class LazyPolicy:
            name = "lazy"

            def on_step_begin(self, graph, machine):
                pass

            def select_launches(self, context):
                return []

        sim = StepSimulator(knl)
        result = sim.run_step(graph, LazyPolicy())
        assert result.forced_launches == len(graph)
        assert len(result.trace.records) == len(graph)

    def test_speedup_over(self, knl):
        graph = build_small_graph()
        sim = StepSimulator(knl)
        rec = sim.run_step(graph, recommended_policy(knl))
        other = sim.run_step(graph, UniformPolicy(34, 2))
        assert other.speedup_over(rec) == pytest.approx(rec.step_time / other.step_time)


class TestStandaloneRunner:
    def test_measure_matches_sweep(self, knl, conv_op):
        runner = StandaloneRunner(knl)
        sweep = runner.sweep(conv_op)
        threads, affinity, best = runner.best_configuration(conv_op)
        assert sweep[(threads, affinity)].total == pytest.approx(best)

    def test_run_repeats_scale_linearly_without_noise(self, knl, conv_op):
        runner = StandaloneRunner(knl)
        single = runner.run(conv_op, 16)
        thousand = runner.run(conv_op, 16, repeats=1000)
        assert thousand == pytest.approx(single * 1000)

    def test_corun_serial_vs_split(self, knl):
        """Table III behaviour: split-core co-run beats serial execution."""
        runner = StandaloneRunner(knl)
        a = make_conv_op("Conv2DBackpropFilter", (32, 8, 8, 2048), name="a")
        b = make_conv_op("Conv2DBackpropInput", (32, 8, 8, 2048), name="b")
        serial = runner.corun(
            [StandaloneConfig(a, 68), StandaloneConfig(b, 68)], serialize=True
        )
        split = runner.corun([StandaloneConfig(a, 34), StandaloneConfig(b, 34)])
        assert split.step_time < serial.step_time
        speedup = serial.step_time / split.step_time
        assert 1.2 < speedup < 2.0

    def test_corun_hyperthreading_between_serial_and_split(self, knl):
        runner = StandaloneRunner(knl)
        a = make_conv_op("Conv2DBackpropFilter", (32, 8, 8, 2048), name="a")
        b = make_conv_op("Conv2DBackpropInput", (32, 8, 8, 2048), name="b")
        serial = runner.corun(
            [StandaloneConfig(a, 68), StandaloneConfig(b, 68)], serialize=True
        )
        smt = runner.corun(
            [
                StandaloneConfig(a, 68, placement=PlacementKind.DEDICATED),
                StandaloneConfig(b, 68, placement=PlacementKind.HYPERTHREAD),
            ]
        )
        split = runner.corun([StandaloneConfig(a, 34), StandaloneConfig(b, 34)])
        assert split.step_time < smt.step_time <= serial.step_time * 1.05

    def test_duplicate_names_rejected(self, knl, conv_op):
        runner = StandaloneRunner(knl)
        with pytest.raises(ValueError):
            runner.corun([StandaloneConfig(conv_op, 4), StandaloneConfig(conv_op, 4)])

    def test_empty_corun_rejected(self, knl):
        runner = StandaloneRunner(knl)
        with pytest.raises(ValueError):
            runner.corun([])


class TestContentionModel:
    def _view(self, key, cores, threads, *, pinned=True, demand=0.0, mbf=0.0):
        return RunningOpView(
            key=key,
            core_ids=tuple(cores),
            threads=threads,
            bandwidth_demand=demand,
            memory_bound_fraction=mbf,
            memory_bound_char=0.3,
            pinned=pinned,
        )

    def test_single_op_on_dedicated_cores_has_no_slowdown(self, knl):
        views = [self._view("a", range(34), 34)]
        factors = corun_slowdowns(views, knl)
        assert factors["a"] == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_pinned_ops_do_not_slow_each_other(self, knl):
        views = [
            self._view("a", range(0, 34), 34),
            self._view("b", range(34, 68), 34),
        ]
        factors = corun_slowdowns(views, knl)
        assert factors["a"] == pytest.approx(1.0, abs=1e-6)
        assert factors["b"] == pytest.approx(1.0, abs=1e-6)

    def test_core_sharing_slows_both(self, knl):
        views = [
            self._view("a", range(68), 68),
            self._view("b", range(68), 68, pinned=False),
        ]
        factors = corun_slowdowns(views, knl)
        assert factors["a"] > 1.4
        assert factors["b"] > 1.4

    def test_unpinned_pools_pay_more_than_pinned_smt(self, knl):
        pinned = corun_slowdowns(
            [self._view("a", range(68), 68), self._view("b", range(68), 68)], knl
        )
        unpinned = corun_slowdowns(
            [
                self._view("a", range(68), 68, pinned=False),
                self._view("b", range(68), 68, pinned=False),
            ],
            knl,
        )
        assert unpinned["a"] > pinned["a"]

    def test_bandwidth_contention_stretches_memory_bound_ops(self, knl):
        bw = knl.memory.fast_bandwidth
        views = [
            self._view("a", range(0, 34), 34, demand=bw, mbf=0.9),
            self._view("b", range(34, 68), 34, demand=bw, mbf=0.9),
        ]
        factors = corun_slowdowns(views, knl)
        assert factors["a"] > 1.5

    def test_duplicate_keys_rejected(self, knl):
        views = [self._view("a", range(4), 4), self._view("a", range(4, 8), 4)]
        with pytest.raises(ValueError):
            corun_slowdowns(views, knl)

    def test_empty_views(self, knl):
        assert corun_slowdowns([], knl) == {}
