"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_step import corun_slowdowns

from repro.execsim.contention import RunningOpView
from repro.execsim.op_runtime import execution_time
from repro.graph.builder import GraphBuilder
from repro.graph.shapes import TensorShape
from repro.graph.traversal import ready_frontier, topological_order
from repro.hardware.affinity import AffinityMode, CoreAllocator, ThreadPlacement
from repro.hardware.knl import knl_machine
from repro.mlkit import LinearRegression, StandardScaler
from repro.ops.characteristics import OpCharacteristics
from repro.utils.stats import paper_accuracy, r_squared

MACHINE = knl_machine()

dims_strategy = st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4)

chars_strategy = st.builds(
    OpCharacteristics,
    flops=st.floats(min_value=1e3, max_value=1e11),
    bytes_touched=st.floats(min_value=1e3, max_value=1e9),
    working_set=st.floats(min_value=1e3, max_value=1e8),
    serial_fraction=st.floats(min_value=0.0, max_value=0.3),
    reuse_potential=st.floats(min_value=0.0, max_value=1.0),
    parallel_grains=st.integers(min_value=1, max_value=100_000),
    per_thread_overhead=st.floats(min_value=0.0, max_value=1e-3),
    branchiness=st.floats(min_value=0.0, max_value=0.3),
    memory_bound=st.floats(min_value=0.0, max_value=1.0),
)


class TestShapeProperties:
    @given(dims=dims_strategy)
    def test_num_bytes_is_elements_times_dtype(self, dims):
        shape = TensorShape(dims)
        assert shape.num_bytes == shape.num_elements * 4
        assert shape.num_elements >= 1

    @given(dims=dims_strategy, batch=st.integers(min_value=1, max_value=256))
    def test_with_batch_preserves_trailing_dims(self, dims, batch):
        shape = TensorShape(dims)
        rebatched = shape.with_batch(batch)
        assert rebatched.dims[1:] == shape.dims[1:]
        assert rebatched.batch == batch


class TestExecutionTimeProperties:
    @given(chars=chars_strategy, threads=st.integers(min_value=1, max_value=272))
    @settings(max_examples=60, deadline=None)
    def test_time_is_positive_and_finite(self, chars, threads):
        breakdown = execution_time(chars, MACHINE, threads)
        assert np.isfinite(breakdown.total)
        assert breakdown.total > 0
        assert breakdown.overhead_time >= MACHINE.op_dispatch_cost
        assert 0.0 <= breakdown.memory_bound_fraction <= 1.0

    @given(chars=chars_strategy, threads=st.integers(min_value=1, max_value=68))
    @settings(max_examples=60, deadline=None)
    def test_never_faster_than_ideal_scaling(self, chars, threads):
        """No configuration beats perfectly linear scaling of the compute work."""
        breakdown = execution_time(chars, MACHINE, threads, AffinityMode.SHARED)
        ideal = chars.flops / (
            MACHINE.topology.effective_flops_per_core * min(threads, chars.parallel_grains)
        )
        assert breakdown.total >= ideal * 0.999

    @given(chars=chars_strategy, threads=st.integers(min_value=1, max_value=68))
    @settings(max_examples=40, deadline=None)
    def test_reconfiguration_strictly_adds_cost(self, chars, threads):
        base = execution_time(chars, MACHINE, threads).total
        reconfigured = execution_time(chars, MACHINE, threads, reconfigured=True).total
        assert reconfigured > base


class TestPlacementProperties:
    @given(threads=st.integers(min_value=1, max_value=34))
    def test_spread_placement_uses_exactly_one_thread_per_tile(self, threads):
        placement = ThreadPlacement.plan(threads, AffinityMode.SPREAD, MACHINE.topology)
        assert placement.tiles_used == threads
        assert placement.cores_used == threads

    @given(threads=st.integers(min_value=1, max_value=68))
    def test_shared_placement_never_exceeds_two_per_tile(self, threads):
        placement = ThreadPlacement.plan(threads, AffinityMode.SHARED, MACHINE.topology)
        assert placement.threads_per_tile <= MACHINE.topology.cores_per_tile
        assert placement.tiles_used * MACHINE.topology.cores_per_tile >= threads

    @given(requests=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=8))
    def test_allocator_conservation(self, requests):
        """Allocated plus free primary slots always equals the core count."""
        allocator = CoreAllocator(MACHINE.topology)
        allocations = []
        for request in requests:
            if request <= allocator.free_cores:
                allocations.append(allocator.allocate(request))
            total_allocated = sum(a.num_cores for a in allocations)
            assert total_allocated + allocator.free_cores == MACHINE.topology.num_cores
        for allocation in allocations:
            allocator.release(allocation)
        assert allocator.free_cores == MACHINE.topology.num_cores


class TestContentionProperties:
    @given(
        split=st.integers(min_value=4, max_value=64),
        mbf=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_disjoint_pinned_partitions_never_slow_core_sharing(self, split, mbf):
        views = [
            RunningOpView(
                key="a",
                core_ids=tuple(range(split)),
                threads=split,
                bandwidth_demand=0.0,
                memory_bound_fraction=mbf,
                memory_bound_char=mbf,
            ),
            RunningOpView(
                key="b",
                core_ids=tuple(range(split, 68)),
                threads=68 - split,
                bandwidth_demand=0.0,
                memory_bound_fraction=mbf,
                memory_bound_char=mbf,
            ),
        ]
        factors = corun_slowdowns(views, MACHINE)
        assert factors["a"] == pytest.approx(1.0, abs=1e-6)
        assert factors["b"] == pytest.approx(1.0, abs=1e-6)


class TestGraphProperties:
    @given(
        layer_sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_layered_random_dag_schedules_completely(self, layer_sizes, seed):
        """Executing ops in any topological order eventually readies everything."""
        rng = np.random.default_rng(seed)
        builder = GraphBuilder("random")
        shape = TensorShape((4, 4))
        previous_layer: list = []
        for width in layer_sizes:
            current_layer = []
            for _ in range(width):
                deps = [
                    op
                    for op in previous_layer
                    if rng.random() < 0.6
                ]
                current_layer.append(
                    builder.add("Mul", inputs=[shape, shape], output=shape, deps=deps)
                )
            previous_layer = current_layer
        graph = builder.build()

        order = topological_order(graph)
        completed: list[str] = []
        for name in order:
            assert name in ready_frontier(graph, completed) or not graph.predecessors(name) or all(
                dep in completed for dep in graph.predecessors(name)
            )
            completed.append(name)
        assert ready_frontier(graph, completed) == ()


class TestMlkitProperties:
    @given(
        n=st.integers(min_value=10, max_value=60),
        slope=st.floats(min_value=-5, max_value=5),
        intercept=st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_ols_recovers_exact_linear_relationships(self, n, slope, intercept):
        X = np.linspace(-1, 1, n).reshape(-1, 1)
        y = slope * X[:, 0] + intercept
        model = LinearRegression().fit(X, y)
        assert model.coef_[0] == pytest.approx(slope, abs=1e-6)
        assert model.intercept_ == pytest.approx(intercept, abs=1e-6)

    @given(data=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=4, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_r_squared_of_identity_prediction_is_one(self, data):
        values = np.asarray(data)
        if np.allclose(values.std(), 0):
            return
        assert r_squared(values, values) == pytest.approx(1.0)
        assert paper_accuracy(np.abs(values) + 1.0, np.abs(values) + 1.0) == pytest.approx(1.0)

    @given(
        rows=st.integers(min_value=2, max_value=30),
        cols=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_scaler_transform_inverse_roundtrip(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, cols)) * rng.uniform(0.5, 10)
        scaler = StandardScaler()
        assert np.allclose(scaler.inverse_transform(scaler.fit_transform(X)), X, atol=1e-9)
