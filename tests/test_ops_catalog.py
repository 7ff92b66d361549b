"""Tests for the operation cost catalog and registry."""

from __future__ import annotations

import dataclasses

import pytest
from reference_step import ReferenceStepSimulator

from repro.baselines.tf_default import recommended_policy
from repro.execsim.simulator import StepSimulator
from repro.graph.dataflow import DataflowGraph
from repro.graph.op import OpInstance
from repro.graph.shapes import TensorShape, shape
from repro.ops.catalog import known_op_types
from repro.ops.characteristics import OpCharacteristics
from repro.ops.cost import (
    CharacterizationCache,
    characterize,
    characterize_cached,
    clear_characterization_cache,
)
from repro.ops.registry import OpRegistry, default_registry, register_op

from tests.conftest import make_conv_op, make_elementwise_op


class TestCharacteristics:
    def test_validation(self):
        with pytest.raises(ValueError):
            OpCharacteristics(
                flops=-1, bytes_touched=1, working_set=1, serial_fraction=0.1,
                reuse_potential=0.5, parallel_grains=1,
            )
        with pytest.raises(ValueError):
            OpCharacteristics(
                flops=1, bytes_touched=1, working_set=1, serial_fraction=1.0,
                reuse_potential=0.5, parallel_grains=1,
            )
        with pytest.raises(ValueError):
            OpCharacteristics(
                flops=1, bytes_touched=1, working_set=1, serial_fraction=0.1,
                reuse_potential=0.5, parallel_grains=0,
            )

    def test_arithmetic_intensity(self):
        chars = OpCharacteristics(
            flops=100, bytes_touched=50, working_set=10, serial_fraction=0.0,
            reuse_potential=0.5, parallel_grains=4,
        )
        assert chars.arithmetic_intensity == pytest.approx(2.0)

    def test_scaled(self):
        chars = OpCharacteristics(
            flops=100, bytes_touched=50, working_set=10, serial_fraction=0.1,
            reuse_potential=0.5, parallel_grains=4,
        )
        doubled = chars.scaled(2.0)
        assert doubled.flops == 200
        assert doubled.bytes_touched == 100
        assert doubled.parallel_grains == 8
        with pytest.raises(ValueError):
            chars.scaled(0)


class TestCatalog:
    def test_conv_flops_formula(self):
        op = make_conv_op("Conv2D", (32, 8, 8, 384))
        chars = characterize(op)
        expected = 2.0 * 32 * 8 * 8 * 384 * 384 * 9
        assert chars.flops == pytest.approx(expected)

    def test_backprop_filter_has_largest_per_thread_overhead(self):
        conv = characterize(make_conv_op("Conv2D"))
        dinput = characterize(make_conv_op("Conv2DBackpropInput"))
        dfilter = characterize(make_conv_op("Conv2DBackpropFilter"))
        assert dfilter.per_thread_overhead > dinput.per_thread_overhead > conv.per_thread_overhead

    def test_elementwise_is_memory_bound(self):
        chars = characterize(make_elementwise_op("Mul"))
        assert chars.memory_bound > 0.7
        assert chars.reuse_potential <= 0.2

    def test_matmul_flops(self):
        op = OpInstance("mm", "MatMul", (shape(64, 256), shape(256, 512)), shape(64, 512))
        chars = characterize(op)
        assert chars.flops == pytest.approx(2.0 * 64 * 256 * 512)

    def test_reduction_has_higher_serial_fraction_than_elementwise(self):
        reduction = characterize(make_elementwise_op("BiasAddGrad"))
        elementwise = characterize(make_elementwise_op("Mul"))
        assert reduction.serial_fraction > elementwise.serial_fraction

    def test_reshape_is_nearly_free(self):
        op = OpInstance("r", "Reshape", (shape(32, 64),), shape(64, 32))
        chars = characterize(op)
        assert chars.bytes_touched < 1024

    def test_apply_adam_touches_optimizer_state(self):
        params = shape(1024, 1024)
        op = OpInstance("adam", "ApplyAdam", (params,), params)
        chars = characterize(op)
        assert chars.bytes_touched == pytest.approx(5.0 * params.num_bytes)

    def test_every_catalog_type_characterizes(self):
        s4 = shape(8, 4, 4, 16)
        s2 = shape(8, 64)
        for op_type in known_op_types():
            inputs = (s4, s4) if "Conv2D" in op_type or op_type == "MatMul" else (s4,)
            op = OpInstance(f"x_{op_type}", op_type, inputs, s4 if op_type != "MatMul" else s2,
                            attrs={"kernel": (3, 3)})
            chars = characterize(op)
            assert chars.flops >= 0
            assert chars.bytes_touched >= 0
            assert chars.parallel_grains >= 1

    def test_unknown_type_uses_fallback(self):
        op = OpInstance("weird", "SomeBrandNewOp", (shape(16, 16),), shape(16, 16))
        chars = characterize(op)
        assert chars.flops > 0

    def test_cached_matches_uncached(self, conv_op):
        assert characterize_cached(conv_op) == characterize(conv_op)


class TestRegistry:
    def test_default_registry_is_populated(self):
        registry = default_registry()
        assert registry.is_known("Conv2D")
        assert registry.is_known("MatMul")
        assert len(registry) >= 40

    def test_register_and_overwrite_rules(self):
        registry = OpRegistry()
        estimator = lambda op: characterize(make_elementwise_op("Mul"))  # noqa: E731
        registry.register("Custom", estimator)
        assert registry.is_known("Custom")
        with pytest.raises(ValueError):
            registry.register("Custom", estimator)
        registry.register("Custom", estimator, overwrite=True)

    def test_unknown_without_fallback_raises(self):
        registry = OpRegistry()
        with pytest.raises(KeyError):
            registry.estimate(make_elementwise_op("Mul"))

    def test_empty_name_rejected(self):
        registry = OpRegistry()
        with pytest.raises(ValueError):
            registry.register("", lambda op: None)  # type: ignore[arg-type]

    def test_known_types_sorted(self):
        registry = default_registry()
        types = registry.known_types()
        assert list(types) == sorted(types)


def _conv_with_kernel(kernel):
    activation = shape(8, 14, 14, 64)
    return OpInstance("conv", "Conv2D", (activation,), activation, attrs={"kernel": kernel})


class TestCharacterizationMemo:
    """The memos key on attrs, which ``OpInstance`` equality ignores."""

    def test_kernel_sizes_do_not_collide(self):
        small, large = _conv_with_kernel((1, 1)), _conv_with_kernel((7, 7))
        assert small == large
        assert characterize(large).flops == 49 * characterize(small).flops
        clear_characterization_cache()
        assert characterize_cached(small) == characterize(small)
        assert characterize_cached(large) == characterize(large)
        cache = CharacterizationCache(default_registry())
        assert cache(small) == characterize(small)
        assert cache(large) == characterize(large)

    def test_unhashable_attrs_are_computed_uncached(self):
        op = _conv_with_kernel([5, 5])
        assert characterize_cached(op) == characterize(op)
        assert CharacterizationCache()(op) == characterize(op)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_one_op_step_after_a_colliding_lookup(self, small_machine, incremental):
        def step_time(op):
            graph = DataflowGraph("one-op")
            graph.add_op(op)
            simulator_cls = StepSimulator if incremental else ReferenceStepSimulator
            simulator = simulator_cls(small_machine)
            return simulator.run_step(graph, recommended_policy(small_machine)).step_time

        small, large = _conv_with_kernel((1, 1)), _conv_with_kernel((7, 7))
        clear_characterization_cache()
        expected = step_time(large)
        clear_characterization_cache()
        assert step_time(small) != expected
        assert step_time(large) == expected

    def test_registration_clears_the_default_memo(self):
        registry = default_registry()
        op = make_elementwise_op("Relu")
        original = registry._estimators["Relu"]
        before = characterize_cached(op)

        def heavier(instance):
            chars = original(instance)
            return dataclasses.replace(chars, flops=10 * chars.flops)

        try:
            register_op("Relu", heavier, overwrite=True)
            assert characterize_cached(op) == characterize(op)
            assert characterize_cached(op).flops == 10 * before.flops
        finally:
            register_op("Relu", original, overwrite=True)
        assert characterize_cached(op) == before

        unknown = OpInstance("weird", "SomeBrandNewOp", (shape(16, 16),), shape(16, 16))
        fallback = registry._fallback
        before = characterize_cached(unknown)
        try:
            registry.set_fallback(heavier)
            assert characterize_cached(unknown) == heavier(unknown)
        finally:
            registry.set_fallback(fallback)
        assert characterize_cached(unknown) == before
