"""The process-wide memos of a cold step-time estimate are exact.

A standalone run takes its noise-free base time from a memo shared by
every runner on an equal machine, and ``corun_step_time`` builds each
mix's graph once per process.  Both must give the floats that the
uncached computation gives, whatever ran before them.
"""

from __future__ import annotations

from repro.core.config import RuntimeConfig
from repro.execsim import op_runtime
from repro.execsim.op_runtime import clear_execution_time_cache, execution_time
from repro.execsim.standalone import StandaloneRunner
from repro.fleet import Job
from repro.fleet.estimates import canonical_mix, corun_step_time, mix_graph
from repro.hardware.affinity import AffinityMode
from repro.ops.cost import characterize, clear_characterization_cache
from repro.ops.registry import OpRegistry, default_registry
from repro.scenarios import Workload
from repro.utils.seeding import make_rng

from tests.conftest import make_conv_op, make_elementwise_op

S, H = AffinityMode.SPREAD, AffinityMode.SHARED
CASES = ((1, S), (4, H), (3, S), (8, H))


def _expected_runs(machine, chars_of, ops, sigma, repeats, seed):
    rng = make_rng(seed)
    expected = []
    for op in ops:
        for threads, affinity in CASES:
            base = execution_time(chars_of(op), machine, threads, affinity).total
            if sigma == 0.0:
                expected.append(base * repeats)
            else:
                factors = rng.lognormal(mean=0.0, sigma=sigma, size=repeats)
                expected.append(float(base * factors.sum()))
    return expected


def _runs(runner, ops, repeats):
    return [
        runner.run(op, threads, affinity, repeats=repeats)
        for op in ops
        for threads, affinity in CASES
    ]


class TestStandaloneTotals:
    def test_run_matches_uncached_model_on_two_machines(self, knl, small_machine):
        ops = [make_conv_op(), make_elementwise_op("Mul")]
        for machine in (knl, small_machine, knl):
            for sigma, repeats in ((0.0, 3), (0.05, 2)):
                runner = StandaloneRunner(machine, noise_sigma=sigma, seed=11)
                expected = _expected_runs(machine, characterize, ops, sigma, repeats, 11)
                assert _runs(runner, ops, repeats) == expected

    def test_custom_registry(self, knl):
        heavy = OpRegistry()
        heavy.register("Mul", lambda op: characterize(op).scaled(3.0))
        ops = [make_elementwise_op("Mul")]
        default_runner = StandaloneRunner(knl, noise_sigma=0.05, seed=3)
        custom_runner = StandaloneRunner(knl, registry=heavy, noise_sigma=0.05, seed=3)
        default = _runs(default_runner, ops, 1)
        custom = _runs(custom_runner, ops, 1)
        assert custom == _expected_runs(knl, heavy.estimate, ops, 0.05, 1, 3)
        assert default == _expected_runs(knl, default_registry().estimate, ops, 0.05, 1, 3)
        assert custom != default

    def test_single_run_draws_the_array_draws_noise(self, knl):
        # One run draws a scalar: the float and the generator state after
        # it must be those of the one-element array draw it replaces.
        op = make_conv_op()
        base = execution_time(characterize(op), knl, 4, H).total
        for seed in range(20):
            for sigma in (0.01, 0.05, 0.3):
                runner = StandaloneRunner(knl, noise_sigma=sigma, seed=seed)
                rng = make_rng(seed)
                for _ in range(10):
                    factors = rng.lognormal(mean=0.0, sigma=sigma, size=1)
                    measured = runner.run(op, 4, H)
                    assert type(measured) is float
                    assert measured == float(base * factors.sum())
                assert runner._rng.bit_generator.state == rng.bit_generator.state

    def test_cleared_with_the_execution_time_cache(self, knl, monkeypatch):
        computed = []

        def counted(*args, **kwargs):
            computed.append(args)
            return execution_time(*args, **kwargs)

        monkeypatch.setattr(op_runtime, "execution_time", counted)
        clear_execution_time_cache()
        runner, op = StandaloneRunner(knl), make_conv_op()
        runner.run(op, 4)
        runner.run(op, 4)
        assert len(computed) == 1
        clear_execution_time_cache()
        runner.run(op, 4)
        StandaloneRunner(knl).run(op, 4)
        assert len(computed) == 3


SMALL_A = Workload(synthetic_ops=16, synthetic_width=4, label="memo-a")
SMALL_B = Workload(synthetic_ops=12, synthetic_width=2, heavy_fraction=0.6, label="memo-b")


def _clear_memos():
    clear_characterization_cache()
    clear_execution_time_cache()
    mix_graph.cache_clear()


def test_corun_step_time_matches_cleared_memos():
    entries = canonical_mix(
        (
            Job(name="a", workload=SMALL_A, num_steps=1),
            Job(name="b", workload=SMALL_B, num_steps=1),
        )
    )
    config = RuntimeConfig()
    machines = ("desktop-8c", "laptop-4c", "desktop-8c")
    memoised = [corun_step_time(entries, name, config).hex() for name in machines]
    assert mix_graph(entries) is mix_graph(entries)
    fresh = []
    for name in machines:
        _clear_memos()
        fresh.append(corun_step_time(entries, name, config).hex())
    assert memoised == fresh
    assert fresh[0] != fresh[1]
