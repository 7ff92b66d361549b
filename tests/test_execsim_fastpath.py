"""Equivalence of the incremental step simulator vs the reference.

``StepSimulator(machine)`` (incremental) and
``ReferenceStepSimulator(machine)`` (the original from-scratch
implementation, tests/reference_step.py) must produce the same step
times, traces and event sequences for every policy family — serial,
partitioned co-running, hyper-thread packing, oversubscribed pools,
forced launches and noisy runs alike.

The generated test draws the case: any zoo machine (the SMT-less
``arm-server-64c`` included), a synthetic graph of 8–80 ops, one of the
policies below or the paper's runtime policy over a profile of the drawn
graph, and noise on or off.  Events and forced launches must match
exactly and times within 1e-9 relative; the largest relative time error
is reported as a Hypothesis target (``--hypothesis-show-statistics``).
Tier-1 runs a small derandomized profile; ``make fuzz`` sets
``REPRO_FUZZ_EXAMPLES`` for a long randomized run.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st
from reference_step import ReferenceStepSimulator

from repro.baselines.tf_default import UniformPolicy, default_policy, recommended_policy
from repro.core.runtime import TrainingRuntime
from repro.execsim.simulator import LaunchRequest, PlacementKind, StepSimulator
from repro.graph.synthetic import synthetic_graph
from repro.hardware.affinity import AffinityMode
from repro.hardware.zoo import available_machines, get_machine
from repro.models import build_model

TOLERANCE = 1e-9
FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))


class PartitionedPolicy:
    """Launch up to ``ways`` ready ops on disjoint DEDICATED partitions."""

    def __init__(self, ways: int = 4) -> None:
        self.ways = ways
        self.name = f"partitioned({ways})"

    def on_step_begin(self, graph, machine) -> None:
        self._threads = max(1, machine.num_cores // self.ways)

    def select_launches(self, context):
        slots = self.ways - len(context.running)
        if slots <= 0:
            return []
        return [
            LaunchRequest(
                op_name=op.name,
                threads=self._threads,
                affinity=AffinityMode.SHARED,
                placement=PlacementKind.DEDICATED,
            )
            for op in context.ready[:slots]
        ]


class HyperthreadPackingPolicy:
    """A core-filling op plus small ops packed on free SMT slots."""

    name = "ht-packing"

    def on_step_begin(self, graph, machine) -> None:
        self._num_cores = machine.num_cores

    def select_launches(self, context):
        requests = []
        if not context.any_core_filling_op and context.ready:
            requests.append(
                LaunchRequest(
                    op_name=context.ready[0].name,
                    threads=self._num_cores,
                    placement=PlacementKind.DEDICATED,
                )
            )
            remaining = context.ready[1:]
        else:
            remaining = context.ready
        for op in remaining[:2]:
            if context.free_hyperthread_cores > 0:
                requests.append(
                    LaunchRequest(
                        op_name=op.name,
                        threads=min(8, max(1, context.free_hyperthread_cores)),
                        placement=PlacementKind.HYPERTHREAD,
                    )
                )
        return requests


class LazyPolicy:
    name = "lazy"

    def on_step_begin(self, graph, machine) -> None:
        pass

    def select_launches(self, context):
        return []


def _run_both(machine, graph, make_policy, *, noise_sigma=0.0, seed=0):
    reference = ReferenceStepSimulator(
        machine, noise_sigma=noise_sigma, seed=seed
    ).run_step(graph, make_policy())
    fast = StepSimulator(
        machine, noise_sigma=noise_sigma, seed=seed
    ).run_step(graph, make_policy())
    return reference, fast


def _assert_same_results(reference, fast):
    assert fast.step_time == pytest.approx(reference.step_time, rel=TOLERANCE)
    assert fast.forced_launches == reference.forced_launches
    ref_records = {r.op_name: r for r in reference.trace.records}
    fast_records = {r.op_name: r for r in fast.trace.records}
    assert set(ref_records) == set(fast_records)
    for name, ref_record in ref_records.items():
        fast_record = fast_records[name]
        assert fast_record.start_time == pytest.approx(
            ref_record.start_time, rel=TOLERANCE, abs=1e-15
        ), name
        assert fast_record.finish_time == pytest.approx(
            ref_record.finish_time, rel=TOLERANCE, abs=1e-15
        ), name
        assert fast_record.threads == ref_record.threads
        assert fast_record.used_hyperthreads == ref_record.used_hyperthreads
    ref_events = [(e.kind, e.op_name, e.corunning, e.busy_cores) for e in reference.trace.events]
    fast_events = [(e.kind, e.op_name, e.corunning, e.busy_cores) for e in fast.trace.events]
    assert fast_events == ref_events


POLICIES = {
    "serial-recommendation": lambda machine: recommended_policy(machine),
    "uniform-inter2": lambda machine: UniformPolicy(34, 2),
    "uniform-inter8": lambda machine: UniformPolicy(17, 8),
    "tf-default": lambda machine: default_policy(machine),
    "partitioned": lambda machine: PartitionedPolicy(4),
    "ht-packing": lambda machine: HyperthreadPackingPolicy(),
}


class TestFastPathEquivalence:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_synthetic_graph_equivalence(self, knl, policy_name):
        graph = synthetic_graph(150, seed=9)
        make = POLICIES[policy_name]
        reference, fast = _run_both(knl, graph, lambda: make(knl))
        _assert_same_results(reference, fast)

    @pytest.mark.parametrize("policy_name", ["serial-recommendation", "uniform-inter8"])
    def test_resnet_equivalence(self, knl, policy_name):
        graph = build_model("resnet50", stage_blocks=(1, 1, 1, 1))
        make = POLICIES[policy_name]
        reference, fast = _run_both(knl, graph, lambda: make(knl))
        _assert_same_results(reference, fast)

    def test_small_machine_equivalence(self, small_machine):
        graph = synthetic_graph(100, seed=2)
        reference, fast = _run_both(
            small_machine, graph, lambda: UniformPolicy(4, 3)
        )
        _assert_same_results(reference, fast)

    def test_noisy_equivalence(self, knl):
        """Same seed => same noise draws => identical noisy results."""
        graph = synthetic_graph(120, seed=5)
        reference, fast = _run_both(
            knl, graph, lambda: UniformPolicy(34, 2), noise_sigma=0.05, seed=17
        )
        _assert_same_results(reference, fast)

    def test_forced_launch_equivalence(self, knl):
        graph = synthetic_graph(100, seed=13)
        reference, fast = _run_both(knl, graph, LazyPolicy)
        assert reference.forced_launches == len(graph)
        _assert_same_results(reference, fast)

    def test_runtime_scheduler_equivalence(self, knl):
        """The paper's own policy (Strategies 1-4) through both paths."""
        graph = build_model("resnet50", stage_blocks=(1, 1, 1, 1))
        runtime = TrainingRuntime(knl)
        model = runtime.profile(graph)
        reference = ReferenceStepSimulator(knl).run_step(
            graph, runtime.build_policy(model)
        )
        fast = StepSimulator(knl).run_step(graph, runtime.build_policy(model))
        _assert_same_results(reference, fast)


def _relative_error(value: float, expected: float) -> float:
    if value == expected:
        return 0.0
    return abs(value - expected) / max(abs(expected), 1e-300)


@st.composite
def step_cases(draw):
    machine = get_machine(draw(st.sampled_from(available_machines())))
    graph_args = dict(
        num_ops=draw(st.integers(min_value=8, max_value=80)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        width=draw(st.integers(min_value=1, max_value=10)),
        heavy_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        skip_probability=draw(st.floats(min_value=0.0, max_value=0.5)),
    )
    graph = synthetic_graph(**graph_args)
    policy_name = draw(st.sampled_from((*sorted(POLICIES), "lazy", "runtime")))
    if policy_name == "lazy":
        make_policy = LazyPolicy
    elif policy_name == "runtime":
        runtime = TrainingRuntime(machine)
        model = runtime.profile(graph)
        make_policy = lambda: runtime.build_policy(model)  # noqa: E731
    else:
        make_policy = lambda: POLICIES[policy_name](machine)  # noqa: E731
    return dict(
        machine=machine,
        graph_args=graph_args,
        graph=graph,
        policy=policy_name,
        make_policy=make_policy,
        noise_sigma=draw(st.sampled_from((0.0, 0.05, 0.2))),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


@settings(
    max_examples=FUZZ_EXAMPLES or 200,
    derandomize=not FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=step_cases())
def test_generated_step_matches_reference(case):
    reference, fast = _run_both(
        case["machine"],
        case["graph"],
        case["make_policy"],
        noise_sigma=case["noise_sigma"],
        seed=case["seed"],
    )

    def events(result):
        return [
            (e.kind, e.op_name, e.corunning, e.busy_cores, e.threads)
            for e in result.trace.events
        ]

    assert events(fast) == events(reference)
    assert fast.forced_launches == reference.forced_launches
    pairs = [(fast.step_time, reference.step_time)]
    pairs += [(f.time, r.time) for f, r in zip(fast.trace.events, reference.trace.events)]
    ref_records = {r.op_name: r for r in reference.trace.records}
    for record in fast.trace.records:
        expected = ref_records[record.op_name]
        pairs.append((record.start_time, expected.start_time))
        pairs.append((record.finish_time, expected.finish_time))
    error = max(_relative_error(value, expected) for value, expected in pairs)
    target(error, label="largest relative time error")
    assert error <= TOLERANCE
