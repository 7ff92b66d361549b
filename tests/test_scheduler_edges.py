"""Strategy 3/4 edge cases on SMT-less and single-core-tile zoo machines.

PR 3 generalized the KNL-specific runtime to arbitrary topologies; these
tests lock in the degeneration behaviour under the refactored scheduler:
Strategy 4 must stay idle where no secondary SMT slots exist
(``arm-server-64c``), and Strategy 3's co-running must keep working on
machines whose tiles hold a single core (``laptop-4c``, ``desktop-8c``).
"""

from __future__ import annotations

import pytest
from reference_step import ReferenceStepSimulator

from repro.core.config import RuntimeConfig
from repro.core.oracle import OraclePerformanceModel
from repro.core.scheduler import RuntimeSchedulerPolicy
from repro.execsim.simulator import StepSimulator
from repro.graph.builder import GraphBuilder
from repro.graph.shapes import TensorShape
from repro.hardware.zoo import get_machine


def _wide_graph():
    """One big conv followed by independent medium/small ops (co-runnable)."""
    b = GraphBuilder("wide-edge")
    big = TensorShape((32, 8, 8, 1024))
    mid = TensorShape((32, 8, 8, 256))
    small = TensorShape((32, 512))
    conv = b.add("Conv2D", inputs=[big], output=big, attrs={"kernel": (3, 3)}, name="bigconv")
    for index in range(3):
        b.add("Conv2DBackpropInput", inputs=[mid, mid], output=mid,
              attrs={"kernel": (3, 3)}, name=f"medium{index}", deps=[conv])
    for index in range(3):
        b.add("Mul", inputs=[small, small], output=small, name=f"small{index}", deps=[conv])
    return b.build()


@pytest.fixture(scope="module")
def graph():
    return _wide_graph()


def _run(machine, graph, config):
    oracle = OraclePerformanceModel(machine)
    oracle.observe_graph(graph)
    policy = RuntimeSchedulerPolicy(oracle, config)
    return StepSimulator(machine).run_step(graph, policy)


class TestSmtLessMachine:
    """arm-server-64c: smt_per_core == 1, Strategy 4 has nothing to pack."""

    @pytest.fixture(scope="class")
    def arm(self):
        return get_machine("arm-server-64c")

    def test_no_hyperthread_launches(self, arm, graph):
        result = _run(arm, graph, RuntimeConfig.all_strategies())
        assert all(not r.used_hyperthreads for r in result.trace.records)

    def test_strategy4_degenerates_to_strategy3(self, arm, graph):
        with_s4 = _run(arm, graph, RuntimeConfig.all_strategies())
        without_s4 = _run(arm, graph, RuntimeConfig.strategies_1_2_3())
        assert with_s4.step_time == without_s4.step_time

    def test_strategy3_still_coruns(self, arm, graph):
        result = _run(arm, graph, RuntimeConfig.strategies_1_2_3())
        assert max(result.trace.corunning_series()) >= 2

    def test_hyperthread_context_is_empty(self, arm):
        from repro.hardware.affinity import CoreAllocator

        allocator = CoreAllocator(arm.topology)
        assert allocator.free_hyperthread_cores == 0
        allocator.allocate(arm.topology.num_cores)
        assert allocator.free_hyperthread_cores == 0


class TestSingleCoreTileMachines:
    """laptop-4c / desktop-8c: cores_per_tile == 1, SHARED ladder is per-core."""

    @pytest.mark.parametrize("name", ["laptop-4c", "desktop-8c"])
    def test_full_runtime_completes_and_coruns(self, name, graph):
        machine = get_machine(name)
        result = _run(machine, graph, RuntimeConfig.all_strategies())
        assert len(result.trace.records) == len(graph)
        assert max(result.trace.corunning_series()) >= 2

    @pytest.mark.parametrize("name", ["laptop-4c", "desktop-8c"])
    def test_incremental_matches_reference(self, name, graph):
        machine = get_machine(name)
        oracle = OraclePerformanceModel(machine)
        oracle.observe_graph(graph)
        config = RuntimeConfig.all_strategies()
        fast = StepSimulator(machine).run_step(
            graph, RuntimeSchedulerPolicy(oracle, config)
        )
        reference = ReferenceStepSimulator(machine).run_step(
            graph, RuntimeSchedulerPolicy(oracle, config)
        )
        assert fast.step_time == pytest.approx(reference.step_time, rel=1e-9)

    def test_small_op_packs_hyperthreads_on_smt_machine(self, graph):
        # The laptop *does* have SMT: Strategy 4 may pack, and any packed
        # op must be one of the small ones (locks in PR 3's behaviour).
        machine = get_machine("laptop-4c")
        result = _run(machine, graph, RuntimeConfig.all_strategies())
        for record in result.trace.records:
            if record.used_hyperthreads:
                assert record.op_type == "Mul"


class TestInterferenceBlacklistOnZooMachines:
    """The generalized tracker still gates Strategy 3 on any topology."""

    @pytest.mark.parametrize("name", ["arm-server-64c", "laptop-4c"])
    def test_blacklist_prevents_medium_corun(self, name, graph):
        from repro.core.interference import InterferenceTracker

        machine = get_machine(name)
        oracle = OraclePerformanceModel(machine)
        oracle.observe_graph(graph)
        tracker = InterferenceTracker(threshold=0.1)
        for other in ("Conv2D", "Conv2DBackpropInput", "Mul"):
            tracker.record("Conv2DBackpropInput", other, 1.0)
        policy = RuntimeSchedulerPolicy(
            oracle, RuntimeConfig.strategies_1_2_3(), interference=tracker
        )
        result = StepSimulator(machine).run_step(graph, policy)
        records = {r.op_name: r for r in result.trace.records}
        mediums = [records[f"medium{i}"] for i in range(3)]
        for a in mediums:
            for b in mediums:
                if a.op_name == b.op_name:
                    continue
                overlap = min(a.finish_time, b.finish_time) - max(
                    a.start_time, b.start_time
                )
                assert overlap <= 1e-9
