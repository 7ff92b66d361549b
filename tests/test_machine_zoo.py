"""Machine zoo: topology invariants, simulator equivalence, cache keys.

Every machine the zoo can hand out must satisfy the structural invariants
the scheduler relies on, the incremental simulator fast path must match
the reference implementation bit-for-bit on non-KNL topologies, and the
sweep cache must key results on the full machine description so two
machines can never serve each other's entries.
"""

from __future__ import annotations

import os

import pytest
from reference_step import ReferenceStepSimulator

from repro.baselines.tf_default import UniformPolicy, default_policy, recommended_policy
from repro.execsim.simulator import StepSimulator
from repro.graph.synthetic import synthetic_graph
from repro.hardware.affinity import (
    AffinityMode,
    CoreAllocator,
    ThreadPlacement,
    prediction_cases,
)
from repro.hardware.gpu import p100_gpu
from repro.hardware.hyperthread import SmtModel
from repro.hardware.knl import knl_machine
from repro.hardware.topology import CoreTopology, Machine
from repro.hardware.zoo import (
    MACHINE_ZOO,
    available_machines,
    describe_zoo,
    get_machine,
    make_machine,
    register_machine,
    resolve_machine,
    zoo_machines,
)
from repro.ops.cost import characterize
from repro.sweep.cache import content_key

ZOO_NAMES = available_machines()

#: Non-KNL machines the equivalence tests exercise (small enough to be fast).
EQUIVALENCE_MACHINES = ("desktop-8c", "cloud-vm-16v", "arm-server-64c", "gpu-node-16c")

#: Machine used by env-parameterised CI runs (`REPRO_TEST_MACHINE=<zoo name>`).
ENV_MACHINE = os.environ.get("REPRO_TEST_MACHINE", "desktop-8c")


class TestZooRegistry:
    def test_knl_is_an_entry(self):
        assert get_machine("knl") == knl_machine()

    def test_available_machines_nonempty(self):
        assert len(ZOO_NAMES) >= 6
        for name in ZOO_NAMES:
            assert isinstance(get_machine(name), Machine)

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="knl"):
            get_machine("cray-1")

    def test_resolve_machine(self):
        assert resolve_machine(None) == knl_machine()
        assert resolve_machine("desktop-8c") == get_machine("desktop-8c")
        machine = get_machine("laptop-4c")
        assert resolve_machine(machine) is machine

    def test_machines_are_distinct(self):
        machines = zoo_machines()
        assert len({m.name for m in machines}) == len(machines)
        assert len(set(machines)) == len(machines)

    def test_register_machine_round_trip(self):
        name = "test-tmp-machine"
        try:
            register_machine(name, lambda: make_machine(name, num_cores=2))
            assert get_machine(name).topology.num_cores == 2
            with pytest.raises(ValueError, match="already registered"):
                register_machine(name, lambda: make_machine(name, num_cores=2))
            register_machine(
                name, lambda: make_machine(name, num_cores=4), overwrite=True
            )
            assert get_machine(name).topology.num_cores == 4
        finally:
            MACHINE_ZOO.pop(name, None)

    def test_register_rejects_non_machine_factory(self):
        with pytest.raises(TypeError):
            register_machine("test-bad", lambda: object())
        assert "test-bad" not in MACHINE_ZOO

    def test_describe_zoo_lists_everything(self):
        text = describe_zoo()
        for name in ZOO_NAMES:
            assert name in text

    def test_gpu_node_carries_a_gpu(self):
        assert get_machine("gpu-node-16c").gpu == p100_gpu()
        assert get_machine("knl").gpu is None


class TestTopologyInvariants:
    """Property tests every zoo machine must satisfy."""

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_tile_round_trip(self, name):
        topo = get_machine(name).topology
        for core in range(topo.num_cores):
            tile = topo.tile_of_core(core)
            assert core in topo.cores_of_tile(tile)
        seen: set[int] = set()
        for tile in range(topo.num_tiles):
            cores = topo.cores_of_tile(tile)
            assert len(cores) == topo.cores_per_tile
            assert all(topo.tile_of_core(c) == tile for c in cores)
            seen.update(cores)
        assert seen == set(range(topo.num_cores))

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_socket_round_trip(self, name):
        topo = get_machine(name).topology
        seen: set[int] = set()
        for socket in range(topo.num_sockets):
            cores = topo.cores_of_socket(socket)
            assert len(cores) == topo.cores_per_socket
            assert all(topo.socket_of_core(c) == socket for c in cores)
            # Tiles never straddle sockets.
            for core in cores:
                assert set(topo.cores_of_tile(topo.tile_of_core(core))) <= set(cores)
            seen.update(cores)
        assert seen == set(range(topo.num_cores))

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_logical_cpu_consistency(self, name):
        topo = get_machine(name).topology
        assert topo.num_logical_cpus == topo.num_cores * topo.smt_per_core
        assert topo.num_tiles * topo.cores_per_tile == topo.num_cores
        assert topo.num_sockets * topo.cores_per_socket == topo.num_cores

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_prediction_cases_are_feasible(self, name):
        """Every (threads, affinity) case must produce a valid placement."""
        machine = get_machine(name)
        topo = machine.topology
        cases = prediction_cases(topo)
        assert len(cases) == len(set(cases))
        for threads, affinity in cases:
            placement = ThreadPlacement.plan(threads, affinity, topo)
            assert placement.cores_used <= topo.num_cores
            assert placement.tiles_used <= topo.num_tiles
            assert placement.threads_per_tile <= topo.cores_per_tile

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_shared_counts_fill_tiles_evenly(self, name):
        topo = get_machine(name).topology
        shared = ThreadPlacement.feasible_thread_counts(AffinityMode.SHARED, topo)
        assert shared[-1] == topo.num_cores
        assert all(count % topo.cores_per_tile == 0 for count in shared)
        spread = ThreadPlacement.feasible_thread_counts(AffinityMode.SPREAD, topo)
        assert spread == tuple(range(1, topo.num_tiles + 1))

    def test_knl_prediction_cases_unchanged(self):
        """The paper's 68-case space must survive the generalisation."""
        cases = prediction_cases(knl_machine().topology)
        assert len(cases) == 68
        shared = [t for t, a in cases if a is AffinityMode.SHARED]
        assert shared == list(range(2, 69, 2))

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_smt_model_covers_topology(self, name):
        machine = get_machine(name)
        assert machine.smt.max_threads_per_core >= machine.topology.smt_per_core


class TestMachineValidation:
    def test_smt_curve_must_cover_hardware_threads(self):
        with pytest.raises(ValueError, match="SmtModel describes"):
            make_machine(
                "bad-smt",
                num_cores=4,
                smt_per_core=4,
                smt_aggregate=(0.0, 1.0, 1.1),
            )

    def test_tiles_must_not_straddle_sockets(self):
        with pytest.raises(ValueError, match="straddle"):
            CoreTopology(num_cores=6, cores_per_tile=2, num_sockets=2)

    def test_cores_divisible_by_sockets(self):
        with pytest.raises(ValueError, match="num_sockets"):
            CoreTopology(num_cores=6, cores_per_tile=1, num_sockets=4)

    def test_per_core_bandwidth_below_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            make_machine(
                "bad-bw", num_cores=2, fast_bandwidth=10e9, per_core_bandwidth=20e9
            )

    def test_gpu_field_is_typed(self):
        machine = get_machine("desktop-8c")
        import dataclasses

        with pytest.raises(TypeError, match="gpu"):
            dataclasses.replace(machine, gpu="p100")


class TestAllocatorSmtGating:
    def test_no_hyperthread_slots_without_smt(self):
        topo = get_machine("arm-server-64c").topology
        allocator = CoreAllocator(topo)
        allocation = allocator.allocate(topo.num_cores)
        assert allocator.free_hyperthread_cores == 0
        with pytest.raises(RuntimeError, match="hyper-thread"):
            allocator.allocate_hyperthreads(1)
        allocator.release(allocation)
        # Partial allocations do not create slots either.
        allocator.allocate(4)
        assert allocator.free_hyperthread_cores == 0

    def test_smt_machines_still_offer_slots(self):
        topo = get_machine("desktop-8c").topology
        allocator = CoreAllocator(topo)
        allocator.allocate(topo.num_cores)
        assert allocator.free_hyperthread_cores == topo.num_cores


class _Partitioned:
    """Minimal partitioned co-run policy for the equivalence sweep."""

    name = "partitioned"

    def __init__(self, ways: int = 3) -> None:
        self.ways = ways

    def on_step_begin(self, graph, machine) -> None:
        self._threads = max(1, machine.num_cores // self.ways)

    def select_launches(self, context):
        from repro.execsim.simulator import LaunchRequest, PlacementKind

        slots = self.ways - len(context.running)
        if slots <= 0:
            return []
        return [
            LaunchRequest(op_name=op.name, threads=self._threads)
            for op in context.ready[:slots]
        ]


class TestSimulatorEquivalenceAcrossZoo:
    """StepSimulator must match ReferenceStepSimulator on every
    topology, not just the KNL it was tuned on."""

    TOLERANCE = 1e-9

    @pytest.mark.parametrize("name", EQUIVALENCE_MACHINES)
    @pytest.mark.parametrize("seed", (0, 3))
    def test_incremental_matches_reference(self, name, seed):
        machine = get_machine(name)
        graph = synthetic_graph(60, seed=seed, width=6)
        for policy_factory in (
            lambda: recommended_policy(machine),
            lambda: default_policy(machine),
            lambda: UniformPolicy(max(1, machine.num_cores // 2), 2),
            lambda: _Partitioned(),
        ):
            reference = ReferenceStepSimulator(machine).run_step(
                graph, policy_factory()
            )
            incremental = StepSimulator(machine).run_step(graph, policy_factory())
            assert incremental.step_time == pytest.approx(
                reference.step_time, rel=self.TOLERANCE
            ), f"{name}: {policy_factory().name} diverged"
            assert len(incremental.trace.events) == len(reference.trace.events)

    def test_env_selected_machine_equivalence(self):
        """CI runs the suite with REPRO_TEST_MACHINE set per zoo machine."""
        machine = get_machine(ENV_MACHINE)
        graph = synthetic_graph(80, seed=1, width=8)
        reference = ReferenceStepSimulator(machine).run_step(
            graph, recommended_policy(machine)
        )
        incremental = StepSimulator(machine).run_step(
            graph, recommended_policy(machine)
        )
        assert incremental.step_time == pytest.approx(
            reference.step_time, rel=self.TOLERANCE
        )


class TestCacheKeysAcrossMachines:
    def test_machine_descriptions_hash_distinctly(self, conv_op):
        """The same task on two zoo machines must never share a cache key."""
        chars = characterize(conv_op)
        keys = {content_key("task", chars, get_machine(name)) for name in ZOO_NAMES}
        assert len(keys) == len(ZOO_NAMES)

    def test_gpu_and_sockets_enter_the_key(self):
        base = get_machine("desktop-8c")
        import dataclasses

        with_gpu = dataclasses.replace(base, gpu=p100_gpu())
        assert content_key("m", base) != content_key("m", with_gpu)
        topo = dataclasses.replace(base.topology, num_sockets=2)
        two_socket = dataclasses.replace(base, topology=topo)
        assert content_key("m", base) != content_key("m", two_socket)


class TestReviewRegressions:
    def test_default_smt_curve_extends_beyond_reference(self):
        machine = make_machine("smt8", num_cores=4, smt_per_core=8)
        assert machine.smt.max_threads_per_core == 8
        curve = machine.smt.aggregate_throughput
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_zoo_machines_empty_selection_is_empty(self):
        assert zoo_machines(()) == ()
        assert len(zoo_machines()) == len(ZOO_NAMES)

    def test_cli_reports_env_config_errors_cleanly(self, monkeypatch, capsys):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_SWEEP_NO_CACHE", "maybe")
        assert main(["table3"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_SWEEP_NO_CACHE" in err and "Traceback" not in err

    def test_scenario_outcome_reports_zoo_keys(self):
        from repro.api import run_scenario
        from repro.scenarios import Scenario, Workload

        scenario = Scenario(
            "test-label", machine="knl", workloads=(Workload(model="dcgan"),)
        )
        assert run_scenario(scenario).machine == "knl"
        assert (
            run_scenario(scenario, machine="small-knl-8").machine == "small-knl-8"
        )
        assert (
            run_scenario(scenario, machine=get_machine("laptop-4c")).machine
            == "laptop-4c"
        )
