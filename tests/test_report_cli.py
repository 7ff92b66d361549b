"""End-to-end run store recording + `repro report` replay gates.

The acceptance bar: two `run_fleet` calls with different policies diff
cleanly, and stored runs replay their tables **byte-identically with
zero simulator invocations** — every simulated-execution entry point is
booby-trapped during replay, the warm-cache gate pattern one layer up.
The fleet smoke benchmark's store replay check and its wall-time bounds
(the gates behind ``make report`` and the fleet suites) are pinned here
too.
"""

from __future__ import annotations

import json
import math

import pytest

from benchmarks.fleet_bench import (
    SMOKE_WARM_BOUND_SECONDS,
    STREAM_WARM_BOUND_SECONDS,
    XXL_COLD_BOUND_SECONDS,
    check_gates,
    check_stream_gates,
    check_xxl_gates,
    run_fleet_benchmark,
)
from repro.api import run_fleet
from repro.execsim.simulator import StepSimulator
from repro.execsim.standalone import StandaloneRunner
from repro.fleet.simulator import OVERHEAD_KEYS, FleetSimulator
from repro.store import RunStore, store as store_module
from repro.store.cli import main as report_main
from repro.store.reporting import diff_runs, fleet_comparison_table, replay_report
from repro.sweep import SweepCache, SweepExecutor

FLEET = ("desktop-8c", "laptop-4c")


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    """One store holding two real `run_fleet` runs differing only in policy."""
    root = tmp_path_factory.mktemp("run_store")
    store = RunStore(root)
    executor = SweepExecutor("serial", cache=SweepCache(enabled=False))
    outcomes = {}
    for policy in ("first-fit", "interference-aware"):
        outcomes[policy] = run_fleet(
            machines=FLEET,
            policy=policy,
            num_jobs=6,
            arrival_seed=3,
            executor=executor,
            store=store,
        )
    return store, outcomes


def _trap_simulators(monkeypatch):
    """Booby-trap every simulated-execution entry point."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("simulator invoked during a stored-run replay")

    monkeypatch.setattr(FleetSimulator, "run", boom)
    monkeypatch.setattr(StepSimulator, "run_step", boom)
    for method in ("run", "measure", "sweep", "corun", "sweep_many"):
        monkeypatch.setattr(StandaloneRunner, method, boom)


class TestRunFleetRecording:
    def test_outcomes_carry_run_ids(self, fleet_store):
        store, outcomes = fleet_store
        ids = {o.run_id for o in outcomes.values()}
        assert None not in ids and len(ids) == 2
        for outcome in outcomes.values():
            record = store.get(outcome.run_id)
            assert record.kind == "fleet"
            assert record.digest_excludes == OVERHEAD_KEYS
            assert record.payload["makespan"] == outcome.makespan

    def test_config_names_the_policy(self, fleet_store):
        store, outcomes = fleet_store
        for policy, outcome in outcomes.items():
            config = store.get(outcome.run_id).config
            assert config["policy"] == policy
            assert config["machines"] == list(FLEET)
            assert config["arrivals"]["seed"] == 3

    def test_diff_isolates_the_policy_change(self, fleet_store):
        store, outcomes = fleet_store
        a = store.get(outcomes["first-fit"].run_id)
        b = store.get(outcomes["interference-aware"].run_id)
        diff = diff_runs(a, b)
        assert diff["config_delta"]["policy"] == {
            "a": "first-fit",
            "b": "interference-aware",
        }
        assert set(diff["config_delta"]) == {"policy"}
        # Overhead keys are digest-excluded noise and must not show up.
        assert not set(diff["metric_delta"]) & set(OVERHEAD_KEYS)


class TestReportCli:
    def test_list(self, fleet_store, capsys):
        store, outcomes = fleet_store
        assert report_main(["list", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        for outcome in outcomes.values():
            assert outcome.run_id[:12] in out

    def test_list_json(self, fleet_store, capsys):
        store, _ = fleet_store
        assert report_main(["list", "--json", "--store", str(store.root)]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert {entry["kind"] for entry in listed} == {"fleet"}

    def test_show_with_payload(self, fleet_store, capsys):
        store, outcomes = fleet_store
        run_id = outcomes["first-fit"].run_id
        code = report_main(
            ["show", run_id[:8], "--payload", "--store", str(store.root)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert run_id in out and "first-fit" in out and "machine_reports" in out

    def test_diff(self, fleet_store, capsys):
        store, outcomes = fleet_store
        a, b = (outcomes[p].run_id for p in ("first-fit", "interference-aware"))
        assert report_main(["diff", a[:8], b[:8], "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "policy" in out and "interference-aware" in out

    def test_unknown_prefix_is_an_error(self, fleet_store, capsys):
        store, _ = fleet_store
        assert report_main(["show", "feed", "--store", str(store.root)]) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_table_replays_without_simulating(self, fleet_store, capsys, monkeypatch):
        store, outcomes = fleet_store
        _trap_simulators(monkeypatch)
        a, b = (outcomes[p].run_id for p in ("first-fit", "interference-aware"))
        assert report_main(["table", a[:8], b[:8], "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "replayed, not re-simulated" in out
        assert "first-fit" in out and "interference-aware" in out

    def test_table_matches_library_rendering(self, fleet_store, monkeypatch):
        store, outcomes = fleet_store
        _trap_simulators(monkeypatch)
        records = [store.get(o.run_id) for o in outcomes.values()]
        table = fleet_comparison_table(records)
        assert f"{outcomes['first-fit'].makespan:.2f}" in table


class TestExperimentReplay:
    def test_fleet_experiment_replays_byte_identically(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import fleet_corun

        store = RunStore(tmp_path / "store")
        monkeypatch.setattr(store_module, "_default_store", store)
        executor = SweepExecutor("serial", cache=SweepCache(enabled=False))
        result = fleet_corun.run(
            machines=FLEET, num_jobs=5, arrival_seed=2, executor=executor
        )
        live_report = fleet_corun.format_report(result)

        record = store.latest(kind="experiment", name="fleet")
        assert record is not None

        _trap_simulators(monkeypatch)
        assert replay_report(record) == live_report
        code = report_main(["table", record.run_id[:8], "--store", str(store.root)])
        assert code == 0
        assert capsys.readouterr().out.rstrip("\n") == live_report.rstrip("\n")


def _smoke_report(*, warm_seconds: float = 0.0, replayed: bool = True) -> dict:
    """A passing smoke-suite report but for the two given readings."""
    return {
        "deterministic": True,
        "compression_equivalent": True,
        "interference_beats_first_fit": True,
        "policies": {
            "first-fit": {"warm_seconds": 0.0},
            "interference-aware": {"warm_seconds": warm_seconds},
        },
        "store_replay_identical": {"first-fit": True, "interference-aware": replayed},
    }


def _stream_report(warm_seconds: float) -> dict:
    return {
        "overload": {
            "depth_bounded": True,
            "accounting_exact": True,
            "shed_nonzero": True,
            "rerun_identical": True,
            "warm_seconds": warm_seconds,
        },
        "equivalence": {"fault-free": True, "faulted": True},
        "million_smoke": {"accounting_exact": True},
    }


def _xxl_report(cold_seconds: float) -> dict:
    return {"identical": True, "engine": {"cold_seconds": cold_seconds}}


class TestBenchGates:
    def test_smoke_runs_are_recorded_and_replay(self, tmp_path):
        store = RunStore(tmp_path / "store")
        report = run_fleet_benchmark(num_jobs=6, arrival_seed=3, jobs=1, store=store)
        runs = store.list_runs()
        assert [record.kind for record in runs] == ["fleet"] * 3
        assert {record.name for record in runs} == {
            f"bench-smoke/{policy}" for policy in report["policies"]
        }
        assert report["store_replay_identical"] == dict.fromkeys(report["policies"], True)

    def test_a_run_that_does_not_replay_fails_the_smoke_gates(self):
        assert check_gates(_smoke_report()) == []
        failures = check_gates(_smoke_report(replayed=False))
        assert len(failures) == 1 and "interference-aware" in failures[0]

    @pytest.mark.parametrize(
        "check, make_report, bound",
        [
            (
                check_gates,
                lambda seconds: _smoke_report(warm_seconds=seconds),
                SMOKE_WARM_BOUND_SECONDS,
            ),
            (check_stream_gates, _stream_report, STREAM_WARM_BOUND_SECONDS),
            (check_xxl_gates, _xxl_report, XXL_COLD_BOUND_SECONDS),
        ],
        ids=["smoke", "stream", "xxl"],
    )
    def test_wall_time_bound_is_inclusive(self, check, make_report, bound):
        assert check(make_report(bound)) == []
        failures = check(make_report(math.nextafter(bound, math.inf)))
        assert len(failures) == 1 and "bound" in failures[0]
