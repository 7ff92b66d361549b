"""Kill-and-resume gates: an interrupted run, resumed, must produce a
store digest byte-identical to its uninterrupted twin — across
policies, faults and admission, including chained interrupts."""

import dataclasses
import json
import pickle
from unittest import mock

import pytest
from reference_fleet import ReferenceFleetSimulator
from test_fleet_compression import (
    MACHINES,
    SYN_A,
    SYN_B,
    SYN_C,
    calendar_trace,
    deterministic_dict,
    machine_pair_estimator,
)

from repro.api import run_fleet
from repro.fleet import FleetSimulator, Job
from repro.resilience import RunInterrupted, list_checkpoint_runs
from repro.resilience import checkpoint as checkpoint_module
from repro.resilience.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    Checkpointer,
    checkpoint_dir,
)
from repro.resilience.resume import resume_fleet
from repro.store import RunStore


@pytest.fixture(scope="module", autouse=True)
def shared_estimate_cache(tmp_path_factory):
    """One on-disk estimate cache for every run in this module.

    The matrix replays the same workload dozens of times; without a
    shared cache each run_fleet call recomputes the whole co-run
    estimate table cold, which dominates the module's wall time.  The
    cache is value-identical (estimates are pure functions), so digests
    are unaffected — the determinism assertions below prove it.
    """
    from repro.sweep import executor as sweep_executor

    previous = sweep_executor._default_executor
    sweep_executor.configure(
        cache_dir=tmp_path_factory.mktemp("estimates"), cache_enabled=True
    )
    yield
    sweep_executor._default_executor = previous


#: A small-but-busy stream: faults + admission shedding keep every
#: recovery path (requeue, reject, deadline shed) inside the window.
WORKLOAD = dict(
    num_jobs=100,
    arrival_seed=11,
    mean_interarrival=0.05,
    faults="rolling-churn",
    queue_limit=25,
    deadline=35.0,
)

#: Long jobs arriving slowly on three machines: snapshots fall with an
#: empty queue while machines are mid multi-round segment, so a resume
#: must rebuild the fast loop's boundary calendar from the restored
#: machines to flush their remaining rounds in order.
MID_SEGMENT = dict(
    num_jobs=40,
    arrival_seed=1,
    min_steps=40,
    max_steps=120,
    mean_interarrival=30.0,
    machines=("desktop-8c", "desktop-8c", "arm-server-64c"),
)

POLICIES = ("first-fit", "interference-aware", "load-balanced")


def run_pair(tmp_path, *, policy, interrupt_fraction=0.5, workload=WORKLOAD, inspect=None):
    """Baseline run, interrupted twin, resumed — returns both digests.

    ``inspect`` is called with the newest snapshot's loop state before
    the resume.
    """
    store = RunStore(tmp_path / "store")
    root = tmp_path / "ck"
    kw = dict(workload, policy=policy, store=store)
    baseline = run_fleet(**kw)
    want = store.load(baseline.run_id).digest
    interrupt_at = max(1, int(baseline.events_processed * interrupt_fraction))
    with pytest.raises(RunInterrupted) as excinfo:
        run_fleet(
            **kw,
            checkpoint={"interval": 50, "root": root, "interrupt_after": interrupt_at},
        )
    assert excinfo.value.run_id == baseline.run_id
    if inspect is not None:
        inspect(Checkpointer.open(baseline.run_id, root=root)[1]["state"])
    resumed = resume_fleet(baseline.run_id, root=root, store=store)
    assert resumed.run_id == baseline.run_id
    return want, store.load(resumed.run_id).digest


# The ids still name the loop: the reference loop used to checkpoint too.
@pytest.mark.parametrize("policy", POLICIES, ids=[f"{p}-compressed" for p in POLICIES])
def test_resume_is_byte_identical(tmp_path, policy):
    want, got = run_pair(tmp_path, policy=policy)
    assert got == want


@pytest.mark.parametrize("interrupt_fraction", [0.25, 0.5, 0.75])
def test_resume_mid_segment_with_empty_queue(tmp_path, interrupt_fraction):
    def mid_segment(state):
        assert not state["pending"]
        assert any(m.round_active and m.seg_rounds_left > 1 for m in state["machines"])

    want, got = run_pair(
        tmp_path,
        policy="first-fit",
        interrupt_fraction=interrupt_fraction,
        workload=MID_SEGMENT,
        inspect=mid_segment,
    )
    assert got == want


#: Checkpoint modes of retired loops: the manifest config each wrote, and
#: the extra loop state its snapshots held.
RETIRED_LOOPS = {
    "sharded": (
        {"sharding": {"shards": 2, "backend": "thread"}},
        dict(momentum=0, shard_members=[[0, 2, 4], [1, 3]], shard_heaps=[[], []]),
    ),
    "reference": ({"compressed": False}, {}),
}


@pytest.mark.parametrize("mode", list(RETIRED_LOOPS))
def test_sharded_snapshot_is_refused(tmp_path, mode):
    """A run checkpointed by a retired loop — the sharded engine, or the
    reference loop that ``compressed=False`` used to select — does not
    resume: its manifest config is ignored and its snapshots fail the
    loop-mode check."""
    config, extra_state = RETIRED_LOOPS[mode]
    store = RunStore(tmp_path / "store")
    root = tmp_path / "ck"
    kw = dict(WORKLOAD, policy="first-fit", store=store)
    baseline = run_fleet(**kw)
    with pytest.raises(RunInterrupted):
        run_fleet(
            **kw,
            checkpoint={
                "interval": 50,
                "root": root,
                "interrupt_after": baseline.events_processed // 2,
            },
        )
    # Rewrite the checkpoint the way the retired loop wrote its own.
    directory = checkpoint_dir(baseline.run_id, root)
    manifest = directory / "manifest.json"
    body = json.loads(manifest.read_text())
    body["manifest"]["config"].update(config)
    manifest.write_text(json.dumps(body))
    for path in directory.glob("ck-*.pkl"):
        payload = pickle.loads(path.read_bytes())
        payload["state"].update(mode=mode, **extra_state)
        path.write_bytes(pickle.dumps(payload))
    with pytest.raises(CheckpointError, match=f"'{mode}' loop"):
        resume_fleet(baseline.run_id, root=root, store=store)


def test_run_id_is_pinned(tmp_path):
    """The fleet config still records ``"compressed": True``, so run ids
    and checkpoint manifests of earlier runs keep resolving."""
    store = RunStore(tmp_path)
    outcome = run_fleet(
        num_jobs=4, machines=("desktop-8c", "laptop-4c"), policy="first-fit", store=store
    )
    assert outcome.run_id == (
        "d2d31538eba9adc9ad234516dd850ad2ae87cd55f576f6dea608911acffa0630"
    )
    assert store.get(outcome.run_id).config["compressed"] is True


def test_version_two_snapshot_is_refused(tmp_path):
    """Snapshots of schema 2, written before the compressed loop's
    segment fields changed, do not resume."""
    store = RunStore(tmp_path / "store")
    root = tmp_path / "ck"
    kw = dict(WORKLOAD, policy="first-fit", store=store)
    baseline = run_fleet(**kw)
    with pytest.raises(RunInterrupted):
        run_fleet(
            **kw,
            checkpoint={
                "interval": 50,
                "root": root,
                "interrupt_after": baseline.events_processed // 2,
            },
        )
    for path in checkpoint_dir(baseline.run_id, root).glob("ck-*.pkl"):
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 2
        path.write_bytes(pickle.dumps(payload))
    with pytest.raises(CheckpointError, match="incompatible"):
        resume_fleet(baseline.run_id, root=root, store=store)


@pytest.mark.parametrize("interrupt_fraction", [0.1, 0.3, 0.55, 0.8])
def test_resume_restores_the_fleet_tracker(tmp_path, interrupt_fraction):
    """Store digests exclude the interference histories, so compare the
    fleet tracker itself: long co-running jobs whose slowdowns differ per
    machine, a snapshot every 5 events, interrupted and resumed."""
    jobs = calendar_trace(24, seed=11, min_steps=150, max_steps=370, mean_interarrival=30.0)

    def simulator():
        return FleetSimulator(
            MACHINES, policy="first-fit", estimator=machine_pair_estimator(MACHINES)
        )

    baseline = simulator()
    result = baseline.run(jobs, prewarm=False)
    want = (deterministic_dict(result), baseline.tracker.snapshot())
    config = CheckpointConfig(
        interval=5,
        root=tmp_path,
        interrupt_after=int(result.events_processed * interrupt_fraction),
    )
    with pytest.raises(RunInterrupted):
        simulator().run(
            jobs, prewarm=False, checkpoint=config, run_id="tracker", manifest={}
        )
    checkpointer, payload = Checkpointer.open(
        "tracker", config=CheckpointConfig(interval=5, root=tmp_path)
    )
    resumed = simulator()
    result = resumed.run(
        jobs, prewarm=False, checkpoint=checkpointer, resume_from=payload
    )
    assert (deterministic_dict(result), resumed.tracker.snapshot()) == want


#: Two jobs co-run on m0 from t=1.0 in a 300-round segment of 1.95 s
#: rounds (a float the running sums round); later arrivals sync the
#: fleet, so the segment is flushed piecewise before and after a resume.
CORUN_MACHINES = ["desktop-8c", "laptop-4c"]
CORUN_JOBS = [
    Job(name="j0", workload=SYN_A, num_steps=400, arrival_time=0.0),
    Job(name="j1", workload=SYN_B, num_steps=300, arrival_time=0.0),
    Job(name="j2", workload=SYN_C, num_steps=200, arrival_time=40.3),
    Job(name="j3", workload=SYN_A, num_steps=150, arrival_time=95.1),
    Job(name="j4", workload=SYN_B, num_steps=100, arrival_time=170.7),
]


@pytest.mark.parametrize("interrupt_after", [4, 5, 6])
def test_resume_mid_corun_segment_keeps_busy_time_bits(tmp_path, interrupt_after):
    """A run resumed from a snapshot taken while a co-run machine is
    rounds into a multi-round segment folds the rest of that segment's
    rounds onto the restored ``busy_time``: the resumed run's
    per-machine ``busy_time`` and ``utilization`` equal, bit for bit,
    the uninterrupted run's and the reference loop's."""

    def simulator(simulator_cls=FleetSimulator):
        return simulator_cls(
            CORUN_MACHINES,
            policy="first-fit",
            estimator=machine_pair_estimator(CORUN_MACHINES),
            max_corun=2,
        )

    def bits(result):
        return [
            (m.busy_time.hex(), m.utilization.hex()) for m in result.machine_reports
        ]

    reference = simulator(ReferenceFleetSimulator).run(CORUN_JOBS, prewarm=False)
    baseline = simulator().run(CORUN_JOBS, prewarm=False)
    config = CheckpointConfig(interval=1, root=tmp_path)
    with mock.patch.object(checkpoint_module, "_CAN_FORK", False):
        with pytest.raises(RunInterrupted):
            simulator().run(
                CORUN_JOBS,
                prewarm=False,
                checkpoint=dataclasses.replace(config, interrupt_after=interrupt_after),
                run_id="corun",
                manifest={},
            )
        checkpointer, payload = Checkpointer.open("corun", config=config)
        assert any(
            len(m.residents) > 1
            and m.seg_rounds_left > 1
            and len(m.seg_bounds) - m.seg_rounds_left >= 3
            for m in payload["state"]["machines"]
        )
        resumed = simulator().run(
            CORUN_JOBS, prewarm=False, checkpoint=checkpointer, resume_from=payload
        )
    assert bits(resumed) == bits(baseline) == bits(reference)
    assert deterministic_dict(resumed) == deterministic_dict(baseline)
    assert deterministic_dict(baseline) == deterministic_dict(reference)


def test_double_interrupt_chained_resume(tmp_path):
    """Interrupt at 1/3, resume, interrupt again at 2/3, resume to the end."""
    store = RunStore(tmp_path / "store")
    root = tmp_path / "ck"
    kw = dict(WORKLOAD, policy="interference-aware", store=store)
    baseline = run_fleet(**kw)
    want = store.load(baseline.run_id).digest
    total = baseline.events_processed
    with pytest.raises(RunInterrupted):
        run_fleet(
            **kw,
            checkpoint={"interval": 40, "root": root, "interrupt_after": total // 3},
        )
    with pytest.raises(RunInterrupted):
        resume_fleet(
            baseline.run_id,
            root=root,
            store=store,
            checkpoint={"interval": 40, "interrupt_after": 2 * total // 3},
        )
    resumed = resume_fleet(baseline.run_id, root=root, store=store)
    assert store.load(resumed.run_id).digest == want


def test_completed_run_drops_its_checkpoints(tmp_path):
    root = tmp_path / "ck"
    run_fleet(
        num_jobs=40,
        arrival_seed=3,
        checkpoint={"interval": 25, "root": root},
    )
    assert list_checkpoint_runs(root) == ()


def test_resume_unknown_run_fails_cleanly(tmp_path):
    with pytest.raises(KeyError):
        resume_fleet("feedface", root=tmp_path / "empty")


class TestResumeCLI:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        code = main(["resume", *argv])
        return code, capsys.readouterr().out

    def test_lists_resumable_runs(self, tmp_path, capsys):
        root = tmp_path / "ck"
        kw = dict(WORKLOAD, policy="first-fit", store=RunStore(tmp_path / "s"))
        baseline = run_fleet(**kw)
        with pytest.raises(RunInterrupted):
            run_fleet(
                **kw,
                checkpoint={
                    "interval": 50,
                    "root": root,
                    "interrupt_after": baseline.events_processed // 2,
                },
            )
        code, out = self.run_cli(["--root", str(root)], capsys)
        assert code == 0
        assert baseline.run_id in out

        code, out = self.run_cli(
            [baseline.run_id[:8], "--root", str(root), "--store", str(tmp_path / "s")],
            capsys,
        )
        assert code == 0
        assert baseline.run_id[:12] in out
        # The run completed: nothing left to resume.
        assert list_checkpoint_runs(root) == ()

    def test_unknown_run_exits_2(self, tmp_path, capsys):
        code, _ = self.run_cli(
            ["feedface", "--root", str(tmp_path / "none")], capsys
        )
        assert code == 2
