"""Unit tests for repro.resilience.checkpoint: snapshot write/read,
self-contained snapshots, retention, fallback, the forked writer, and
signal handling."""

import os
import pickle
import shutil
import signal
import threading

import pytest

from repro.resilience import checkpoint as checkpoint_module
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointConfig,
    CheckpointError,
    Checkpointer,
    GracefulInterrupt,
    checkpoint_dir,
    list_checkpoint_runs,
    resolve_checkpoint,
    resolve_checkpoint_run,
)

RUN = "abcd1234efgh5678"


@pytest.fixture(autouse=True)
def synchronous_writes(request, monkeypatch):
    """Write snapshots in-process (a deterministic file layout), except
    in the forked-writer tests."""
    if request.cls is not TestBackgroundWriter:
        monkeypatch.setattr(checkpoint_module, "_CAN_FORK", False)


def make(tmp_path, **kw):
    kw.setdefault("root", tmp_path)
    return Checkpointer(RUN, CheckpointConfig(**kw), manifest={"config": {}})


def state_at(n):
    return {
        "cursor": n,
        "placements": [("job", i) for i in range(n)],
        "completions": [("done", i) for i in range(n // 2)],
    }


class TestCheckpointConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval=0)
        with pytest.raises(ValueError):
            CheckpointConfig(keep=0)
        with pytest.raises(ValueError):
            CheckpointConfig(interrupt_after=-1)

    def test_resolve_checkpoint_coercions(self, tmp_path):
        assert resolve_checkpoint(None, run_id=RUN) is None
        assert resolve_checkpoint(False, run_id=RUN) is None
        ck = resolve_checkpoint(True, run_id=RUN)
        assert isinstance(ck, Checkpointer)
        assert resolve_checkpoint(128, run_id=RUN).config.interval == 128
        via_dict = resolve_checkpoint(
            {"interval": 7, "root": tmp_path}, run_id=RUN
        )
        assert via_dict.config.interval == 7
        assert resolve_checkpoint(via_dict, run_id=RUN) is via_dict
        with pytest.raises(TypeError):
            resolve_checkpoint(3.5, run_id=RUN)


class TestSaveAndOpen:
    def test_round_trip_restores_rows_and_state(self, tmp_path):
        ck = make(tmp_path)
        ck.save(100, state_at(10))
        ck.save(200, state_at(25))

        opened, payload = Checkpointer.open(RUN, root=tmp_path)
        assert payload["events"] == 200
        assert payload["state"]["cursor"] == 25
        assert payload["state"]["placements"] == [("job", i) for i in range(25)]
        assert payload["state"]["completions"] == [("done", i) for i in range(12)]
        # The continued sequence picks up seq and the event cursor.
        assert opened.seq == 2
        assert opened._last_events == 200

    def test_prune_keeps_newest_snapshots(self, tmp_path):
        ck = make(tmp_path, keep=2)
        for n in range(1, 6):
            ck.save(n * 100, state_at(n * 4))
        directory = checkpoint_dir(RUN, tmp_path)
        snapshots = sorted(p.name for p in directory.glob("ck-*.pkl"))
        assert snapshots == ["ck-00000004.pkl", "ck-00000005.pkl"]

    def test_a_lost_save_does_not_strand_later_snapshots(self, tmp_path):
        ck = make(tmp_path, keep=2)
        directory = checkpoint_dir(RUN, tmp_path)
        for n in range(1, 5):
            ck.save(n * 100, state_at(n * 10))
            if n == 2:
                for path in directory.glob("*-00000002.pkl"):
                    path.unlink()
        _, payload = Checkpointer.open(RUN, root=tmp_path)
        assert payload["seq"] == 4
        assert payload["state"]["placements"] == [("job", i) for i in range(40)]

    def test_newest_snapshot_alone_restores_the_full_state(self, tmp_path):
        ck = make(tmp_path / "old", keep=3)
        for n in range(1, 4):
            ck.save(n * 100, state_at(n * 10))
        source = checkpoint_dir(RUN, tmp_path / "old")
        target = checkpoint_dir(RUN, tmp_path / "new")
        target.mkdir(parents=True)
        newest = sorted(source.glob("ck-*.pkl"))[-1]
        for path in (source / "manifest.json", newest):
            shutil.copy(path, target / path.name)
        _, payload = Checkpointer.open(RUN, root=tmp_path / "new")
        assert payload["events"] == 300
        assert payload["state"] == state_at(30)

    def test_torn_newest_snapshot_falls_back(self, tmp_path):
        ck = make(tmp_path)
        ck.save(100, state_at(10))
        ck.save(200, state_at(25))
        directory = checkpoint_dir(RUN, tmp_path)
        newest = sorted(directory.glob("ck-*.pkl"))[-1]
        newest.write_bytes(b"\xde\xad\xbe\xef")
        _, payload = Checkpointer.open(RUN, root=tmp_path)
        assert payload["events"] == 100
        assert payload["state"]["placements"] == [("job", i) for i in range(10)]

    def test_all_snapshots_torn_raises(self, tmp_path):
        ck = make(tmp_path)
        ck.save(100, state_at(10))
        for path in checkpoint_dir(RUN, tmp_path).glob("ck-*.pkl"):
            path.write_bytes(b"nope")
        with pytest.raises(CheckpointError):
            Checkpointer.open(RUN, root=tmp_path)

    def test_incompatible_schema_version_is_skipped(self, tmp_path):
        ck = make(tmp_path)
        path = ck.save(100, state_at(10))
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == CHECKPOINT_SCHEMA_VERSION
        # Version 3 kept its rows outside the snapshot file.
        for version in (3, CHECKPOINT_SCHEMA_VERSION + 1):
            payload["version"] = version
            path.write_bytes(pickle.dumps(payload))
            with pytest.raises(CheckpointError, match="incompatible"):
                Checkpointer.open(RUN, root=tmp_path)

    def test_complete_removes_directory(self, tmp_path):
        ck = make(tmp_path)
        ck.save(100, state_at(10))
        assert checkpoint_dir(RUN, tmp_path).is_dir()
        ck.complete()
        assert not checkpoint_dir(RUN, tmp_path).exists()

    def test_keep_on_success_preserves_snapshots(self, tmp_path):
        ck = make(tmp_path, keep_on_success=True)
        ck.save(100, state_at(10))
        ck.complete()
        assert checkpoint_dir(RUN, tmp_path).is_dir()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestBackgroundWriter:
    def test_forked_saves_land_and_round_trip(self, tmp_path):
        ck = make(tmp_path)
        ck.save(100, state_at(10))
        assert ck._writer is not None
        ck.save(200, state_at(25))
        ck._join_writer()
        assert ck._writer is None
        _, payload = Checkpointer.open(RUN, root=tmp_path)
        assert payload["events"] == 200
        assert payload["state"]["placements"] == [("job", i) for i in range(25)]

    def test_final_save_is_synchronous(self, tmp_path):
        ck = make(tmp_path)
        ck.save(100, state_at(10))
        path = ck.save(200, state_at(20), wait=True)
        # No writer in flight, and the snapshot is durably readable now.
        assert ck._writer is None
        assert pickle.loads(path.read_bytes())["events"] == 200

    def test_at_most_one_writer_in_flight(self, tmp_path):
        ck = make(tmp_path, keep=5)
        writers = []
        for n in range(1, 6):
            ck.save(n * 100, state_at(n * 10))
            writers.append(ck._writer)
        assert len(set(writers)) == 5
        # Each save waited for its predecessor: only the newest writer
        # can still be running, every earlier one is already reaped.
        for pid in writers[:-1]:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        ck.complete()
        assert ck._writer is None


class TestResolution:
    def test_listing_and_prefix_resolution(self, tmp_path):
        make(tmp_path).save(1, state_at(1))
        other = "zzzz9999aaaa0000"
        Checkpointer(other, CheckpointConfig(root=tmp_path)).save(1, state_at(1))
        assert set(list_checkpoint_runs(tmp_path)) == {RUN, other}
        assert resolve_checkpoint_run(RUN[:6], tmp_path) == RUN
        with pytest.raises(KeyError):
            resolve_checkpoint_run("ab", tmp_path)  # too short
        with pytest.raises(KeyError):
            resolve_checkpoint_run("ffff", tmp_path)  # no match

    def test_ambiguous_prefix(self, tmp_path):
        twin = RUN[:8] + "deadbeef"
        for run in (RUN, twin):
            Checkpointer(run, CheckpointConfig(root=tmp_path)).save(1, state_at(1))
        with pytest.raises(KeyError, match="ambiguous"):
            resolve_checkpoint_run(RUN[:6], tmp_path)


class TestGracefulInterrupt:
    def test_first_signal_requests_stop(self, tmp_path):
        ck = make(tmp_path)
        with GracefulInterrupt(ck):
            os.kill(os.getpid(), signal.SIGINT)
            # The handler must swallow the signal (no KeyboardInterrupt)
            # and flag the checkpointer instead.
            assert ck.stop_requested
            assert ck._trigger == 0
        # Previous disposition restored on exit.
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_noop_off_main_thread(self, tmp_path):
        ck = make(tmp_path)
        seen = {}

        def target():
            with GracefulInterrupt(ck) as guard:
                seen["installed"] = bool(guard._previous)

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert seen == {"installed": False}
