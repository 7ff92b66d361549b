"""Checkpoint/resume for fleet runs.

A :class:`Checkpointer` snapshots a running fleet simulation's **full
loop state** — central queue, machine states, event heap, the fleet
interference tracker, the arrival-process cursor, fault and admission
bookkeeping — every ``interval`` processed events, into an atomic
content-addressed directory keyed by the run's store identity
(:func:`repro.store.record.run_key` of the recorded config).  A killed
run restarts from its latest snapshot via
:func:`repro.resilience.resume.resume_fleet` (or ``python -m repro
resume <run_id>``) and produces a ``to_dict(include_overhead=False)``
digest byte-identical to the uninterrupted run.

Why one pickle per snapshot: the compressed loop's per-machine
``seg_records`` hold *live references* into the machine-local and
fleet-wide interference history deques; pickling machines, tracker and
heap as a single payload preserves that sharing exactly, so a resumed
segment keeps extending the very deques the restored tracker holds.
The loop's queue of fleet-history runs is deliberately not part of the
payload: it is keyed by the ``id()`` of those deques, which pickling
does not preserve, so the capture first brings every machine to the
snapshot instant and merges the queue into the deques.

Each snapshot is **self-contained**: ``ck-<seq>.pkl`` holds the whole
captured state, result rows included, so the newest readable snapshot
plus the manifest restores the run on its own, and a lost or torn save
strands no later one.  Periodic saves are pickled and written by a
forked child where ``os.fork`` exists (see :meth:`Checkpointer.save`);
the final save before :class:`RunInterrupted` is synchronous.

What is deliberately *not* captured:

* the estimator memo and stats — pure caches; a resumed run recomputes
  misses (overhead-only counters are digest-excluded anyway);
* the policy object — rebuilt from its registered name against the
  restored tracker (policy memos are pure per-run caches too);
* the arrival RNG — an arrival process regenerates deterministically
  from its spec, and the snapshot's ``arrivals_pulled`` cursor tells
  the resume how many jobs to drop from the fresh stream.

Write discipline matches the run store: ``mkstemp`` + ``os.replace``
per snapshot, newest-``keep`` retention, and a JSON manifest carrying
the run's recorded config so a resume can rebuild the simulator without
any other state.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Environment override for the checkpoint root directory.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"
#: Default checkpoint root (relative to the working directory), chosen
#: to sit beside the run store's ``.run_store``.
DEFAULT_CHECKPOINT_DIR = ".checkpoints"
#: Bump when the snapshot payload layout changes: a resume refuses a
#: snapshot written by an incompatible schema instead of deserialising
#: garbage into a live event loop.  Version 3 snapshots are refused:
#: their result rows lived in separate delta files.
CHECKPOINT_SCHEMA_VERSION = 4

#: Whether periodic saves can go to a forked writer.  Tests patch it to
#: ``False`` for synchronous writes.
_CAN_FORK = hasattr(os, "fork")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or understood."""


class RunInterrupted(RuntimeError):
    """A checkpointed run stopped at a sync point (signal or plan).

    Raised *after* the final snapshot is flushed, so the run is always
    resumable from the exact interruption point.
    """

    def __init__(self, run_id: str, seq: int, events: int) -> None:
        super().__init__(
            f"run {run_id} interrupted at checkpoint {seq} "
            f"({events} events processed); resume with "
            f"`python -m repro resume {run_id}`"
        )
        self.run_id = run_id
        self.seq = seq
        self.events = events


def checkpoint_root(root: "str | Path | None" = None) -> Path:
    """Resolve the checkpoint root: explicit > $REPRO_CHECKPOINT_DIR > default."""
    if root is not None:
        return Path(root)
    return Path(os.environ.get(CHECKPOINT_DIR_ENV) or DEFAULT_CHECKPOINT_DIR)


def checkpoint_dir(run_id: str, root: "str | Path | None" = None) -> Path:
    """The snapshot directory of one run (two-level, like the run store)."""
    base = checkpoint_root(root)
    return base / run_id[:2] / run_id


def list_checkpoint_runs(root: "str | Path | None" = None) -> tuple[str, ...]:
    """Run ids with at least one snapshot under ``root``, sorted."""
    base = checkpoint_root(root)
    if not base.is_dir():
        return ()
    found = []
    for shard in sorted(p for p in base.iterdir() if p.is_dir()):
        for run_dir in sorted(p for p in shard.iterdir() if p.is_dir()):
            if any(run_dir.glob("ck-*.pkl")):
                found.append(run_dir.name)
    return tuple(found)


def resolve_checkpoint_run(prefix: str, root: "str | Path | None" = None) -> str:
    """Expand a run-id prefix (>= 4 chars) against the checkpoint root."""
    runs = list_checkpoint_runs(root)
    if prefix in runs:
        return prefix
    if len(prefix) < 4:
        raise KeyError(f"run id prefix too short (need >= 4 chars): {prefix!r}")
    matches = [run for run in runs if run.startswith(prefix)]
    if not matches:
        raise KeyError(f"no checkpointed run matches {prefix!r}")
    if len(matches) > 1:
        raise KeyError(
            f"ambiguous run id prefix {prefix!r}: " + ", ".join(m[:12] for m in matches)
        )
    return matches[0]


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing knobs for one fleet run.

    ``interval`` is in *processed events* (the loops' sync points);
    ``keep`` bounds retained snapshots (newest wins); ``interrupt_after``
    deterministically interrupts the run once that many events have been
    processed — the chaos harness's simulated mid-run SIGTERM, which is
    what lets tests and benches kill a run at an arbitrary-but-exact
    checkpoint without real signals or subprocesses.
    """

    interval: int = 256
    root: "str | Path | None" = None
    keep: int = 2
    keep_on_success: bool = False
    interrupt_after: int | None = None

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("checkpoint interval must be at least 1 event")
        if self.keep < 1:
            raise ValueError("keep must retain at least 1 snapshot")
        if self.interrupt_after is not None and self.interrupt_after < 0:
            raise ValueError("interrupt_after must be >= 0")


def resolve_checkpoint(
    value: "bool | int | dict | CheckpointConfig | Checkpointer | None",
    *,
    run_id: str,
    manifest: dict | None = None,
) -> "Checkpointer | None":
    """Coerce a user-facing ``checkpoint=`` spec into a :class:`Checkpointer`.

    ``True`` means defaults, an int is the event interval, a dict maps
    to :class:`CheckpointConfig` fields, and ready config/checkpointer
    values pass through.  ``None``/``False`` disable checkpointing.
    """
    if value is None or value is False:
        return None
    if isinstance(value, Checkpointer):
        return value
    if value is True:
        config = CheckpointConfig()
    elif isinstance(value, CheckpointConfig):
        config = value
    elif isinstance(value, int):
        config = CheckpointConfig(interval=value)
    elif isinstance(value, dict):
        config = CheckpointConfig(**value)
    else:
        raise TypeError(
            f"cannot build a checkpoint config from {type(value).__name__}"
        )
    return Checkpointer(run_id, config, manifest=manifest)


def _atomic_write(path: Path, data: bytes) -> None:
    """mkstemp + os.replace, the store's crash-safe write discipline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_snapshot(path: Path, payload: dict) -> None:
    _atomic_write(path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


class Checkpointer:
    """Periodic atomic snapshots of one run's loop state.

    The simulator loops call :meth:`tick` at the top of every event
    iteration with the current event count and a zero-cost ``capture``
    closure; the checkpointer decides whether to snapshot, and raises
    :class:`RunInterrupted` (after a final snapshot) when a stop was
    requested — by a signal handler via :meth:`request_stop`, or by the
    config's deterministic ``interrupt_after``.
    """

    def __init__(
        self,
        run_id: str,
        config: CheckpointConfig | None = None,
        *,
        manifest: dict | None = None,
    ) -> None:
        self.run_id = run_id
        self.config = config or CheckpointConfig()
        #: JSON-ready run description (the recorded store config wrapped
        #: by the caller); written once beside the snapshots so a resume
        #: can rebuild the simulator from the directory alone.
        self.manifest = manifest
        self.seq = 0
        self.saves = 0
        self._last_events = 0
        self._stop = False
        self._manifest_written = False
        #: Pid of the forked writer still in flight (see :meth:`save`).
        self._writer: int | None = None
        self._dir = checkpoint_dir(run_id, self.config.root)
        self._rearm()

    def _rearm(self) -> None:
        """Recompute the single event count :meth:`tick` compares against.

        ``tick`` runs once per processed event on the simulators' hot
        loops, so its fast path must be one comparison — the next save
        point and the deterministic interrupt point are folded into one
        trigger, and :meth:`request_stop` re-arms it to fire immediately.
        """
        trigger = self._last_events + self.config.interval
        if self.config.interrupt_after is not None:
            trigger = min(trigger, self.config.interrupt_after)
        self._trigger = 0 if self._stop else trigger

    @property
    def directory(self) -> Path:
        return self._dir

    def request_stop(self) -> None:
        """Ask the run to stop at its next sync point (signal-safe)."""
        self._stop = True
        self._trigger = 0

    @property
    def stop_requested(self) -> bool:
        return self._stop

    # -- write path ----------------------------------------------------------------

    def tick(self, events: int, capture: Callable[[], dict]) -> None:
        """Snapshot if due; raise :class:`RunInterrupted` if stopping.

        Called once per processed event; the fast path is one integer
        comparison against the pre-folded trigger (see :meth:`_rearm`).
        """
        if events < self._trigger:
            return
        config = self.config
        interrupted = self._stop or (
            config.interrupt_after is not None and events >= config.interrupt_after
        )
        self.save(events, capture(), wait=interrupted)
        if interrupted:
            raise RunInterrupted(self.run_id, self.seq, events)

    def save(self, events: int, state: dict, *, wait: bool = False) -> Path:
        """Atomically write one self-contained snapshot and prune old ones.

        Where ``os.fork`` exists, a periodic save hands pickling and
        writing to a forked child (BGSAVE-style): pickling the
        ~10^5-object live graph in-process measurably degrades the
        simulator's allocator and cache locality for the rest of the
        run, far beyond the dump's own wall time.  At most one writer is
        in flight, so a save first waits for the previous one.  With
        ``wait=True`` (the final snapshot before :class:`RunInterrupted`),
        or when no child can be forked, the write is synchronous, so the
        directory is quiescent when the caller sees the interrupt.
        """
        self.seq += 1
        self._write_manifest()
        payload = {
            "version": CHECKPOINT_SCHEMA_VERSION,
            "run_id": self.run_id,
            "seq": self.seq,
            "events": events,
            "state": state,
        }
        path = self._dir / f"ck-{self.seq:08d}.pkl"
        self._join_writer()
        if wait or not self._fork_writer(path, payload):
            _write_snapshot(path, payload)
        self.saves += 1
        self._last_events = events
        self._rearm()
        self._prune()
        return path

    def _fork_writer(self, path: Path, payload: dict) -> bool:
        """Fork a child that writes the snapshot; ``False`` if none was forked.

        The child sees the copy-on-write image of the loop state as of
        this sync point, pickles and writes it, then ``os._exit``s —
        never running finalisers or flushing inherited stdio.
        """
        if not _CAN_FORK:
            return False
        try:
            pid = os.fork()
        except OSError:
            return False
        if pid == 0:
            status = 1
            try:
                _write_snapshot(path, payload)
                status = 0
            finally:
                os._exit(status)
        self._writer = pid
        return True

    def _join_writer(self) -> None:
        """Wait for the forked writer in flight, if there is one."""
        if self._writer is not None:
            try:
                os.waitpid(self._writer, 0)
            except ChildProcessError:
                pass  # reaped elsewhere, e.g. with SIGCHLD ignored
            self._writer = None

    def _write_manifest(self) -> None:
        if self._manifest_written or self.manifest is None:
            return
        body = {
            "version": CHECKPOINT_SCHEMA_VERSION,
            "run_id": self.run_id,
            "manifest": self.manifest,
        }
        _atomic_write(
            self._dir / "manifest.json",
            json.dumps(body, sort_keys=True, indent=2).encode("utf-8"),
        )
        self._manifest_written = True

    def _prune(self) -> None:
        snapshots = sorted(self._dir.glob("ck-*.pkl"))
        for stale in snapshots[: -self.config.keep]:
            try:
                stale.unlink()
            except OSError:
                pass

    def complete(self) -> None:
        """The run finished: drop its snapshots (unless asked to keep)."""
        self._join_writer()
        if self.config.keep_on_success:
            return
        shutil.rmtree(self._dir, ignore_errors=True)
        # Drop the now-empty two-level shard directory too, best-effort.
        try:
            self._dir.parent.rmdir()
        except OSError:
            pass

    # -- read path -----------------------------------------------------------------

    @classmethod
    def open(
        cls,
        run_id: str,
        *,
        root: "str | Path | None" = None,
        config: CheckpointConfig | None = None,
    ) -> "tuple[Checkpointer, dict]":
        """Load a run's manifest + newest readable snapshot for a resume.

        Returns ``(checkpointer, payload)`` where the checkpointer
        continues the snapshot sequence (same directory, same run id)
        and ``payload`` is the snapshot dict (``state``/``events``/
        ``seq``).  A torn or corrupt newest snapshot falls back to the
        previous one — the reason ``keep`` defaults to 2.
        """
        directory = checkpoint_dir(run_id, root if root is not None else (config.root if config else None))
        manifest_path = directory / "manifest.json"
        if not manifest_path.is_file():
            raise CheckpointError(f"no checkpoint manifest for run {run_id!r} under {directory.parent.parent}")
        try:
            body = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest for {run_id!r}: {exc}") from exc
        snapshots = sorted(directory.glob("ck-*.pkl"))
        if not snapshots:
            raise CheckpointError(f"run {run_id!r} has a manifest but no snapshots")
        payload = None
        for path in reversed(snapshots):
            try:
                candidate = pickle.loads(path.read_bytes())
            except Exception:
                continue  # torn write: fall back to the previous snapshot
            if (
                isinstance(candidate, dict)
                and candidate.get("version") == CHECKPOINT_SCHEMA_VERSION
                and candidate.get("run_id") == run_id
                and isinstance(candidate.get("state"), dict)
            ):
                payload = candidate
                break
        if payload is None:
            raise CheckpointError(
                f"no readable snapshot for run {run_id!r} "
                f"({len(snapshots)} present, all torn or incompatible)"
            )
        resume_config = config or CheckpointConfig(root=root)
        checkpointer = cls(run_id, resume_config, manifest=body.get("manifest"))
        checkpointer.seq = payload["seq"]
        checkpointer._last_events = payload["events"]
        checkpointer._rearm()
        checkpointer._manifest_written = True
        return checkpointer, payload


class GracefulInterrupt:
    """Two-stage SIGINT/SIGTERM guard around a checkpointed run.

    The first signal only calls :meth:`Checkpointer.request_stop` — the
    run flushes a final snapshot at its next sync point and raises
    :class:`RunInterrupted`, so nothing is lost.  A second signal
    restores the default disposition and re-raises itself, force-exiting
    a run that is wedged between sync points.  Installation is
    best-effort: off the main thread (or anywhere ``signal.signal``
    refuses) the guard is a no-op and the run keeps its caller's
    handlers.
    """

    def __init__(self, checkpointer: Checkpointer) -> None:
        self.checkpointer = checkpointer
        self._previous: dict = {}
        self._fired = False

    def __enter__(self) -> "GracefulInterrupt":
        import signal
        import threading

        if threading.current_thread() is not threading.main_thread():
            return self
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except (ValueError, OSError):  # embedded/odd runtimes
                self._previous.pop(sig, None)
        return self

    def _handle(self, signum, frame) -> None:
        import signal

        if self._fired:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self._fired = True
        self.checkpointer.request_stop()

    def __exit__(self, *exc_info) -> None:
        import signal

        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass
