"""Resilient execution layer: checkpoint/resume, retries, chaos.

Three pieces, one failure story:

* :mod:`repro.resilience.checkpoint` — periodic atomic snapshots of a
  fleet run's full loop state; a killed run resumes byte-identical via
  :func:`resume_fleet` / ``python -m repro resume <run_id>``.
* :class:`~repro.sweep.retry.RetryPolicy` (re-exported here) — per-task
  timeouts, bounded backoff-with-jitter retries, crash/hang detection
  and quarantine for sweep workers.
* :mod:`repro.resilience.chaos` — seeded, deterministic injection of
  worker crashes, hangs, cache rot and mid-run interrupts, so the
  recovery paths above are *gated*, not just present.

``resume_fleet`` is resolved lazily: it imports :mod:`repro.api`, which
(indirectly) imports this package, and a module-level import here would
cycle.
"""

from __future__ import annotations

from repro.resilience.chaos import (
    CHAOS_EXIT_CODE,
    ChaosPlan,
    ChaosWorkerCrash,
    chaos_call,
    corrupt_cache_entries,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointConfig,
    CheckpointError,
    Checkpointer,
    GracefulInterrupt,
    RunInterrupted,
    checkpoint_dir,
    checkpoint_root,
    list_checkpoint_runs,
    resolve_checkpoint,
    resolve_checkpoint_run,
)
from repro.sweep.retry import (
    SINGLE_ATTEMPT,
    RetryPolicy,
    SweepTaskFailure,
)

__all__ = [
    "CHAOS_EXIT_CODE",
    "CHECKPOINT_DIR_ENV",
    "CHECKPOINT_SCHEMA_VERSION",
    "ChaosPlan",
    "ChaosWorkerCrash",
    "CheckpointConfig",
    "CheckpointError",
    "Checkpointer",
    "GracefulInterrupt",
    "RetryPolicy",
    "RunInterrupted",
    "SINGLE_ATTEMPT",
    "SweepTaskFailure",
    "chaos_call",
    "checkpoint_dir",
    "checkpoint_root",
    "corrupt_cache_entries",
    "list_checkpoint_runs",
    "resolve_checkpoint",
    "resolve_checkpoint_run",
    "resume_fleet",
]


def __getattr__(name: str):
    if name == "resume_fleet":
        from repro.resilience.resume import resume_fleet

        return resume_fleet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
