"""Resilient execution layer: checkpoint/resume and cache-rot injection.

* :mod:`repro.resilience.checkpoint` — periodic atomic snapshots of a
  fleet run's full loop state; a killed run resumes byte-identical via
  :func:`resume_fleet` / ``python -m repro resume <run_id>``.
* :mod:`repro.resilience.chaos` — seeded, deterministic rot of on-disk
  cache entries, so the self-healing read paths are *gated*, not just
  present.  A mid-run interrupt is ``CheckpointConfig.interrupt_after``.

``resume_fleet`` is resolved lazily: it imports :mod:`repro.api`, which
(indirectly) imports this package, and a module-level import here would
cycle.
"""

from __future__ import annotations

from repro.resilience.chaos import corrupt_cache_entries
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

__all__ = [
    "CHECKPOINT_DIR_ENV",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointConfig",
    "CheckpointError",
    "Checkpointer",
    "GracefulInterrupt",
    "RunInterrupted",
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
