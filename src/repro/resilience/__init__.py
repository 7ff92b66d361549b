"""Resilient execution layer: checkpoint and resume.

:mod:`repro.resilience.checkpoint` takes periodic atomic snapshots of a
fleet run's full loop state; a killed run resumes byte-identical via
:func:`resume_fleet` / ``python -m repro resume <run_id>``.  A mid-run
interrupt is ``CheckpointConfig.interrupt_after``.  Seeded cache rot,
which gates the self-healing read paths, lives with the tests
(``tests/cache_rot.py``).

``resume_fleet`` is resolved lazily: it imports :mod:`repro.api`, which
(indirectly) imports this package, and a module-level import here would
cycle.
"""

from __future__ import annotations

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
