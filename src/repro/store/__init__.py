"""repro.store — the persistent, content-addressed run store.

Records every ``run_fleet`` / ``run_scenario`` / experiment / fleet
smoke benchmark run as a :class:`RunRecord` (full reproduction config,
result payload with per-round history, determinism digest) under an
atomic sharded layout borrowed from the sweep cache, and replays reports
from those records without re-simulating (``python -m repro report``).

Recording is opt-in for library use: the default store writes only when
``$REPRO_STORE_DIR`` is set (the experiments CLI and the benchmark
harness opt in explicitly).  :func:`record_run` is the best-effort entry
point callers thread through — a run must never fail because its record
could not be written.
"""

from __future__ import annotations

from repro.store.record import (
    STORE_SCHEMA_VERSION,
    RecordingError,
    RunRecord,
    jsonify,
    make_record,
    payload_digest,
    run_key,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    STORE_DIR_ENV,
    STORE_DISABLE_ENV,
    RunStore,
    StoreIntegrityError,
    configure_store,
    default_store,
    resolve_store,
    store_disabled,
)


def record_run(
    store: RunStore | None,
    kind: str,
    name: str,
    *,
    config,
    payload,
    extras=None,
    digest_excludes: tuple[str, ...] = (),
) -> str | None:
    """Best-effort recording: the run id, or ``None`` when the store is
    off or the record cannot be encoded/written.  Encoding and I/O
    problems are deliberately swallowed — recording is a side channel
    and must never fail the run it describes."""
    if store is None or not store.enabled:
        return None
    try:
        record = make_record(
            kind,
            name,
            config=config,
            payload=payload,
            extras=extras,
            digest_excludes=digest_excludes,
        )
        return store.record(record)
    except (RecordingError, OSError):
        return None


__all__ = [
    "DEFAULT_STORE_DIR",
    "RecordingError",
    "RunRecord",
    "RunStore",
    "STORE_DIR_ENV",
    "STORE_DISABLE_ENV",
    "STORE_SCHEMA_VERSION",
    "StoreIntegrityError",
    "configure_store",
    "default_store",
    "jsonify",
    "make_record",
    "payload_digest",
    "record_run",
    "resolve_store",
    "run_key",
    "store_disabled",
]
