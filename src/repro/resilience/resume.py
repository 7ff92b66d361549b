"""Restart a checkpointed fleet run from its latest snapshot.

:func:`resume_fleet` is the inverse of a killed ``run_fleet(checkpoint=
...)``: it resolves the run id against the checkpoint root, loads the
newest readable snapshot plus the JSON manifest (the run's recorded
store config), rebuilds the exact ``run_fleet`` call from that config,
and hands the simulator the captured loop state.  Because the manifest
*is* the store config, the resumed run records under the same
``run_id`` as its uninterrupted twin — and the determinism gates assert
the digest is byte-identical.
"""

from __future__ import annotations

import dataclasses

from repro.resilience.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    Checkpointer,
    resolve_checkpoint_run,
)


def resume_fleet(
    run_id: str,
    *,
    root=None,
    store=None,
    checkpoint: "CheckpointConfig | dict | None" = None,
):
    """Resume an interrupted fleet run; returns its :class:`~repro.api.FleetOutcome`.

    ``run_id`` may be a unique prefix (>= 4 chars).  ``root`` overrides
    the checkpoint root (else ``$REPRO_CHECKPOINT_DIR`` / default);
    ``checkpoint`` overrides the resumed run's own checkpoint config
    (interval/keep), defaulting to the standard config against ``root``.
    ``store`` selects where the completed run records, exactly as in
    :func:`repro.api.run_fleet`.

    The resumed run keeps checkpointing from where the sequence left
    off, so it can itself be interrupted and resumed again.
    """
    full_id = resolve_checkpoint_run(run_id, root)
    if isinstance(checkpoint, dict):
        checkpoint = CheckpointConfig(**checkpoint)
    if checkpoint is not None and checkpoint.root is None and root is not None:
        checkpoint = dataclasses.replace(checkpoint, root=root)
    ckpt, payload = Checkpointer.open(full_id, root=root, config=checkpoint)
    manifest = ckpt.manifest or {}
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise CheckpointError(
            f"run {full_id[:12]} has no resumable config in its manifest"
        )
    arrivals = config.get("arrivals")
    if arrivals is None:
        raise CheckpointError(
            f"run {full_id[:12]} recorded no arrival spec; cannot rebuild its trace"
        )
    admission = config.get("admission") or {}
    # Manifests written by the retired sharded engine also carry a
    # ``"sharding"`` key, and a run of the retired reference loop
    # recorded ``"compressed": False``; both are ignored here, and their
    # ``"sharded"`` and ``"reference"`` snapshots fail the simulator's
    # loop-mode check.

    from repro.api import run_fleet

    return run_fleet(
        arrival_process=arrivals,
        machines=tuple(config["machines"]),
        policy=config["policy"],
        max_corun=config.get("max_corun"),
        faults=config.get("faults"),
        queue_limit=admission.get("queue_limit"),
        deadline=admission.get("deadline"),
        shed_policy=admission.get("shed_policy", "reject-at-arrival"),
        checkpoint=ckpt,
        store=store,
        _resume=payload,
    )
