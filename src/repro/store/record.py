"""Run records: the unit the persistent run store keeps.

A :class:`RunRecord` freezes one invocation — `run_fleet`, a scenario,
an experiment, a benchmark section — as three JSON-ready blocks:

* ``config``: everything needed to reproduce the run (machines, policy,
  arrival/fault/admission specs, seeds).  The record's identity
  (:func:`run_key`) is the content hash of ``(kind, name, config)``, so
  re-running the same configuration overwrites its record (latest wins)
  while any config change lands a new one.
* ``payload``: the full result history (e.g.
  :meth:`repro.fleet.simulator.FleetResult.to_dict` with overhead), from
  which reports replay without re-simulating.
* ``digest``: the determinism digest of ``payload`` minus
  ``digest_excludes`` — for fleet runs the excluded keys are
  :data:`repro.fleet.simulator.OVERHEAD_KEYS`, which makes the stored
  digest byte-compatible with the benchmark harness's determinism gate.

Unlike the sweep cache (:mod:`repro.sweep.cache`), the package version
is *not* part of the identity: records are observations of what a
version produced, so they must survive version bumps.  The version is
stored inside the record instead, and diffs surface it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.version import __version__

#: Bump when the record layout changes incompatibly; part of every
#: run key, so old store directories simply stop matching.
STORE_SCHEMA_VERSION = 1


class RecordingError(TypeError):
    """A value has no stable JSON encoding for a run record."""


#: Types :func:`jsonify` returns unchanged when a value is exactly one.
_JSON_SCALARS = frozenset({type(None), bool, int, float, str})


def jsonify(value: Any) -> Any:
    """Coerce ``value`` into JSON-ready primitives, strictly.

    Dataclasses serialise via their own ``to_dict`` when they have one
    (that is the canonical form the matching ``from_dict`` inverts),
    falling back to a field walk; numpy scalars collapse to ``int`` /
    ``float`` via the :mod:`numbers` ABCs (``np.int64`` is *not* an
    ``int`` subclass).  Anything without a stable encoding raises
    :class:`RecordingError` rather than storing a lossy ``repr``.

    The JSON types themselves (exactly, not subclasses) skip the walk:
    a fleet payload holds hundreds of thousands of floats, and each
    pass through the :mod:`numbers` ABC checks costs microseconds.
    """
    cls = type(value)
    if cls in _JSON_SCALARS:
        return value
    if cls is list or cls is tuple:
        return [jsonify(item) for item in value]
    if cls is dict:
        return _jsonify_mapping(value)
    if isinstance(value, str):  # a str subclass
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, enum.Enum):
        return jsonify(value.value)
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict) and not isinstance(value, type):
        try:
            return jsonify(to_dict())
        except TypeError:
            pass  # to_dict needs arguments; fall through to the field walk
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonify(item) for item in items]
    if isinstance(value, Mapping):
        return _jsonify_mapping(value)
    raise RecordingError(f"no JSON encoding for {type(value).__qualname__}: {value!r}")


def _jsonify_mapping(value: Mapping) -> dict:
    out = {}
    for key, item in value.items():
        if not isinstance(key, str):
            raise RecordingError(f"mapping key {key!r} is not a string")
        out[key] = jsonify(item)
    return out


def payload_digest(payload: Mapping, *, excludes: tuple[str, ...] = ()) -> str:
    """Determinism digest of a JSON-ready payload.

    SHA-256 of the ``sort_keys`` JSON encoding, with top-level
    ``excludes`` keys dropped first — the exact convention of the fleet
    benchmark's determinism gate.
    """
    if excludes:
        payload = {k: v for k, v in payload.items() if k not in excludes}
    token = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def run_key(kind: str, name: str, config: Mapping) -> str:
    """Content-addressed identity of a run: hash of kind, name and config.

    ``name`` is part of the key — two experiments can share an identical
    config dict (``{"reduced": true}``) and must not collide.
    """
    token = json.dumps(
        ["repro-run-store", STORE_SCHEMA_VERSION, kind, name, config], sort_keys=True
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """One stored run: identity, reproduction config, result payload."""

    run_id: str
    #: Coarse category: ``fleet`` / ``scenario`` / ``schedule`` /
    #: ``experiment`` / ``bench``.
    kind: str
    #: Human handle within the kind (policy-qualified bench name,
    #: experiment key, scenario name, model name).
    name: str
    #: Package version that produced the payload (informational: part of
    #: the record, deliberately not part of the identity).
    version: str
    schema: int
    #: Unix timestamp of recording.
    created: float
    config: dict
    payload: dict
    digest: str
    #: Top-level payload keys outside the digest (wall-clock diagnostics).
    digest_excludes: tuple[str, ...] = ()
    #: Non-payload annotations (rendered report text, a benchmark row).
    extras: dict = field(default_factory=dict)

    def expected_digest(self) -> str:
        return payload_digest(self.payload, excludes=self.digest_excludes)

    @property
    def intact(self) -> bool:
        """True when the payload still matches the recorded digest."""
        return self.digest == self.expected_digest()

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "version": self.version,
            "schema": self.schema,
            "created": self.created,
            "config": self.config,
            "payload": self.payload,
            "digest": self.digest,
            "digest_excludes": list(self.digest_excludes),
            "extras": self.extras,
        }


def make_record(
    kind: str,
    name: str,
    *,
    config: Mapping,
    payload: Any,
    extras: Mapping | None = None,
    digest_excludes: tuple[str, ...] = (),
    created: float | None = None,
) -> RunRecord:
    """Build a :class:`RunRecord`, canonicalising config and payload.

    Raises :class:`RecordingError` when either holds a value with no
    stable JSON encoding.
    """
    config = jsonify(config)
    payload = jsonify(payload)
    if not isinstance(config, dict):
        raise RecordingError("a run config must encode to a JSON object")
    if not isinstance(payload, dict):
        raise RecordingError("a run payload must encode to a JSON object")
    excludes = tuple(digest_excludes)
    return RunRecord(
        run_id=run_key(kind, name, config),
        kind=kind,
        name=name,
        version=__version__,
        schema=STORE_SCHEMA_VERSION,
        created=time.time() if created is None else created,
        config=config,
        payload=payload,
        digest=payload_digest(payload, excludes=excludes),
        digest_excludes=excludes,
        extras=jsonify(dict(extras) if extras else {}),
    )
