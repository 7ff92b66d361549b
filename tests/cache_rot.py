"""Deterministic cache-rot injection for tests and the resilience benchmark.

:func:`corrupt_cache_entries` rots a seeded selection of on-disk pickle
entries, so the self-healing read paths of the sweep cache and the run
store are gated, not just present.  The selection is a pure function of
``(seed, file name)``: the same call against the same directory rots
the same files.  (A mid-run SIGTERM is simulated separately, by
``CheckpointConfig.interrupt_after``.)
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def _fraction(*parts: object) -> float:
    """A deterministic uniform-ish fraction in [0, 1) from hashed parts."""
    text = "\x1f".join(repr(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def corrupt_cache_entries(
    root: "str | Path",
    *,
    seed: int = 0,
    fraction: float = 0.5,
    pattern: str = "**/*.pkl",
) -> list[Path]:
    """Deterministically rot a fraction of on-disk pickle entries.

    Overwrites each selected file's bytes with garbage (same length, so
    directory listings look healthy), returning the corrupted paths.
    Exercises the self-healing read paths: :class:`~repro.sweep.cache.
    SweepCache` treats an unreadable shard as a miss and rewrites it;
    the run store unlinks corrupt records on read and ``python -m repro
    report verify`` reports/heals them in bulk.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    base = Path(root)
    corrupted: list[Path] = []
    for path in sorted(base.glob(pattern)):
        if not path.is_file():
            continue
        if _fraction(seed, "corrupt", path.name) >= fraction:
            continue
        size = max(path.stat().st_size, 8)
        path.write_bytes(b"\xde\xad\xbe\xef" * (size // 4 + 1))
        corrupted.append(path)
    return corrupted
