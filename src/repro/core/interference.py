"""Co-run interference tracking (Section III-D, Discussion).

The performance model predicts each operation's time in isolation; when
operations co-run, contention can make them slower than predicted.  The
runtime records pairings whose observed slowdown exceeds a threshold and
avoids co-running them again in later training steps.

The tracker is generic over *what* is paired: keys are any hashable
values.  The single-machine runtime keys it by operation **type**
(``"Conv2DBackpropFilter"`` x ``"Conv2DBackpropInput"``); the fleet
scheduler (:mod:`repro.fleet`) keys the very same class by **workload
name** (``"resnet50"`` x ``"dcgan"``) to steer job placement across
machines.  :meth:`snapshot` / :meth:`merge` let independent trackers —
one per fleet machine — share what they learn.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable

#: Default cap on the per-pair observation history.  Long co-run
#: simulations (fleets replay thousands of steps) would otherwise grow
#: ``_observations`` without bound; the blacklist only ever needs the
#: threshold crossing, and diagnostics only the recent window.
DEFAULT_HISTORY = 128

Key = Hashable
PairKey = tuple


def _pair_key(a: Key, b: Key) -> PairKey:
    """Canonical unordered pair for any hashable keys.

    Natural ordering is only trusted when it actually decides: partially
    ordered types (frozensets, NaN) can answer False to both ``a <= b``
    and ``b <= a``, which would make the key asymmetric.  Everything
    else canonicalises by (type name, repr), which is total.
    """
    try:
        if a <= b:  # type: ignore[operator]
            return (a, b)
        if b <= a:  # type: ignore[operator]
            return (b, a)
    except TypeError:
        pass
    ra, rb = (type(a).__name__, repr(a)), (type(b).__name__, repr(b))
    return (a, b) if ra <= rb else (b, a)


@dataclass(frozen=True)
class InterferenceSnapshot:
    """Immutable, picklable export of one tracker's learned state.

    Produced by :meth:`InterferenceTracker.snapshot` and consumed by
    :meth:`InterferenceTracker.merge` — the fleet layer uses it to pool
    the pairings each machine observed into one shared tracker.
    """

    observations: tuple[tuple[PairKey, tuple[float, ...]], ...]
    blacklist: tuple[PairKey, ...]

    @property
    def num_observations(self) -> int:
        return sum(len(values) for _, values in self.observations)


@dataclass
class InterferenceTracker:
    """Remembers which pairs of keys co-run badly.

    Keys are *kinds*, not instances: if two ``Conv2DBackpropFilter``
    instances (or two ``resnet50`` jobs) thrash each other, later
    pairings of the same kinds are assumed to thrash as well.
    """

    threshold: float = 0.5
    #: Per-pair observation history cap (``None`` keeps everything, which
    #: is only safe for short runs).
    history: int | None = DEFAULT_HISTORY
    _observations: dict[PairKey, deque[float]] = field(default_factory=dict)
    _blacklist: set[PairKey] = field(default_factory=set)
    #: Bumped by every call that can change the blacklist (:meth:`record`,
    #: :meth:`mark_blacklisted`, :meth:`merge`, :meth:`clear`), so a
    #: reader that derived something from the blacklist can tell whether
    #: it is still current without comparing blacklists.
    changes: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.history is not None and self.history < 1:
            raise ValueError("history must be positive (or None for unbounded)")

    def record(self, key_a: Key, key_b: Key, slowdown: float) -> None:
        """Record the observed relative slowdown of a co-run pairing.

        ``slowdown`` is (observed time / predicted isolated time) - 1 for
        either member of the pair.
        """
        if slowdown < 0:
            slowdown = 0.0
        key = _pair_key(key_a, key_b)
        history = self._observations.get(key)
        if history is None:
            history = deque(maxlen=self.history)
            self._observations[key] = history
        history.append(slowdown)
        if slowdown > self.threshold:
            self._blacklist.add(key)
        self.changes += 1

    def history_for(self, key_a: Key, key_b: Key) -> "deque[float]":
        """The mutable observation history of a pairing (created if missing).

        A bulk-recording hook for hot loops (the fleet simulator's round
        compression): resolving the canonical pair key and the deque once
        per stable co-run segment, then appending per round, is
        equivalent to calling :meth:`record` per round — minus the
        per-call key canonicalisation.  Callers are responsible for
        clamping negative slowdowns to 0.0 and for
        :meth:`mark_blacklisted` when an observation crosses the
        threshold, exactly as :meth:`record` would.
        """
        key = _pair_key(key_a, key_b)
        history = self._observations.get(key)
        if history is None:
            history = deque(maxlen=self.history)
            self._observations[key] = history
        return history

    def mark_blacklisted(self, key_a: Key, key_b: Key) -> None:
        """Blacklist a pairing directly (see :meth:`history_for`)."""
        self._blacklist.add(_pair_key(key_a, key_b))
        self.changes += 1

    def allowed(self, key_a: Key, key_b: Key) -> bool:
        """Whether the runtime may co-run these kinds."""
        return _pair_key(key_a, key_b) not in self._blacklist

    def allowed_with_all(self, key: Key, running_keys: Iterable[Key]) -> bool:
        """Whether ``key`` may co-run with every kind in ``running_keys``."""
        return all(self.allowed(key, other) for other in running_keys)

    def blocked_with(self, key: Key) -> frozenset:
        """Every kind blacklisted against ``key``.

        ``allowed(key, other)`` is False exactly for the ``other`` in the
        returned set, so ``blocked_with(key).isdisjoint(kinds)`` answers
        :meth:`allowed_with_all` for any number of kind lists at the cost
        of one pass over the blacklist.
        """
        blocked = set()
        for key_a, key_b in self._blacklist:
            if key_a == key:
                blocked.add(key_b)
            if key_b == key:
                blocked.add(key_a)
        return frozenset(blocked)

    def blacklisted_pairs(self) -> tuple[PairKey, ...]:
        return tuple(sorted(self._blacklist, key=repr))

    def observations(self, key_a: Key, key_b: Key) -> tuple[float, ...]:
        return tuple(self._observations.get(_pair_key(key_a, key_b), ()))

    def mean_slowdown(self, key_a: Key, key_b: Key) -> float | None:
        """Mean observed slowdown of a pairing (``None`` when unobserved)."""
        history = self._observations.get(_pair_key(key_a, key_b))
        if not history:
            return None
        return sum(history) / len(history)

    def clear(self) -> None:
        self._observations.clear()
        self._blacklist.clear()
        self.changes += 1

    # -- sharing across trackers ---------------------------------------------------

    def snapshot(self) -> InterferenceSnapshot:
        """Freeze the current state into an immutable, picklable value.

        Pairs with zero recorded observations are omitted: they carry no
        information, and whether one exists is an artifact of *how* a
        caller recorded (:meth:`history_for` pre-creates the history, so
        a co-run segment aborted by a fault before its first round would
        otherwise leave a spurious empty entry behind).
        """
        return InterferenceSnapshot(
            observations=tuple(
                sorted(
                    (
                        (key, tuple(values))
                        for key, values in self._observations.items()
                        if values
                    ),
                    key=lambda kv: repr(kv[0]),
                )
            ),
            blacklist=tuple(sorted(self._blacklist, key=repr)),
        )

    def merge(self, other: "InterferenceTracker | InterferenceSnapshot") -> None:
        """Fold another tracker's (or snapshot's) observations into this one.

        Histories are appended under this tracker's own cap; blacklist
        entries are unioned (a pairing one machine found harmful stays
        harmful fleet-wide).  Merging is idempotent for the blacklist but
        not for histories, so callers merging repeatedly should merge
        *deltas* or accept duplicated observations inside the cap window.
        """
        snapshot = other.snapshot() if isinstance(other, InterferenceTracker) else other
        for key, values in snapshot.observations:
            history = self._observations.get(key)
            if history is None:
                history = deque(maxlen=self.history)
                self._observations[key] = history
            history.extend(values)
        self._blacklist.update(snapshot.blacklist)
        self.changes += 1
