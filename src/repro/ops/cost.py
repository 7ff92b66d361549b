"""Dispatch from an operation instance to its cost characteristics."""

from __future__ import annotations

from functools import lru_cache

from repro.graph.op import OpInstance
from repro.ops.characteristics import OpCharacteristics
from repro.ops.registry import OpRegistry, default_registry


def characterize(op: OpInstance, registry: OpRegistry | None = None) -> OpCharacteristics:
    """Estimate the cost characteristics of ``op``.

    Uses the default registry (populated from the catalog) unless an
    explicit registry is supplied.
    """
    reg = registry if registry is not None else default_registry()
    return reg.estimate(op)


def _memo_key(op: OpInstance) -> tuple:
    """The instance plus its attrs: ``OpInstance`` equality ignores attrs,
    but estimators read them (a convolution's kernel size)."""
    return (op, tuple(op.attrs.items()))


@lru_cache(maxsize=65536)
def _characterize_cached(key: tuple) -> OpCharacteristics:
    return default_registry().estimate(key[0])


def characterize_cached(op: OpInstance) -> OpCharacteristics:
    """Memoised variant of :func:`characterize` for the default registry.

    Operation instances are immutable, and a training step evaluates the
    same instances thousands of times during profiling sweeps, so caching
    pays off.  Only valid for the default registry; registering an
    estimator there clears the memo.
    """
    try:
        return _characterize_cached(_memo_key(op))
    except TypeError:
        # attrs may contain unhashable values; fall back to the uncached path.
        return characterize(op)


def clear_characterization_cache() -> None:
    """Drop the default-registry characterization memo (tests, re-registration)."""
    _characterize_cached.cache_clear()


class CharacterizationCache:
    """Per-registry memo of ``registry.estimate`` keyed by instance and attrs.

    The process-wide :func:`characterize_cached` only serves the default
    registry; simulators built around a custom :class:`OpRegistry` used to
    re-run ``estimate`` for every running operation on every scheduling
    event.  One cache instance per registry gives those the same
    amortised O(1) characterization.  Estimators are assumed pure (the
    registry contract); instances with unhashable attrs fall back to
    direct calls.
    """

    def __init__(self, registry: OpRegistry | None = None) -> None:
        self._registry = registry if registry is not None else default_registry()
        self._memo: dict[tuple, OpCharacteristics] = {}

    @property
    def registry(self) -> OpRegistry:
        return self._registry

    def __len__(self) -> int:
        return len(self._memo)

    def __call__(self, op: OpInstance) -> OpCharacteristics:
        key = _memo_key(op)
        try:
            chars = self._memo.get(key)
        except TypeError:
            return self._registry.estimate(op)
        if chars is None:
            chars = self._registry.estimate(op)
            self._memo[key] = chars
        return chars

    def clear(self) -> None:
        self._memo.clear()
