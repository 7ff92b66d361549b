"""Registry mapping operation types to cost estimators.

An estimator is a callable ``(OpInstance) -> OpCharacteristics``.  The
default registry is populated by :mod:`repro.ops.catalog`; user code can
register additional operation types with :func:`register_op` (the paper
notes the hill-climbing model "can accommodate any future change of
operations in TensorFlow" — this registry is our equivalent extension
point).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.graph.op import OpInstance
from repro.ops.characteristics import OpCharacteristics

Estimator = Callable[[OpInstance], OpCharacteristics]


class OpRegistry:
    """A mapping from operation type name to its cost estimator."""

    def __init__(self) -> None:
        self._estimators: dict[str, Estimator] = {}
        self._fallback: Estimator | None = None

    def register(self, op_type: str, estimator: Estimator, *, overwrite: bool = False) -> None:
        """Register ``estimator`` for ``op_type``."""
        if not op_type:
            raise ValueError("op_type must be non-empty")
        if op_type in self._estimators and not overwrite:
            raise ValueError(f"estimator for {op_type!r} already registered")
        self._estimators[op_type] = estimator
        self._changed()

    def set_fallback(self, estimator: Estimator) -> None:
        """Set the estimator used for unknown operation types."""
        self._fallback = estimator
        self._changed()

    def _changed(self) -> None:
        """Drop the default registry's characterization memo when it changes."""
        if self is _DEFAULT_REGISTRY:
            from repro.ops.cost import clear_characterization_cache

            clear_characterization_cache()

    def is_known(self, op_type: str) -> bool:
        return op_type in self._estimators

    def known_types(self) -> tuple[str, ...]:
        return tuple(sorted(self._estimators))

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._estimators))

    def __len__(self) -> int:
        return len(self._estimators)

    def estimate(self, op: OpInstance) -> OpCharacteristics:
        """Estimate characteristics for ``op`` (falling back if unknown)."""
        estimator = self._estimators.get(op.op_type)
        if estimator is None:
            if self._fallback is None:
                raise KeyError(
                    f"no estimator registered for operation type {op.op_type!r} "
                    "and no fallback set"
                )
            estimator = self._fallback
        return estimator(op)


_DEFAULT_REGISTRY: OpRegistry | None = None


def default_registry() -> OpRegistry:
    """The process-wide registry, populated lazily from the catalog."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        from repro.ops import catalog

        registry = OpRegistry()
        catalog.populate(registry)
        _DEFAULT_REGISTRY = registry
    return _DEFAULT_REGISTRY


def register_op(op_type: str, estimator: Estimator, *, overwrite: bool = False) -> None:
    """Register an estimator in the default registry."""
    default_registry().register(op_type, estimator, overwrite=overwrite)
