"""Decision-tree-based selection of hardware-counter features.

The paper collects 26 counter events plus the execution time (27 features)
but notes that they cannot all be recorded at once and that many are
redundant.  A decision-tree estimator ranks the events by impurity
reduction and the top four are kept (the paper selects CPU cycles, LLC
misses, LLC accesses and L1 hits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.counters import CounterEvent
from repro.mlkit.tree import DecisionTreeRegression


@dataclass(frozen=True)
class FeatureSelectionResult:
    """Ranked counter events with their importances."""

    events: tuple[CounterEvent, ...]
    importances: dict[CounterEvent, float]

    def top(self, k: int) -> tuple[CounterEvent, ...]:
        if k < 1:
            raise ValueError("k must be at least 1")
        return self.events[:k]


def select_counter_features(
    feature_matrix: np.ndarray,
    targets: np.ndarray,
    events: tuple[CounterEvent, ...],
    *,
    num_features: int = 4,
    max_depth: int = 6,
) -> FeatureSelectionResult:
    """Rank ``events`` by decision-tree importance for predicting ``targets``.

    ``feature_matrix`` has one column per event (already normalised by the
    instruction count); ``targets`` are the execution times to predict.
    """
    X = np.asarray(feature_matrix, dtype=float)
    y = np.asarray(targets, dtype=float).ravel()
    if X.ndim != 2 or X.shape[1] != len(events):
        raise ValueError(
            f"feature matrix must have {len(events)} columns, got shape {X.shape}"
        )
    if X.shape[0] != y.shape[0]:
        raise ValueError("feature matrix and targets must have the same number of rows")
    if num_features < 1 or num_features > len(events):
        raise ValueError("num_features must lie in [1, number of events]")

    tree = DecisionTreeRegression(max_depth=max_depth, min_samples_split=4)
    tree.fit(X, y)
    assert tree.feature_importances_ is not None
    importances = {
        event: float(importance)
        for event, importance in zip(events, tree.feature_importances_)
    }
    ranked = tuple(
        sorted(events, key=lambda e: (-importances[e], e.value))
    )
    return FeatureSelectionResult(events=ranked, importances=importances)
