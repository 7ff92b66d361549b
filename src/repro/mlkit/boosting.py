"""Gradient boosting regression with least-squares loss and tree learners."""

from __future__ import annotations

import numpy as np

from repro.mlkit.base import Regressor, check_x, check_xy
from repro.mlkit.tree import DecisionTreeRegression
from repro.utils.seeding import make_rng


class GradientBoostingRegression(Regressor):
    """Stage-wise additive model of shallow regression trees."""

    def __init__(
        self,
        n_estimators: int = 80,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not (0 < learning_rate <= 1):
            raise ValueError("learning_rate must lie in (0, 1]")
        if not (0 < subsample <= 1):
            raise ValueError("subsample must lie in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.seed = seed
        self._trees: list[DecisionTreeRegression] = []
        self._base: float = 0.0

    def fit(self, X, y) -> "GradientBoostingRegression":
        X, y = check_xy(X, y)
        rng = make_rng(self.seed)
        n_samples = X.shape[0]
        self._base = float(y.mean())
        self._trees = []
        current = np.full(n_samples, self._base)
        for _ in range(self.n_estimators):
            residual = y - current
            if self.subsample < 1.0:
                size = min(n_samples, max(2, int(self.subsample * n_samples)))
                idx = rng.choice(n_samples, size=size, replace=False)
            else:
                idx = np.arange(n_samples)
            tree = DecisionTreeRegression(
                max_depth=self.max_depth, min_samples_split=4, min_samples_leaf=2
            )
            tree.fit(X[idx], residual[idx], rng=rng)
            update = tree.predict(X)
            current = current + self.learning_rate * update
            self._trees.append(tree)
        self._n_features = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        n = self._require_fitted()
        X = check_x(X, n)
        out = np.full(X.shape[0], self._base)
        for tree in self._trees:
            out = out + self.learning_rate * tree.predict(X)
        return out

    @property
    def n_trees(self) -> int:
        return len(self._trees)
