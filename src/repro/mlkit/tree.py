"""CART-style decision-tree regression.

Used directly (the paper's "decision tree" regressor), as the base learner
of the random forest and gradient boosting, and as the feature-importance
estimator for the paper's counter-feature selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mlkit.base import Regressor, check_x, check_xy

_EPS = float(np.finfo(float).eps)

#: Node scales ``Q + P`` (see ``_best_split``) for which the screen's error
#: bound holds: far enough above underflow that no rounding is subnormal,
#: and with ``n * (Q + P)`` far enough below overflow that nothing overflows.
_SCREEN_RANGE = (2.0**-960, 2.0**1020)


@dataclass
class _Node:
    """A node of the regression tree."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None


class DecisionTreeRegression(Regressor):
    """Variance-reduction CART regressor.

    Splits greedily on the (feature, threshold) pair that minimises the
    weighted child variance; accumulates per-feature impurity reduction as
    ``feature_importances_``.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: int | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._root: _Node | None = None
        self.feature_importances_: np.ndarray | None = None
        self._rng: np.random.Generator | None = None

    # -- fitting -----------------------------------------------------------------

    def fit(self, X, y, *, rng: np.random.Generator | None = None) -> "DecisionTreeRegression":
        X, y = check_xy(X, y)
        self._n_features = X.shape[1]
        self._rng = rng
        self._importances = np.zeros(X.shape[1])
        self._root = self._build(X, y, depth=0)
        total = self._importances.sum()
        self.feature_importances_ = (
            self._importances / total if total > 0 else np.zeros(X.shape[1])
        )
        return self

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        k = max(1, self.max_features)
        if self._rng is None:
            return np.arange(k)
        return self._rng.choice(n_features, size=k, replace=False)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, float] | None:
        """Return (feature, threshold, impurity_decrease) or None.

        A split at position ``i`` of a feature sends that feature's ``i``
        smallest rows left.  Legal positions leave ``min_samples_leaf``
        rows (and at least one) on each side, between distinct values.
        The winner is the first strict maximum of the impurity decrease
        in candidate-feature order, then ascending position.

        One numpy pass scores every (feature, position) at once, but only
        to screen: it squares sums as ``x * x`` while the scalar formula
        squares with ``** 2`` (libm ``pow``), and the two can differ by an
        ulp.  Every position whose screened score lies within a proven
        bound of the best is rescored with the scalar formula in visit
        order, so the split, threshold and decrease are bit-identical to
        a scan of every position.  Where the bound does not hold (|y| of
        about 1e153 / n or more, or every |y| below about 1e-145) every
        legal position is rescored: that is the scan itself, in which a
        NaN first score is never beaten.
        """
        n_samples, n_features = X.shape
        parent_var = float(np.var(y)) * n_samples
        features = self._candidate_features(n_features)
        first = max(self.min_samples_leaf, 1)
        last = min(n_samples - self.min_samples_leaf, n_samples - 1)
        if first > last:
            return None
        order = X[:, features].argsort(axis=0, kind="stable")
        xs = X[order, features]
        ys = y[order]
        # Prefix sums: each column accumulates in the same order as a 1-D
        # cumsum of that column alone.
        csum = ys.cumsum(axis=0)
        csum_sq = (ys * ys).cumsum(axis=0)
        legal = xs[first - 1 : last] != xs[first : last + 1]
        if not legal.any():
            return None
        # Screen error bound.  Write Q for the largest total sum of squares,
        # P for parent_var (>= 0) and eps for the machine epsilon.  The
        # screen and the scalar formula run the same correctly rounded
        # operations on the same operands except the squares, where libm
        # pow is within 1 ulp (<= eps * s**2) of s * s.  Two roundings of
        # nearby values differ by at most the input difference plus
        # eps * |result|, and by Cauchy-Schwarz s**2 / m is at most the
        # sum of squares of its side, L2 or R2 (L2 + R2 = Q).  So on the
        # left s**2 / m differs by <= 2 eps L2 and left_sq - s**2 / m by
        # <= 3 eps L2; the right likewise, so their sum differs by
        # <= 3 eps Q + eps Q and the final subtraction from P by
        # <= 4 eps Q + eps (P + Q).  Every screened score is therefore
        # within E = 5 eps (Q + P) of its exact value, and an exact maximum
        # screens at >= max(screen) - 2E.  A window of 16 eps (Q + P), 3.2E,
        # holds every position that can win, with room for the cumsum
        # rounding that Cauchy-Schwarz ignores.  The bound assumes no
        # square overflows or goes subnormal; outside _SCREEN_RANGE the
        # window is every legal position.
        scale = float(csum_sq[-1].max()) + parent_var
        if _SCREEN_RANGE[0] < scale and n_samples * scale < _SCREEN_RANGE[1]:
            left_n = np.arange(first, last + 1)[:, None]
            left_sum, left_sq = csum[first - 1 : last], csum_sq[first - 1 : last]
            right_sum, right_sq = csum[-1] - left_sum, csum_sq[-1] - left_sq
            screen = parent_var - (
                (left_sq - left_sum * left_sum / left_n)
                + (right_sq - right_sum * right_sum / (n_samples - left_n))
            )
            screen[~legal] = -np.inf
            window = screen >= screen.max() - 16 * _EPS * scale
        else:
            window = legal
        best: tuple[int, float, float] | None = None
        for column, position in zip(*np.nonzero(window.T)):
            i = first + int(position)
            left_sum, left_sq = csum[i - 1, column], csum_sq[i - 1, column]
            right_sum = csum[-1, column] - left_sum
            right_sq = csum_sq[-1, column] - left_sq
            left_var = left_sq - left_sum**2 / i
            right_var = right_sq - right_sum**2 / (n_samples - i)
            decrease = parent_var - (left_var + right_var)
            if best is None or decrease > best[2]:
                threshold = 0.5 * (xs[i - 1, column] + xs[i, column])
                best = (int(features[column]), float(threshold), float(decrease))
        if best is None or best[2] <= 1e-12:
            return None
        return best

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(y.mean()))
        if (
            depth >= self.max_depth
            or X.shape[0] < self.min_samples_split
            or np.all(y == y[0])
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold, decrease = split
        self._importances[feature] += decrease
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    # -- prediction ---------------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        n = self._require_fitted()
        X = check_x(X, n)
        assert self._root is not None
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                assert node.left is not None and node.right is not None
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out
