"""The regression tree's split search, one position at a time: a test oracle.

``repro.mlkit.tree.DecisionTreeRegression._best_split`` screens every
split of a node in one numpy pass and rescores the near-best ones with
the scalar formula.  This is the search written the direct way — every
legal position of every candidate feature scored by that formula, in
candidate-feature order, then ascending position, the first strict
maximum winning — kept here only so the tests can check that the
screened search picks exactly the split, threshold and impurity decrease
this one does.
"""

from __future__ import annotations

import numpy as np


def reference_best_split(tree, X: np.ndarray, y: np.ndarray) -> tuple[int, float, float] | None:
    """Return (feature, threshold, impurity_decrease) or None."""
    n_samples, n_features = X.shape
    parent_var = float(np.var(y)) * n_samples
    best: tuple[int, float, float] | None = None
    for feature in tree._candidate_features(n_features):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        # Prefix sums for O(n) evaluation of every split position.
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys**2)
        total_sum = csum[-1]
        total_sq = csum_sq[-1]
        for i in range(tree.min_samples_leaf, n_samples - tree.min_samples_leaf + 1):
            if i < 1 or i >= n_samples:
                continue
            if xs[i - 1] == xs[i]:
                continue
            left_n = i
            right_n = n_samples - i
            left_sum, left_sq = csum[i - 1], csum_sq[i - 1]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            left_var = left_sq - left_sum**2 / left_n
            right_var = right_sq - right_sum**2 / right_n
            decrease = parent_var - (left_var + right_var)
            if best is None or decrease > best[2]:
                threshold = 0.5 * (xs[i - 1] + xs[i])
                best = (int(feature), float(threshold), float(decrease))
    if best is None or best[2] <= 1e-12:
        return None
    return best
