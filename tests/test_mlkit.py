"""Tests for the from-scratch regression toolkit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mlkit import (
    ARDRegression,
    DecisionTreeRegression,
    GradientBoostingRegression,
    KNeighborsRegression,
    LinearRegression,
    MLPRegression,
    PassiveAggressiveRegression,
    RandomForestRegression,
    RidgeRegression,
    SVR,
    StandardScaler,
    TheilSenRegression,
    default_regressors,
    mean_squared_error,
    paper_accuracy,
    r2_score,
)
from repro.utils.seeding import make_rng


def linear_data(n=120, noise=0.05, seed=0):
    rng = make_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = 2.0 * X[:, 0] - 1.5 * X[:, 1] + 0.5 + noise * rng.standard_normal(n)
    return X, y


def nonlinear_data(n=200, seed=0):
    rng = make_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.05 * rng.standard_normal(n)
    return X, y


class TestMetricsAndScaler:
    def test_mse_and_r2(self):
        assert mean_squared_error([1, 2], [1, 2]) == 0.0
        assert r2_score([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert paper_accuracy([2.0], [2.0]) == pytest.approx(1.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_error([1, 2], [1])

    def test_standard_scaler_roundtrip(self):
        X, _ = linear_data()
        scaler = StandardScaler()
        Xs = scaler.fit_transform(X)
        assert np.allclose(Xs.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(Xs.std(axis=0), 1, atol=1e-9)
        assert np.allclose(scaler.inverse_transform(Xs), X)

    def test_scaler_requires_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform([[1.0, 2.0]])

    def test_scaler_constant_feature(self):
        X = np.ones((10, 2))
        Xs = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Xs))


class TestLinearFamily:
    def test_ols_recovers_coefficients(self):
        X, y = linear_data(noise=0.0)
        model = LinearRegression().fit(X, y)
        assert model.coef_ == pytest.approx([2.0, -1.5, 0.0], abs=1e-6)
        assert model.intercept_ == pytest.approx(0.5, abs=1e-6)
        assert model.score(X, y) > 0.999

    def test_ridge_shrinks_towards_zero(self):
        X, y = linear_data(noise=0.0)
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(alpha=100.0).fit(X, y)
        assert abs(ridge.coef_[0]) < abs(ols.coef_[0])
        assert ridge.score(X, y) > 0.8

    def test_theil_sen_robust_to_outliers(self):
        X, y = linear_data(noise=0.01, seed=1)
        y_corrupted = y.copy()
        y_corrupted[:5] += 100.0
        tsr = TheilSenRegression(seed=0).fit(X, y_corrupted)
        ols = LinearRegression().fit(X, y_corrupted)
        truth = np.array([2.0, -1.5, 0.0])
        assert np.linalg.norm(tsr.coef_ - truth) < np.linalg.norm(ols.coef_ - truth)

    def test_passive_aggressive_learns_linear_map(self):
        X, y = linear_data(noise=0.01)
        model = PassiveAggressiveRegression(seed=0).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_ard_prunes_irrelevant_features(self):
        rng = make_rng(0)
        X = rng.standard_normal((150, 5))
        y = 3.0 * X[:, 0] + 0.02 * rng.standard_normal(150)
        model = ARDRegression().fit(X, y)
        assert model.score(X, y) > 0.95
        assert 0 in model.relevant_features()
        assert abs(model.coef_[0]) > 10 * abs(model.coef_[3])

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict([[1.0, 2.0, 3.0]])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            LinearRegression().fit(np.ones(3), np.ones(3))


class TestTreesAndEnsembles:
    def test_decision_tree_fits_nonlinear_function(self):
        X, y = nonlinear_data()
        model = DecisionTreeRegression(max_depth=8).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_decision_tree_feature_importances_sum_to_one(self):
        X, y = nonlinear_data()
        model = DecisionTreeRegression().fit(X, y)
        assert model.feature_importances_ is not None
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_decision_tree_constant_target(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 3.0)
        model = DecisionTreeRegression().fit(X, y)
        assert np.allclose(model.predict(X), 3.0)

    def test_random_forest_beats_single_tree_on_holdout(self):
        X, y = nonlinear_data(n=300, seed=2)
        X_train, y_train = X[:200], y[:200]
        X_test, y_test = X[200:], y[200:]
        tree = DecisionTreeRegression(max_depth=4).fit(X_train, y_train)
        forest = RandomForestRegression(n_estimators=20, max_depth=4, seed=0).fit(
            X_train, y_train
        )
        assert forest.score(X_test, y_test) >= tree.score(X_test, y_test) - 0.05

    def test_gradient_boosting_improves_with_stages(self):
        X, y = nonlinear_data(n=200, seed=3)
        small = GradientBoostingRegression(n_estimators=5, seed=0).fit(X, y)
        large = GradientBoostingRegression(n_estimators=80, seed=0).fit(X, y)
        assert large.score(X, y) > small.score(X, y)
        assert large.n_trees == 80

    def test_gradient_boosting_subsample_of_a_single_sample(self):
        model = GradientBoostingRegression(n_estimators=3, subsample=0.5, seed=0)
        model.fit([[1.0, 2.0]], [4.0])
        assert model.predict([[1.0, 2.0], [5.0, 0.0]]).tolist() == [4.0, 4.0]

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegression(max_depth=0)
        with pytest.raises(ValueError):
            RandomForestRegression(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegression(learning_rate=0)


class TestKnnSvrMlp:
    def test_knn_interpolates_locally(self):
        X, y = nonlinear_data()
        model = KNeighborsRegression(n_neighbors=3).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_knn_exact_point_returns_exact_value(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = KNeighborsRegression(n_neighbors=2).fit(X, y)
        assert model.predict([[1.0]])[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("kernel", ["linear", "poly", "rbf"])
    def test_svr_kernels_fit_reasonably(self, kernel):
        X, y = linear_data(n=80, noise=0.02)
        model = SVR(kernel=kernel, max_iter=150, seed=0).fit(X, y)
        assert model.score(X, y) > 0.7
        assert model.n_support_ > 0

    def test_svr_invalid_kernel(self):
        with pytest.raises(ValueError):
            SVR(kernel="sigmoid")

    @pytest.mark.parametrize("solver", ["sgd", "adam", "lbfgs"])
    def test_mlp_solvers_fit_linear_data(self, solver):
        X, y = linear_data(n=100, noise=0.02)
        model = MLPRegression(hidden_sizes=(16,), solver=solver, max_iter=200, seed=0).fit(X, y)
        assert model.score(X, y) > 0.8

    def test_mlp_invalid_solver(self):
        with pytest.raises(ValueError):
            MLPRegression(solver="rmsprop")


class TestDefaultRegressors:
    def test_zoo_contains_the_papers_models(self):
        zoo = default_regressors()
        for name in ("gradient_boosting", "k_neighbors", "tsr", "ols", "par",
                     "svr_rbf", "ard", "mlp_adam"):
            assert name in zoo

    def test_every_default_regressor_fits_and_predicts(self):
        X, y = linear_data(n=60)
        for name, model in default_regressors().items():
            model.fit(X, y)
            preds = model.predict(X[:5])
            assert preds.shape == (5,), name
            assert np.all(np.isfinite(preds)), name
