import warnings

import numpy as np
import pytest

from scalarnet.attention import FeatureGroupSpec
from scalarnet.baselines import (
    pls_fit,
    pls_predict,
    ridge_fit,
    ridge_predict,
    select_components,
)
from scalarnet.data import split, synth_nonlinear, take
from scalarnet.errors import ConfigError, ConvergenceError, NumericError
from scalarnet.losses import metrics


def svd_pls_oracle(x, y, n_components):
    """Independent PLS1 route: per component take the dominant direction of
    the cross-covariance (for univariate y this is the normalized X'y),
    computed via SVD, then deflate. Returns the prediction function."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    x_mean, x_std = x.mean(0), x.std(0)
    x_std = np.where(x_std == 0, 1.0, x_std)
    e = (x - x_mean) / x_std
    f = y - y.mean()
    ws, ps, qs = [], [], []
    for _ in range(n_components):
        cov = (e.T @ f)[:, None]  # p x 1 cross-covariance
        u_svd, _, _ = np.linalg.svd(cov, full_matrices=False)
        w = u_svd[:, 0]
        t = e @ w
        p_load = e.T @ t / (t @ t)
        q = (t @ f) / (t @ t)
        e = e - np.outer(t, p_load)
        f = f - q * t
        ws.append(w)
        ps.append(p_load)
        qs.append(q)
    w_mat = np.column_stack(ws)
    p_mat = np.column_stack(ps)
    coef = w_mat @ np.linalg.inv(p_mat.T @ w_mat) @ np.asarray(qs)

    def predict(xq):
        return ((np.asarray(xq) - x_mean) / x_std) @ coef + y.mean()

    return predict


class TestPls:
    def test_single_feature_equals_least_squares(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 1))
        y = 2.5 * x[:, 0] + 1.0 + rng.normal(size=30) * 0.1
        model = pls_fit(x, y, 1)
        slope, intercept = np.polyfit(x[:, 0], y, 1)
        pred = pls_predict(model, x)
        np.testing.assert_allclose(pred, slope * x[:, 0] + intercept, atol=1e-8)

    def test_exact_recovery_noiseless_linear(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 5))
        y = x @ np.array([1.0, -2.0, 0.5, 3.0, 0.0]) + 4.0
        model = pls_fit(x, y, 5)
        assert metrics(y, pls_predict(model, x))["r2"] == pytest.approx(1.0, abs=1e-8)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            x = rng.normal(size=(20, 5))
            y = rng.normal(size=20)
            for a in (1, 2, 3):
                model = pls_fit(x, y, a)
                oracle = svd_pls_oracle(x, y, a)
                np.testing.assert_allclose(
                    pls_predict(model, x), oracle(x), atol=1e-6
                )

    def test_score_orthogonality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 6))
        y = rng.normal(size=25)
        model = pls_fit(x, y, 4)
        e, scores = (x - model.x_mean) / model.x_scale, []
        for a in range(model.n_components):  # replay the deflation path
            scores.append(e @ model.x_weights[:, a])
            e = e - np.outer(scores[-1], model.x_loadings[:, a])
        t = np.column_stack(scores)
        gram = t.T @ t
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-8 * np.abs(np.diag(gram)).max()

    def test_component_bounds(self):
        x = np.random.default_rng(4).normal(size=(10, 3))
        y = np.random.default_rng(5).normal(size=10)
        with pytest.raises(ConfigError):
            pls_fit(x, y, 0)
        with pytest.raises(ConfigError):
            pls_fit(x, y, 4)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(15, 4)), rng.normal(size=15)
        a = pls_fit(x, y, 2)
        b = pls_fit(x, y, 2)
        assert np.array_equal(a.coef, b.coef)

    def test_select_components_cv_runs(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 8))
        y = x @ rng.normal(size=8)
        n = select_components(x, y, seed=0)
        assert 1 <= n <= 8
        # noiseless linear target: CV should find it needs few components well
        model = pls_fit(x, y, n)
        assert metrics(y, pls_predict(model, x))["r2"] > 0.99

    @pytest.mark.parametrize("seed", range(20))
    def test_count_above_rank_is_singular(self, seed):
        # a constant column leaves X rank p - 1, so P^T W at p components is
        # singular up to rounding, where inv() may still return coefs ~1e13
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(20, 201)), int(rng.integers(5, 14))
        x = rng.normal(size=(n, p))
        x[:, int(rng.integers(p))] = 1.5
        y = x[:, 0] - 2 * x[:, 1] + 0.1 * rng.normal(size=n)
        with pytest.raises(NumericError, match=f"singular at {p} components"):
            pls_fit(x, y, p).coef
        assert np.abs(pls_fit(x, y, p - 1).coef).max() < 10.0

    def test_constant_target_fails_at_once(self):
        x = np.random.default_rng(8).normal(size=(12, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="component 1"):
                pls_fit(x, np.full(12, 3.0), 1)


def refit_select_reference(x, y, seed, max_components=20, k_folds=5):
    """Per-count refit CV: every candidate count is fitted from scratch on
    every fold; a count a fold's rows or X's rank cannot support scores an
    infinite MSE."""
    n, p = x.shape
    hi = max(min(max_components, n - 1 - n // k_folds, p), 1)
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k_folds)
    best_a, best_mse = 1, np.inf
    for a in range(1, hi + 1):
        sse = 0.0
        for i in range(k_folds):
            train_idx = np.concatenate([folds[j] for j in range(k_folds) if j != i])
            try:
                pred = pls_predict(pls_fit(x[train_idx], y[train_idx], a), x[folds[i]])
            except (ConfigError, NumericError):
                sse = np.inf
                break
            sse += float(((pred - y[folds[i]]) ** 2).sum())
        if sse / n < best_mse - 1e-15:
            best_a, best_mse = a, sse / n
    return best_a


class TestSelectComponents:
    def test_first_components_are_the_smaller_fit(self):
        rng = np.random.default_rng(9)
        for n, p in ((20, 5), (9, 14), (40, 6)):
            x, y = rng.normal(size=(n, p)), rng.normal(size=n)
            full = pls_fit(x, y, min(n - 1, p))
            for a in range(1, full.n_components + 1):
                part, alone = full.first(a), pls_fit(x, y, a)
                for name in ("x_weights", "x_loadings", "y_loadings", "coef"):
                    got, want = getattr(part, name), getattr(alone, name)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (n, p, a, name)

    # n % 5 != 0 throughout; (7, 6) and (23, 30) make some folds too small
    # for the largest count, and the constant column makes P^T W singular
    # above the rank of X
    @pytest.mark.parametrize(
        "n, p, constant_column",
        [(7, 6, False), (13, 4, False), (23, 30, False), (61, 8, False), (41, 6, True)],
    )
    def test_matches_per_count_refit(self, n, p, constant_column):
        rng = np.random.default_rng(n * p)
        x = rng.normal(size=(n, p))
        if constant_column:
            x[:, 2] = 1.5
        y = np.tanh(x[:, 0]) + x[:, 1] + 0.3 * rng.normal(size=n)
        for seed in range(4):
            assert select_components(x, y, seed=seed) == refit_select_reference(x, y, seed)

    def test_rounding_noise_component(self):
        # the benchmark's score_cli rows for seed 34, where the last
        # candidate component's covariance with y is only rounding noise
        ds = synth_nonlinear(5800, FeatureGroupSpec([(0, 6), (6, 12)]), 0.1, 34)
        rows = take(ds, split(ds, 5000 / 5800, seed=34).test)
        tr = take(rows, split(rows, 0.2, seed=34).train)
        assert select_components(tr.x, tr.y, seed=34) == 2


def ridge_gd_oracle(x, y, lam, lr=1e-3, steps=200_000):
    """Gradient descent to convergence on the centered ridge objective."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    xc = x - x.mean(0)
    yc = y - y.mean()
    w = np.zeros(x.shape[1])
    for _ in range(steps):
        grad = 2 * xc.T @ (xc @ w - yc) + 2 * lam * w
        w -= lr * grad / len(y)
        if np.linalg.norm(grad) < 1e-12:
            break
    return w


class TestRidge:
    def test_lambda_zero_is_ols(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = ridge_fit(x, y, 0.0)
        xc = x - x.mean(0)
        w_ols, *_ = np.linalg.lstsq(xc, y - y.mean(), rcond=None)
        np.testing.assert_allclose(model.weights, w_ols, atol=1e-10)

    def test_huge_lambda_shrinks_to_mean(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        model = ridge_fit(x, y, 1e12)
        assert np.abs(model.weights).max() < 1e-9
        np.testing.assert_allclose(ridge_predict(model, x), y.mean(), atol=1e-8)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        model = ridge_fit(x, y, 0.5)
        w_gd = ridge_gd_oracle(x, y, 0.5)
        np.testing.assert_allclose(model.weights, w_gd, atol=1e-6)

    def test_singular_at_zero_lambda(self):
        x = np.zeros((10, 3))
        x[:, 0] = np.arange(10)
        x[:, 1] = 2 * np.arange(10)  # linearly dependent
        y = np.random.default_rng(3).normal(size=10)
        with pytest.raises(NumericError, match="lambda"):
            ridge_fit(x, y, 0.0)

    def test_fit_improves_as_lambda_decreases(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 4))
        y = x @ rng.normal(size=4) + rng.normal(size=30) * 0.1
        losses = []
        for lam in (100.0, 10.0, 1.0, 0.01):
            m = ridge_fit(x, y, lam)
            losses.append(((ridge_predict(m, x) - y) ** 2).mean())
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            ridge_fit(np.zeros((4, 2)), np.zeros(4), -1.0)
