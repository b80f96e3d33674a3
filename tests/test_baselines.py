import numpy as np
import pytest

from scalarnet.baselines import (
    PlsModel,
    pls_fit,
    pls_predict,
    ridge_fit,
    ridge_predict,
    select_components,
)
from scalarnet.errors import ConfigError, NumericError
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
