"""Classical reference regressors: NIPALS PLS and closed-form ridge.

X is standardized (zero mean, unit population variance) and y centered
inside fit; predictions are returned on the original target scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericError

NIPALS_TOL = 1e-10
NIPALS_MAX_ITER = 500


@dataclass
class PlsModel:
    n_components: int
    x_weights: np.ndarray  # (p, a)
    x_loadings: np.ndarray  # (p, a)
    y_loadings: np.ndarray  # (a,)
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    coef: np.ndarray = field(default=None)  # (p,), on the scaled/centered scale

    def __post_init__(self):
        if self.coef is None:
            # W (P^T W)^-1 q: regression vector equivalent to the deflation path
            r = self.x_weights @ np.linalg.inv(self.x_loadings.T @ self.x_weights)
            self.coef = r @ self.y_loadings


def _scale_x(x, mean, scale):
    return (x - mean) / scale


def pls_fit(x, y, n_components: int) -> PlsModel:
    """Fit PLS1 by NIPALS with deflation.

    Parameters
    ----------
    x: (n, p) design matrix.
    y: (n,) target.
    n_components: number of latent components, within [1, min(n-1, p)].
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, p = x.shape
    if not 1 <= n_components <= min(n - 1, p):
        raise ConfigError(
            f"n_components={n_components} outside [1, {min(n - 1, p)}] for "
            f"{n}x{p} data"
        )
    x_mean = x.mean(axis=0)
    x_scale = x.std(axis=0)
    x_scale[x_scale == 0.0] = 1.0
    y_mean = float(y.mean())
    e = _scale_x(x, x_mean, x_scale)
    f = y - y_mean

    weights, loadings, y_loads = [], [], []
    for a in range(n_components):
        u = f.copy()
        for _ in range(NIPALS_MAX_ITER):
            w = e.T @ u / (u @ u)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                raise ConvergenceError(f"zero weight vector at component {a + 1}")
            w /= norm
            t = e @ w
            c = (t @ f) / (t @ t)
            u_new = f * c / (c * c)
            # converged when the y-score direction is stationary
            # (sign-invariant: u and -u describe the same component)
            ud, nd = u / np.linalg.norm(u), u_new / np.linalg.norm(u_new)
            diff = min(np.linalg.norm(nd - ud), np.linalg.norm(nd + ud))
            if diff <= NIPALS_TOL:
                break
            u = u_new
        else:
            raise ConvergenceError(
                f"NIPALS did not converge at component {a + 1} "
                f"after {NIPALS_MAX_ITER} iterations"
            )
        pa = e.T @ t / (t @ t)
        qa = (t @ f) / (t @ t)
        e = e - np.outer(t, pa)
        f = f - qa * t
        weights.append(w)
        loadings.append(pa)
        y_loads.append(qa)

    return PlsModel(
        n_components=n_components,
        x_weights=np.column_stack(weights),
        x_loadings=np.column_stack(loadings),
        y_loadings=np.asarray(y_loads),
        x_mean=x_mean,
        x_scale=x_scale,
        y_mean=y_mean,
    )


def pls_predict(model: PlsModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return _scale_x(x, model.x_mean, model.x_scale) @ model.coef + model.y_mean


def select_components(x, y, max_components=20, k_folds=5, seed=0):
    """Pick the PLS component count with the lowest k-fold CV MSE."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, p = x.shape
    hi = max(min(max_components, n - 1 - n // k_folds, p), 1)
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k_folds)
    best_a, best_mse = 1, np.inf
    for a in range(1, hi + 1):
        sse, cnt = 0.0, 0
        for i in range(k_folds):
            test_idx = folds[i]
            train_idx = np.concatenate([folds[j] for j in range(k_folds) if j != i])
            try:
                m = pls_fit(x[train_idx], y[train_idx], a)
            except ConfigError:
                sse = np.inf
                break
            pred = pls_predict(m, x[test_idx])
            sse += float(((pred - y[test_idx]) ** 2).sum())
            cnt += len(test_idx)
        mse = sse / max(cnt, 1)
        if mse < best_mse - 1e-15:
            best_a, best_mse = a, mse
    return best_a


@dataclass
class RidgeModel:
    weights: np.ndarray  # (p,), on centered data
    x_mean: np.ndarray
    y_mean: float


def ridge_fit(x, y, lam: float) -> RidgeModel:
    """Closed-form ridge on centered data: solve (X^T X + lam I) w = X^T y."""
    if lam < 0.0:
        raise ConfigError(f"lambda must be nonnegative, got {lam}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    p = x.shape[1]
    a = xc.T @ xc + lam * np.eye(p)
    try:
        cho = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "singular normal equations; rank-deficient X at lambda=0 -- "
            "use lambda > 0"
        ) from exc
    w = np.linalg.solve(cho.T, np.linalg.solve(cho, xc.T @ yc))
    return RidgeModel(weights=w, x_mean=x_mean, y_mean=y_mean)


def ridge_predict(model: RidgeModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return (x - model.x_mean) @ model.weights + model.y_mean
