"""Classical reference regressors: PLS1 and closed-form ridge.

With a single response the NIPALS weight vector is the normalized covariance
E^T f, so PLS1 takes one pass per component. Components come in sequence: the
first `a` of a larger fit are the a-component fit, so CV fits each fold once.
X is standardized (zero mean, unit population variance) and y centered
inside fit; predictions are returned on the original target scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericError

MAX_COMPONENTS = 20
K_FOLDS = 5


@dataclass
class PlsModel:
    n_components: int
    x_weights: np.ndarray  # (p, a)
    x_loadings: np.ndarray  # (p, a)
    y_loadings: np.ndarray  # (a,)
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float

    @property
    def coef(self) -> np.ndarray:
        """W (P^T W)^-1 q on the scaled/centered scale, equivalent to the
        deflation path. P^T W counts as singular below numpy's default
        numerical rank, as it is once a component is fit to rounding noise."""
        ptw = self.x_loadings.T @ self.x_weights
        if np.linalg.matrix_rank(ptw) < self.n_components:
            raise NumericError(
                f"P^T W is singular at {self.n_components} components; X has lower rank"
            )
        return self.x_weights @ np.linalg.inv(ptw) @ self.y_loadings

    def first(self, a: int) -> "PlsModel":
        """The a-component fit: the first `a` components of this one."""
        w, p, q = self.x_weights[:, :a], self.x_loadings[:, :a], self.y_loadings[:a]
        return replace(self, n_components=a, x_weights=w, x_loadings=p, y_loadings=q)


def pls_fit(x, y, n_components: int) -> PlsModel:
    """Fit PLS1 with deflation, one pass per component.

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
    e = (x - x_mean) / x_scale
    f = y - y_mean

    weights, loadings, y_loads = [], [], []
    for a in range(n_components):
        with np.errstate(divide="ignore", invalid="ignore"):
            w = e.T @ f / (f @ f)
        norm = np.linalg.norm(w)
        if not 0.0 < norm < np.inf:  # zero, or NaN once y is exhausted
            raise ConvergenceError(f"zero weight vector at component {a + 1}")
        w /= norm
        t = e @ w
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
    return ((x - model.x_mean) / model.x_scale) @ model.coef + model.y_mean


def select_components(x, y, seed):
    """Pick the PLS component count with the lowest k-fold CV MSE, fitting
    each fold once; a count a fold cannot support scores an infinite MSE."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, p = x.shape
    hi = max(min(MAX_COMPONENTS, n - 1 - n // K_FOLDS, p), 1)
    folds = np.array_split(np.random.default_rng(seed).permutation(n), K_FOLDS)
    sse = np.zeros(hi)
    for i, test_idx in enumerate(folds):
        train_idx = np.concatenate(folds[:i] + folds[i + 1 :])
        top = min(hi, len(train_idx) - 1)  # a fit needs more rows than components
        sse[max(top, 0) :] = np.inf
        fit = pls_fit(x[train_idx], y[train_idx], top) if top >= 1 else None
        for a in range(1, top + 1):
            try:
                pred = pls_predict(fit.first(a), x[test_idx])
            except NumericError:  # P^T W is singular: `a` exceeds the rank of X
                sse[a - 1] = np.inf
            else:
                sse[a - 1] += float(((pred - y[test_idx]) ** 2).sum())
    best_a, best_mse = 1, np.inf
    for a, mse in enumerate(sse / n, start=1):
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
