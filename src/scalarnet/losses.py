"""Composite training loss (MSE + Huber + warmed-up KL) and the evaluation
metrics: MSE, RMSE, MAE, R^2, concordance index, bin-wise RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import kl_term
from .errors import ConfigError, DataError
from .tensor import Tensor


@dataclass
class LossConfig:
    omega_mse: float = 0.7
    huber_delta: float = 1.0
    beta0: float = 1e-3
    warmup_fraction: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.omega_mse <= 1.0:
            raise ConfigError(f"omega_mse must be in [0, 1], got {self.omega_mse}")
        if self.huber_delta <= 0.0:
            raise ConfigError(f"huber_delta must be positive, got {self.huber_delta}")
        if self.beta0 < 0.0:
            raise ConfigError(f"beta0 must be nonnegative, got {self.beta0}")


def kl_weight(epoch: int, total_epochs: int, warmup_fraction: float = 0.1) -> float:
    """min(1, (epoch/total_epochs)/warmup_fraction): linear warmup that
    saturates after the first tenth of training."""
    return min(1.0, (epoch / total_epochs) / warmup_fraction)


def huber(residual: Tensor, delta: float) -> Tensor:
    """Elementwise Huber: r^2/2 inside |r| <= delta, delta*(|r| - delta/2) outside."""
    a = residual.abs()
    q = a.clamp(0.0, delta)
    return q * a - q * q * 0.5


def composite_loss(y, y_hat, mu, log_sigma, epoch, total_epochs, cfg: LossConfig):
    """Weighted MSE + Huber plus warmup-scaled KL.

    y is a plain array; y_hat (and mu/log_sigma when present) are graph
    tensors. Returns (total loss Tensor, parts dict of floats).
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y_hat.data.ndim != 1 or y_hat.data.shape[0] != y.shape[0]:
        raise ConfigError(
            f"target length {y.shape[0]} != prediction length {y_hat.data.shape}"
        )
    if not 0 <= epoch <= total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs}]")
    residual = y_hat - Tensor(y)
    mse = (residual * residual).mean()
    hub = huber(residual, cfg.huber_delta).mean()
    w_kl = kl_weight(epoch, total_epochs, cfg.warmup_fraction)
    total = cfg.omega_mse * mse + (1.0 - cfg.omega_mse) * hub
    parts = {
        "mse": float(mse.data),
        "huber": float(hub.data),
        "kl": 0.0,
        "kl_weight": w_kl,
    }
    if mu is not None and cfg.beta0 > 0.0:
        kl = kl_term(mu, log_sigma)
        total = total + (w_kl * cfg.beta0) * kl
        parts["kl"] = float(kl.data)
    return total, parts


def metrics(y, y_hat) -> dict:
    """Standard regression metrics; R^2 is 1 - SS_res/SS_tot about mean(y)."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if y.shape != y_hat.shape:
        raise DataError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    if y.shape[0] < 2:
        raise DataError("need at least 2 samples")
    err = y - y_hat
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise DataError("zero variance target")
    mse = float((err**2).mean())
    return {
        "mse": mse,
        "rmse": float(np.sqrt(mse)),
        "mae": float(np.abs(err).mean()),
        "r2": 1.0 - float((err**2).sum()) / ss_tot,
    }


def _equal_pairs(keys) -> int:
    """Unordered pairs of equal entries."""
    counts = np.unique(keys, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def _inversions(rank) -> int:
    """Pairs i < j with rank[i] > rank[j], by a bottom-up merge sort of the
    non-negative int ranks. Before each merge, every element of a right run
    counts the larger elements of its left run; keyed by run pair, all the
    left runs form one sorted array."""
    pos, m, count, w = np.arange(len(rank)), int(rank.max()) + 1, 0, 1
    while w < len(rank):
        pair = pos // (2 * w)
        key = pair * m + rank
        right = pos // w % 2 == 1
        left = key[~right]
        above = np.searchsorted(left, (pair[right] + 1) * m)
        count += int((above - np.searchsorted(left, key[right], side="right")).sum())
        rank, w = np.sort(key) - pair * m, 2 * w
    return count


def concordance_index(y, y_hat) -> float:
    """Fraction of pairs with distinct y ordered the same way by y_hat;
    prediction ties count 0.5. O(n log n) time, O(n) memory: with the rows
    sorted by (y, y_hat), the discordant pairs are the inversions of y_hat's
    ranks; comparable and tied pairs follow from the sizes of equal groups."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if y.shape != y_hat.shape:
        raise DataError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    n = y.shape[0]
    if n < 2:
        raise DataError("need at least 2 samples")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise DataError("concordance index needs finite targets and predictions")
    order = np.lexsort((y_hat, y))
    block = np.unique(y[order], return_inverse=True)[1]
    rank = np.unique(y_hat[order], return_inverse=True)[1]
    comparable = n * (n - 1) // 2 - _equal_pairs(block)  # Python ints: exact
    if comparable == 0:
        raise DataError("no comparable pairs: all targets equal")
    tied = _equal_pairs(rank) - _equal_pairs(block * n + rank)
    concordant = comparable - tied - _inversions(rank)
    return (concordant + 0.5 * tied) / comparable


def binwise_rmse(y, y_hat, n_bins: int):
    """RMSE inside equal-width target bins over [min y, max y].

    Returns a list of dicts {lo, hi, count, rmse}; empty bins carry
    rmse=None. The top bin is closed so max(y) is included.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    edges = np.linspace(y.min(), y.max(), n_bins + 1)
    out = []
    for i in range(n_bins):
        lo, hi = float(edges[i]), float(edges[i + 1])
        if i == n_bins - 1:
            sel = (y >= lo) & (y <= hi)
        else:
            sel = (y >= lo) & (y < hi)
        count = int(sel.sum())
        rmse = float(np.sqrt(((y[sel] - y_hat[sel]) ** 2).mean())) if count else None
        out.append({"lo": lo, "hi": hi, "count": count, "rmse": rmse})
    return out
