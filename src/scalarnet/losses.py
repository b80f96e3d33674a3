"""Composite training loss (MSE + Huber + warmed-up KL) and the evaluation
metrics: MSE, RMSE, MAE, R^2, concordance index, bin-wise RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_cells
from .tensor import Tensor, _node


@dataclass
class LossConfig:
    omega_mse: float = 0.7
    huber_delta: float = 1.0
    beta0: float = 1e-3
    warmup_fraction: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.omega_mse <= 1.0:
            raise ConfigError(f"omega_mse must be in [0, 1], got {self.omega_mse}")
        if not self.huber_delta > 0.0:
            raise ConfigError(f"huber_delta must be positive, got {self.huber_delta}")
        if not self.beta0 >= 0.0:
            raise ConfigError(f"beta0 must be nonnegative, got {self.beta0}")
        if not self.warmup_fraction > 0.0:
            raise ConfigError(
                f"warmup_fraction must be positive, got {self.warmup_fraction}"
            )


def kl_weight(epoch: int, total_epochs: int, warmup_fraction: float = 0.1) -> float:
    """min(1, (epoch/total_epochs)/warmup_fraction): linear warmup that
    saturates after the first tenth of training."""
    return min(1.0, (epoch / total_epochs) / warmup_fraction)


@np.errstate(all="ignore")
def loss(y_hat: Tensor, y: np.ndarray, latent, omega: float, delta: float,
         kl_scale: float):
    """omega·mean(r²) + (1−omega)·mean(huber(r)) for r = y_hat − y, where
    huber(r) is r²/2 inside |r| <= delta and delta·(|r| − delta/2) outside,
    plus kl_scale·KL when `latent` (an `encode` node) is given: the batch-mean
    KL divergence of N(μ, σ²I) from N(0, I), floored at 0 where it rounds
    below (a NaN stays NaN). One node. Returns (the scalar node, the MSE, the
    mean Huber and the KL as floats)."""
    r = y_hat.data - y
    mse = (r * r).mean()
    a = np.abs(r)
    q = np.clip(a, 0.0, delta)
    hub = (q * a - q * q * 0.5).mean()
    value, kl, parents = mse * omega + hub * (1.0 - omega), 0.0, (y_hat,)
    if latent is not None:
        mu, log_sigma = latent.data
        scale, parents = 0.5 / mu.shape[0], (y_hat, latent)
        ls2 = log_sigma * 2.0
        var = np.exp(ls2)
        kl = max((mu * mu + var - ls2 - 1.0).sum() * scale, 0.0)
        value = value + kl * kl_scale

    def backward(g):
        # d huber/dr = clip(r, -delta, delta), on both sides of delta
        dr = omega * 2.0 * r + (1.0 - omega) * np.clip(r, -delta, delta)
        y_hat.grad += g * dr / r.size
        if latent is not None:
            gk = g * kl_scale * scale
            latent.grad[0] += gk * 2.0 * mu
            latent.grad[1] += gk * 2.0 * (var - 1.0)

    return _node("loss", value, parents, backward), float(mse), float(hub), float(kl)


def composite_loss(y, y_hat, latent, epoch, total_epochs, cfg: LossConfig):
    """Weighted MSE + Huber plus warmup-scaled KL, as one `loss` node.

    y is a plain array; y_hat and the `encode` node `latent` (None without
    the variational block) are graph tensors. Returns (total loss Tensor,
    parts dict of floats).
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y_hat.data.ndim != 1 or y_hat.data.shape[0] != y.shape[0]:
        raise ConfigError(
            f"target length {y.shape[0]} != prediction length {y_hat.data.shape}"
        )
    if not 0 <= epoch <= total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs}]")
    w_kl = kl_weight(epoch, total_epochs, cfg.warmup_fraction)
    total, mse, hub, kl = loss(y_hat, y, latent if cfg.beta0 > 0.0 else None,
                               cfg.omega_mse, cfg.huber_delta, w_kl * cfg.beta0)
    return total, {"mse": mse, "huber": hub, "kl": kl, "kl_weight": w_kl}


def _targets_and_predictions(y, y_hat):
    """y and y_hat as equal-length float64 vectors of at least 2 finite values."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if y.shape != y_hat.shape:
        raise DataError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    if y.shape[0] < 2:
        raise DataError("need at least 2 samples")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise DataError("metrics need finite targets and predictions")
    return y, y_hat


def metrics(y, y_hat) -> dict:
    """Standard regression metrics; R^2 is 1 - SS_res/SS_tot about mean(y)."""
    y, y_hat = _targets_and_predictions(y, y_hat)
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
    y, y_hat = _targets_and_predictions(y, y_hat)
    n = y.shape[0]
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
    y, y_hat = _targets_and_predictions(y, y_hat)
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    check_cells(f"{n_bins} bins", n_bins + 1)
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
