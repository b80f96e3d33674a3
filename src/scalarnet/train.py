"""Training loop (Adam, gradient clipping, early stopping), checkpointing,
evaluation, the data-fraction ablation harness, and full-model gradient
checking against central finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .data import (
    Dataset,
    Scaler,
    destandardize_predictions,
    split,
    standardize,
    take,
)
from .errors import ConfigError, NumericError
from .head import feature_importance
from .losses import LossConfig, binwise_rmse, composite_loss, metrics
from .model import ModelConfig, ScalarModel, _check_fields
from .tensor import Rng

CHECKPOINT_VERSION = 1
SCALER_KEYS = ("x_mean", "x_std", "y_mean", "y_std")
EVAL_ROWS = 4096  # most rows in one eval-mode forward of predict and importance
# Eval chunks start on multiples of EVAL_ALIGN rows. OpenBLAS (0.3.31) rounds
# some rows of a one-column product, such as phi_y's last layer, differently
# when a call starts at an unaligned row; aligned chunks give the bits of one
# full-batch forward on the 12-feature config at 1 BLAS thread.
EVAL_ALIGN = 64


class Adam:
    """Adaptive-moment gradient descent with global-norm gradient clipping
    over a model's flat buffers.

    The model owns the parameters (`model.flat`) and their gradients
    (`model.grad_flat`); Adam keeps its moments `m` and `v`, the step count
    `t` and `lr`, and updates `model.flat` in place with a few whole-buffer
    array operations, reading the gradients where backward left them.
    `params` names the model's parameters, to report a missing gradient.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model: ScalarModel, lr: float):
        self.params = model.named_parameters()
        self.flat, self.grad_flat = model.flat, model.grad_flat
        self.lr = lr
        self.t = 0
        self.m = np.zeros(self.flat.size)
        self.v = np.zeros(self.flat.size)

    def step(self, clip_norm: float, reached):
        """Update from the gradients of the backward that reached the leaves
        `reached` (what `Tensor.backward` returns); a parameter it did not
        reach holds no gradient of that backward, and raises NumericError."""
        seen = set(map(id, reached))
        missing = [k for k, p in self.params.items() if id(p) not in seen]
        if missing:
            raise NumericError(f"missing gradients for {missing[:3]}")
        g = self.grad_flat
        total = math.sqrt(float(g @ g))
        if total > clip_norm:
            g = g * (clip_norm / total)
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        self.m *= self.BETA1
        self.m += (1.0 - self.BETA1) * g
        self.v *= self.BETA2
        self.v += (1.0 - self.BETA2) * g * g
        self.flat -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.EPS)


@dataclass
class Checkpoint:
    format_version: int
    config: dict
    params: dict  # path -> nested lists
    scaler: dict
    best_val_loss: float
    epoch: int

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(vars(self), fh)  # the fields, in declaration order

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        names = {f.name for f in fields(cls)}
        if not isinstance(raw, dict) or raw.keys() != names:
            raise ConfigError(
                f"{path}: a checkpoint is a JSON object with exactly the fields "
                f"{sorted(names)}"
            )
        if raw["format_version"] != CHECKPOINT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint format_version {raw['format_version']}"
            )
        if not (isinstance(raw["config"], dict) and isinstance(raw["params"], dict)):
            raise ConfigError(f"{path}: checkpoint config and params must be JSON objects")
        _check_fields(cls, raw, "checkpoint")  # a finite best_val_loss, an int epoch
        if raw["epoch"] < 0:
            raise ConfigError(f"{path}: checkpoint epoch must be >= 0, got {raw['epoch']}")
        return cls(**raw)

    def build_model(self, scaler: Scaler = None) -> ScalarModel:
        """The model with this checkpoint's parameters, for the width of
        `scaler`, a checked `get_scaler()` (made here when None)."""
        cfg = ModelConfig.from_dict(self.config)
        if scaler is None:
            scaler = self.get_scaler()
        model = ScalarModel(cfg, len(scaler.x_mean))
        named = model.named_parameters()
        extra = set(self.params) - set(named)
        if extra:
            raise ConfigError(f"checkpoint has unexpected parameters: {sorted(extra)[:3]}")
        for k, t in named.items():
            if k not in self.params:
                raise ConfigError(f"checkpoint is missing parameter {k!r}")
            arr = _finite_array(self.params[k], f"parameter {k!r}")
            if arr.shape != t.data.shape:
                raise ConfigError(
                    f"checkpoint parameter {k!r} has shape {arr.shape}, "
                    f"expected {t.data.shape}"
                )
            t.data[...] = arr
        return model

    def get_scaler(self) -> Scaler:
        """The standardization record, checked: finite numbers, x_mean and
        x_std of one length p, and positive stds."""
        s = self.scaler
        if not isinstance(s, dict) or s.keys() != set(SCALER_KEYS):
            raise ConfigError(f"checkpoint scaler must be an object with keys "
                              f"{SCALER_KEYS}")
        x_mean, x_std, y_mean, y_std = (
            _finite_array(s[k], f"scaler {k}") for k in SCALER_KEYS)
        if x_mean.ndim != 1 or x_std.shape != x_mean.shape or y_mean.ndim or y_std.ndim:
            raise ConfigError("checkpoint scaler needs x_mean and x_std of one length "
                              "and scalar y_mean and y_std")
        if not ((x_std > 0).all() and y_std > 0):
            raise ConfigError("checkpoint scaler stds must be positive")
        return Scaler(x_mean=x_mean, x_std=x_std, y_mean=float(y_mean), y_std=float(y_std))


def _finite_array(value, what: str) -> np.ndarray:
    """`value` as a float64 array, or a ConfigError unless it is a finite
    number or a regular nest of lists of them."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise ConfigError(f"checkpoint {what} must hold finite numbers")
    return arr


def _checkpoint_from(model, ds, best_val, epoch) -> Checkpoint:
    return Checkpoint(
        format_version=CHECKPOINT_VERSION,
        config=model.cfg.to_dict(),
        params={k: t.data.tolist() for k, t in model.named_parameters().items()},
        scaler={
            "x_mean": ds.scaler.x_mean.tolist(),
            "x_std": ds.scaler.x_std.tolist(),
            "y_mean": ds.scaler.y_mean,
            "y_std": ds.scaler.y_std,
        },
        best_val_loss=best_val,
        epoch=epoch,
    )


def train_step(model: ScalarModel, opt: Adam, x, y, epoch: int, rng: Rng) -> float:
    """One mini-batch: train-mode forward, composite loss, backward and a
    clipped Adam step, configured by `model.cfg`. Returns the batch loss."""
    cfg = model.cfg
    y_hat, trace = model.forward(x, "train", rng)
    total, _ = composite_loss(
        y, y_hat, trace.mu, trace.log_sigma, epoch, cfg.max_epochs, cfg.loss
    )
    reached = total.backward()
    opt.step(cfg.grad_clip_norm, reached)
    return float(total.data)


def train(ds: Dataset, cfg: ModelConfig):
    """Mini-batch training per the end-to-end pipeline; returns the
    best-validation checkpoint and the per-epoch history."""
    if ds.scaler is None:
        raise ConfigError("train expects a standardized dataset")
    if ds.n == 0:
        raise ConfigError("empty training set")
    model = ScalarModel(cfg, ds.p)
    noise_rng = Rng(cfg.seed + 1)
    order_rng = np.random.default_rng(cfg.seed + 2)

    n_val = max(1, int(round(ds.n * cfg.val_fraction)))
    if n_val >= ds.n:
        raise ConfigError(f"dataset too small for validation carve-out (n={ds.n})")
    perm = np.random.default_rng(cfg.seed + 3).permutation(ds.n)
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    x_tr, y_tr = ds.x[tr_idx], ds.y[tr_idx]
    x_val, y_val = ds.x[val_idx], ds.y[val_idx]

    opt = Adam(model, cfg.learning_rate)
    history = []
    best_val, best_flat, best_epoch = math.inf, model.flat.copy(), 0
    bad_epochs = 0
    for epoch in range(cfg.max_epochs):
        batch_losses = []
        order = order_rng.permutation(len(x_tr))
        for b0 in range(0, len(x_tr), cfg.batch_size):
            idx = order[b0 : b0 + cfg.batch_size]
            try:
                loss = train_step(model, opt, x_tr[idx], y_tr[idx], epoch, noise_rng)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch}, batch {b0 // cfg.batch_size}: {exc}"
                ) from exc
            batch_losses.append(loss)

        y_hat_val, trace_val = model.forward(x_val, "eval")
        val_total, val_parts = composite_loss(
            y_val, y_hat_val, trace_val.mu, trace_val.log_sigma,
            epoch, cfg.max_epochs, cfg.loss,
        )
        val_loss = float(val_total.data)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)),
                "val_loss": val_loss,
                "kl_weight": val_parts["kl_weight"],
                "parts": val_parts,
            }
        )
        if val_loss < best_val:
            best_val, best_flat, best_epoch = val_loss, model.flat.copy(), epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break

    model.flat[:] = best_flat
    return _checkpoint_from(model, ds, best_val, best_epoch), history


def _forward_eval(ckpt: Checkpoint, ds_raw: Dataset, keep):
    """Eval-mode forwards of the checkpoint's model on raw, unstandardized
    data, over ceil(n / EVAL_ROWS) near-equal row chunks (sizes differ by at
    most EVAL_ALIGN rows). `keep(y_hat, trace)` picks row-major arrays from
    each chunk's forward; returns (the checked scaler, those arrays filled
    for all n rows).
    """
    scaler = ckpt.get_scaler()
    if ds_raw.p != len(scaler.x_mean):
        raise ConfigError(
            f"data has {ds_raw.p} features, checkpoint expects {len(scaler.x_mean)}"
        )
    model = ckpt.build_model(scaler)
    n = ds_raw.n
    chunks = max(1, -(-n // EVAL_ROWS))
    # the near-equal cuts i·n/chunks, each rounded up to a multiple of EVAL_ALIGN
    bounds = [min(n, -(-(i * n // chunks) // EVAL_ALIGN) * EVAL_ALIGN)
              for i in range(chunks + 1)]
    out = None
    for a, b in zip(bounds[:-1], bounds[1:]):
        x_std = (ds_raw.x[a:b] - scaler.x_mean) / scaler.x_std
        parts = keep(*model.forward(x_std, "eval"))
        if out is None:
            out = [np.empty((n, *part.shape[1:])) for part in parts]
        for full, part in zip(out, parts):
            full[a:b] = part
    return scaler, out


def predict(ckpt: Checkpoint, ds_raw: Dataset) -> np.ndarray:
    """Deterministic eval-mode predictions on the original target scale."""
    scaler, (y_hat,) = _forward_eval(ckpt, ds_raw, lambda y_hat, trace: (y_hat.data,))
    return destandardize_predictions(y_hat, scaler)


def evaluate(ckpt: Checkpoint, ds_raw: Dataset, n_bins: int = 5) -> dict:
    """Metrics JSON (plus the bin-wise RMSE table) for raw, unstandardized
    evaluation data."""
    # imported here so that a patched `losses.concordance_index` (the
    # benchmark tracer's) is the one called
    from .losses import concordance_index

    y_hat = predict(ckpt, ds_raw)
    out = metrics(ds_raw.y, y_hat)
    out["ci"] = concordance_index(ds_raw.y, y_hat)
    out["bins"] = binwise_rmse(ds_raw.y, y_hat, n_bins)
    return out


def importance_scores(ckpt: Checkpoint, ds_raw: Dataset):
    """Global-tier feature importance over the whole evaluation set."""
    _, (k_hat, w) = _forward_eval(
        ckpt, ds_raw, lambda y_hat, trace: (trace.global_trace.k_hat, trace.global_trace.w))
    return feature_importance(k_hat, w)


def ablation_data_fraction(ds_raw: Dataset, cfg: ModelConfig, fractions):
    """Train with and without the variational block at several training-set
    fractions; returns rows of (fraction, r2_with, r2_without) on a held-out
    test split."""
    plan = split(ds_raw, test_fraction=0.2, seed=cfg.seed)
    train_ds_raw = take(ds_raw, plan.train)
    test_ds_raw = take(ds_raw, plan.test)
    sub_rng = np.random.default_rng(cfg.seed + 10)
    rows = []
    for frac in fractions:
        if not 0.0 < frac <= 1.0:
            raise ConfigError(f"fractions must lie in (0, 1], got {frac}")
        n_sub = int(round(len(plan.train) * frac))
        if n_sub < 2 * cfg.batch_size:
            raise ConfigError(
                f"fraction {frac} leaves {n_sub} rows; need >= {2 * cfg.batch_size}"
            )
        sub_idx = np.sort(sub_rng.permutation(len(plan.train))[:n_sub])
        sub = standardize(take(train_ds_raw, sub_idx))
        r2 = {}
        for use_var in (True, False):
            variant_cfg = ModelConfig.from_dict(
                {**cfg.to_dict(), "use_variational": use_var}
            )
            ckpt, _ = train(sub, variant_cfg)
            r2[use_var] = metrics(test_ds_raw.y, predict(ckpt, test_ds_raw))["r2"]
        rows.append({"fraction": frac, "r2_variational": r2[True], "r2_ablated": r2[False]})
    return rows


class _FixedDraws:
    """Stands in for an Rng in a forward: every draw replays one fixed array."""

    def __init__(self, mask: np.ndarray, eps: np.ndarray):
        self.mask, self.eps = mask, eps

    def bernoulli(self, q, shape) -> np.ndarray:
        return self.mask

    def normal(self, shape) -> np.ndarray:
        return self.eps


def gradcheck(seed: int = 0) -> dict:
    """Compare analytic gradients of the composite loss on a tiny model
    against central finite differences, with frozen dropout mask and frozen
    reparameterization noise.

    Returns {"max_rel_error", "worst_param", "per_param"}.
    """
    cfg = ModelConfig(
        groups=[[0, 3], [3, 6]],
        k=2,
        d=2,
        components=(4, 3, 2),
        loss=LossConfig(omega_mse=0.7, huber_delta=0.5, beta0=0.01),
        seed=seed,
    )
    model = ScalarModel(cfg, 6)
    data_rng = Rng(seed + 100)
    x = data_rng.normal((3, 6))
    y = data_rng.normal(3)
    noise = _FixedDraws(data_rng.bernoulli(0.8, (3, 6)), data_rng.normal((3, model.d)))

    def loss_value():
        y_hat, trace = model.forward(x, "train", noise)
        total, _ = composite_loss(
            y, y_hat, trace.mu, trace.log_sigma, 50, 100, cfg.loss
        )
        return total

    total = loss_value()
    total.backward()
    named = model.named_parameters()
    analytic = {k: t.grad.copy() for k, t in named.items()}

    h = 1e-5  # central-difference step
    per_param, worst, worst_key = {}, 0.0, None
    for k, t in named.items():
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_value().data)
            flat[i] = orig - h
            dn = float(loss_value().data)
            flat[i] = orig
            nflat[i] = (up - dn) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(analytic[k]), np.abs(num)), 1e-4)
        rel = float((np.abs(analytic[k] - num) / denom).max())
        per_param[k] = rel
        if rel > worst:
            worst, worst_key = rel, k
    return {"max_rel_error": worst, "worst_param": worst_key, "per_param": per_param}
