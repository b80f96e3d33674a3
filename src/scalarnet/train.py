"""Training loop (Adam, gradient clipping, early stopping), checkpointing,
evaluation, the data-fraction ablation harness, and full-model gradient
checking against central finite differences.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    Dataset,
    Scaler,
    destandardize_predictions,
    read_json,
    split,
    standardize,
    take,
)
from .errors import ConfigError, NumericError
from .head import feature_importance
from .losses import LossConfig, binwise_rmse, composite_loss, metrics
from .model import ModelConfig, ScalarModel, _check_fields
from .tensor import Rng, Tensor, no_grad

CHECKPOINT_VERSION = 1
# Most rows in one eval-mode forward: validation, predict, importance. A
# larger chunk raises the working set (peak RSS) and runs no faster; smaller
# ones add forward calls that slow importance_scores.
EVAL_ROWS = 1024
# An eval forward's widest arrays, the attention tiers' k̂, hold k·p cells a
# row; a chunk holds at most EVAL_CELLS of them, so models with k·p <= 192 run
# EVAL_ROWS-row chunks and wider ones fewer rows.
EVAL_CELLS = EVAL_ROWS * 192
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
    array operations into two buffers of its own, reading the gradients where
    backward left them: all of `grad_flat` is the latest backward's, zero
    where it did not reach. `params` names the model's parameters.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model: ScalarModel, lr: float):
        if not model.head_params.leaf.requires_grad:  # the model's one leaf
            raise ConfigError("a ScalarModel built inside no_grad() cannot train")
        self.params = model.named_parameters()
        self.flat, self.grad_flat = model.flat, model.grad_flat
        self.lr = lr
        self.t = 0
        self.m = np.zeros(self.flat.size)
        self.v = np.zeros(self.flat.size)
        # a step's temporaries: grad_flat is not written, its views are the .grads
        self._g, self._u = np.empty(self.flat.size), np.empty(self.flat.size)

    @np.errstate(all="ignore")  # a norm that overflows raises below, unwarned
    def step(self, clip_norm: float):
        """Update from the gradients in `grad_flat`, or raise NumericError,
        changing nothing, if their norm is not finite."""
        g = self.grad_flat
        total = math.sqrt(float(g @ g))
        if not math.isfinite(total):
            raise NumericError("non-finite gradient norm")
        if total > clip_norm:
            g = np.multiply(g, clip_norm / total, out=self._g)
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        u, d = self._u, self._g  # d takes the clipped g's buffer once g is spent
        self.m *= self.BETA1
        self.m += np.multiply(g, 1.0 - self.BETA1, out=u)
        self.v *= self.BETA2
        np.multiply(g, 1.0 - self.BETA2, out=u)
        self.v += np.multiply(u, g, out=u)
        # flat -= lr * (m / b1c) / (sqrt(v / b2c) + eps), numerator in u, denominator in d
        np.divide(self.m, b1c, out=u)
        u *= self.lr
        np.divide(self.v, b2c, out=d)
        np.sqrt(d, out=d)
        d += self.EPS
        u /= d
        self.flat -= u


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
        raw = read_json(path, ConfigError)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: a checkpoint is a JSON object")
        _check_fields(cls, raw, f"checkpoint {path}")
        if raw["format_version"] != CHECKPOINT_VERSION:
            raise ConfigError(
                f"{path}: unsupported checkpoint format_version {raw['format_version']}")
        if raw["epoch"] < 0:
            raise ConfigError(f"{path}: checkpoint epoch must be >= 0, got {raw['epoch']}")
        return cls(**raw)

    def build_model(self) -> ScalarModel:
        """The model with this checkpoint's parameters, for the width of its
        checked scaler."""
        cfg = ModelConfig.from_dict(self.config)
        model = ScalarModel(cfg, len(self.get_scaler().x_mean))
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
        _check_fields(Scaler, self.scaler, "checkpoint scaler")
        s = self.scaler
        x_mean = _finite_array(s["x_mean"], "scaler x_mean")
        x_std = _finite_array(s["x_std"], "scaler x_std")
        if x_mean.ndim != 1 or x_std.shape != x_mean.shape:
            raise ConfigError("checkpoint scaler needs x_mean and x_std of one length")
        if not ((x_std > 0).all() and s["y_std"] > 0):
            raise ConfigError("checkpoint scaler stds must be positive")
        return Scaler(x_mean, x_std, float(s["y_mean"]), float(s["y_std"]))


def _finite_array(value, what: str) -> np.ndarray:
    """`value` as a float64 array, or a ConfigError unless it is a finite
    JSON number or a regular nest of lists of them (not strings or booleans)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nest, or one deeper than numpy's 64 dimensions
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ConfigError(f"checkpoint {what} must hold finite numbers")
    # numpy reads a boolean beside numbers as 1 or 0, so look at the cells
    cells = [value]
    for _ in range(arr.ndim):
        cells = itertools.chain.from_iterable(cells)
    if bool in map(type, cells):
        raise ConfigError(f"checkpoint {what} must hold finite numbers")
    return arr.astype(np.float64, copy=False)


def _checkpoint_from(model, ds, best_val, epoch) -> Checkpoint:
    return Checkpoint(
        format_version=CHECKPOINT_VERSION,
        config=model.cfg.to_dict(),
        params={k: t.data.tolist() for k, t in model.named_parameters().items()},
        scaler={k: np.asarray(v).tolist() for k, v in vars(ds.scaler).items()},
        best_val_loss=best_val,
        epoch=epoch,
    )


def train_step(model: ScalarModel, opt: Adam, x, y, epoch: int, rng: Rng) -> float:
    """One mini-batch: train-mode forward, composite loss, backward and a
    clipped Adam step, configured by `model.cfg`. Returns the batch loss."""
    cfg = model.cfg
    y_hat, trace = model.forward(x, "train", rng)
    total, _ = composite_loss(y, y_hat, trace.latent, epoch, cfg.max_epochs, cfg.loss)
    total.backward()
    opt.step(cfg.grad_clip_norm)
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

        # validation in eval chunks; the loss once, over every validation row
        try:
            y_hat_val, latent = zip(*_eval_chunks(model, x_val, lambda y_hat, trace: (
                y_hat.data, None if trace.latent is None else trace.latent.data)))
            with no_grad():
                # each chunk's μ and log σ: one (2, b, d) block of the `encode` node
                latent = None if latent[0] is None else Tensor(np.concatenate(latent, axis=1))
                val_total, val_parts = composite_loss(
                    y_val, Tensor(np.concatenate(y_hat_val)), latent, epoch,
                    cfg.max_epochs, cfg.loss)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}, validation: {exc}") from exc
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


def _eval_chunks(model: ScalarModel, x: np.ndarray, keep, scaler: Scaler = None):
    """Eval-mode forwards of `model` on the rows of x, standardized chunk by
    chunk by `scaler` when one is given, over ceil(n / rows) near-equal row
    chunks (sizes differ by at most EVAL_ALIGN rows). `rows` is the largest
    multiple of EVAL_ALIGN with rows·k·p <= EVAL_CELLS, kept within
    [EVAL_ALIGN, EVAL_ROWS]: 1024 rows while k·p <= 192, so both tiers' k̂
    stay small beside the data. Yields, per chunk in row order, `keep(y_hat,
    trace)`: the row-major arrays picked from its forward; zero rows make one
    empty chunk.
    """
    n = len(x)
    rows = EVAL_CELLS // (model.cfg.k * model.p) // EVAL_ALIGN * EVAL_ALIGN
    rows = min(EVAL_ROWS, max(EVAL_ALIGN, rows))
    chunks = max(1, -(-n // rows))
    # the near-equal cuts i·n/chunks, each rounded up to a multiple of EVAL_ALIGN
    bounds = [min(n, -(-(i * n // chunks) // EVAL_ALIGN) * EVAL_ALIGN)
              for i in range(chunks + 1)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        xc = x[a:b] if scaler is None else (x[a:b] - scaler.x_mean) / scaler.x_std
        yield keep(*model.forward(xc, "eval"))


def _forward_eval(ckpt: Checkpoint, ds_raw: Dataset, keep):
    """(the checked scaler, `_eval_chunks` of the checkpoint's model on raw,
    unstandardized data)."""
    scaler = ckpt.get_scaler()
    if ds_raw.p != len(scaler.x_mean):
        raise ConfigError(
            f"data has {ds_raw.p} features, checkpoint expects {len(scaler.x_mean)}"
        )
    return scaler, _eval_chunks(ckpt.build_model(), ds_raw.x, keep, scaler)


def predict(ckpt: Checkpoint, ds_raw: Dataset) -> np.ndarray:
    """Deterministic eval-mode predictions on the original target scale."""
    scaler, chunks = _forward_eval(ckpt, ds_raw, lambda y_hat, trace: y_hat.data)
    return destandardize_predictions(np.concatenate(list(chunks)), scaler)


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
    """Global-tier feature importance over the whole evaluation set, reduced
    chunk by chunk."""
    _, chunks = _forward_eval(
        ckpt, ds_raw, lambda y_hat, trace: (trace.global_trace.k_hat, trace.global_trace.w))
    return feature_importance(chunks)


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
            ckpt, _ = train(sub, replace(cfg, use_variational=use_var))
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

    Returns {"max_rel_error", "worst_param"}: the largest relative error
    over every parameter entry, and the parameter that holds it.
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
        total, _ = composite_loss(y, y_hat, trace.latent, 50, 100, cfg.loss)
        return total

    total = loss_value()
    total.backward()
    named = model.named_parameters()
    analytic = {k: t.grad.copy() for k, t in named.items()}

    h = 1e-5  # central-difference step
    worst, worst_key = 0.0, None
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
        if rel > worst:
            worst, worst_key = rel, k
    return {"max_rel_error": worst, "worst_param": worst_key}
