"""Full model: grouped kernel attention -> self-calibration -> variational
block -> global kernel attention -> hierarchical projection head, plus the
configuration record that owns every free hyperparameter.
"""

from __future__ import annotations

import contextlib
import numbers
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .attention import AttentionTrace, FeatureGroupSpec, KernelAttentionParams, is_int
# one op, a name per tier: the benchmark tracer patches each name to time its tier
from .attention import kernel_attention as grouped_attention_forward
from .attention import kernel_attention as kernel_attention_forward
from .calibration import (
    CalibrationParams,
    VariationalParams,
    default_latent_dim,
    self_calibrate,
    variational_encode_decode,
)
from .errors import ConfigError
from .head import HeadParams, default_components, head_forward
from .layers import named_tensors
from .losses import LossConfig
from .tensor import Rng, Tensor, no_grad

_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "LossConfig": dict,
          "dict": dict}


def _check_fields(cls, raw: dict, what: str) -> None:
    """Reject keys that are not fields of dataclass `cls`, missing fields that
    have no default, JSON values of the wrong type (a bool only for a bool
    field, an object for a dict field, None only as the default) and float
    fields outside the float range (JSON NaN, Infinity, a huge integer)."""
    by_name = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(by_name)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [f.name for f in by_name.values() if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    for name, value in raw.items():
        f = by_name[name]
        kind = _KINDS.get(f.type)
        if kind is None or (value is None and f.default is None):
            continue
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            raise ConfigError(f"{what} field {name!r} must be {f.type}, got {value!r}")
        if kind is numbers.Real and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{what} field {name!r} must be finite, got {value!r}")


@dataclass
class ModelConfig:
    groups: list  # [[start, end), ...]
    k: int = 4  # kernels per attention tier
    d: int = None  # latent dim; default derived from p
    components: tuple = None  # (c1, c2, c3); default derived from p
    loss: LossConfig = field(default_factory=LossConfig)
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 30
    grad_clip_norm: float = 5.0
    val_fraction: float = 0.1
    use_variational: bool = True
    seed: int = 0

    def __post_init__(self):
        self.spec = FeatureGroupSpec(self.groups)
        self.groups = [list(g) for g in self.spec.groups]
        if isinstance(self.loss, dict):
            self.loss = LossConfig(**self.loss)
        if self.components is not None:
            c = self.components
            if not (isinstance(c, (list, tuple)) and len(c) == 3 and all(map(is_int, c))):
                raise ConfigError(f"components must be three integers, got {c!r}")
            self.components = tuple(int(v) for v in c)
        for name in ("k", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.d is not None and self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if not (self.learning_rate > 0 and self.grad_clip_norm > 0):  # NaN fails too
            raise ConfigError("learning_rate and grad_clip_norm must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        _check_fields(cls, raw, "config")
        _check_fields(LossConfig, raw.get("loss", {}), "loss config")
        return cls(**raw)

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["components"] is not None:
            d["components"] = list(d["components"])
        return d


@dataclass
class ForwardTrace:
    """What one forward keeps beside y_hat, for diagnostics and importance."""

    group_traces: list  # per-group AttentionTrace
    delta: np.ndarray  # (batch,)
    gamma: np.ndarray  # (batch,)
    latent: "Tensor | None"  # the (2, batch, d) encode node: mu and log sigma
    global_trace: AttentionTrace
    z: Tensor  # (batch, p): the global tier's output node, the head's input
    alpha: np.ndarray  # (batch, 3)


def bind(records) -> tuple:
    """Lay the stage records `records` out in two fresh flat arrays (data,
    grad), returned: each tensor's .data and .grad become views of them, as
    they are shaped. Every record's `leaf`, its op's one parameter parent, is
    the same graph leaf, whose .data and .grad are the two arrays. A tensor
    already laid out (its .grad set), or given twice, raises ValueError."""
    tensors = [t for r in records for t in named_tensors(r, "").values()]
    if len({id(t) for t in tensors}) < len(tensors) or any(t.grad is not None for t in tensors):
        raise ValueError("a parameter tensor can be laid out only once")
    data = np.concatenate([t.data.reshape(-1) for t in tensors])
    grad, end = np.zeros(data.size), 0
    for t in tensors:
        a, end = end, end + t.data.size
        t.data, t.grad = data[a:end].reshape(t.data.shape), grad[a:end].reshape(t.data.shape)
    leaf = Tensor(data)
    leaf.grad = grad
    for record in records:
        record.leaf = leaf
    return data, grad


def _row(prm: KernelAttentionParams, j: int, prefix: str) -> dict:
    """Name -> a Tensor viewing row j of each of `prm`'s stacks, and of its .grad."""
    out = {}
    for name, t in named_tensors(prm, prefix).items():
        out[name] = Tensor(t.data[j])
        out[name].grad = t.grad[j]
    return out


class ScalarModel:
    """Holds all learnable parameters and runs the end-to-end forward pass.

    The model owns two flat float64 buffers, `flat` for every parameter and
    `grad_flat` for their gradients, and one graph leaf over both. Its one
    `bind` call lays them out as a record per group width (a
    KernelAttentionParams of (G, ...) stacks), cal, var (when used), global
    and head; each parameter's `.data` and `.grad` are views of them. Writing
    into a view (`t.data[...] = a`) updates the buffer; assigning `.data`
    detaches that parameter from it.
    """

    def __init__(self, cfg: ModelConfig, p: int):
        cfg.spec.validate_width(p)
        self.cfg = cfg
        self.p = p
        self.d = cfg.d if cfg.d is not None else default_latent_dim(p)
        comps = cfg.components if cfg.components is not None else default_components(p)
        rng = Rng(cfg.seed)
        self.group_params = KernelAttentionParams.init(rng, cfg.spec.groups, cfg.k)
        self.cal_params = CalibrationParams.init(rng, p)
        self.var_params = VariationalParams.init(rng, p, self.d)
        (self.global_params,) = KernelAttentionParams.init(rng, [(0, p)], cfg.k)
        self.head_params = HeadParams.init(rng, p, comps)
        var = [self.var_params] if cfg.use_variational else []
        self.flat, self.grad_flat = bind(
            [*self.group_params, self.cal_params, *var, self.global_params, self.head_params])

    def named_parameters(self) -> dict:
        """Checkpoint name -> parameter, groups first (not `flat`'s order). An
        attention group's parameters are its rows of its record's stacks."""
        rows = {s: (prm, j) for prm in self.group_params for j, (s, _) in enumerate(prm.cols)}
        out = {}
        for g, s in enumerate(sorted(rows)):
            out.update(_row(*rows[s], f"group{g}"))
        out.update(named_tensors(self.cal_params, "cal"))
        if self.cfg.use_variational:
            out.update(named_tensors(self.var_params, "var"))
        out.update(_row(self.global_params, 0, "global"))
        out.update(named_tensors(self.head_params, "head"))
        return out

    def forward(self, x: np.ndarray, mode: str = "train", rng: Rng = None):
        """Run the pipeline on a (batch, p) array, or raise a ConfigError.

        Train mode draws the dropout mask and then the latent noise from
        `rng`, the only source of noise; eval mode is deterministic, ignores
        `rng` and builds no graph. The input is a constant leaf in both
        modes. Returns (y_hat, ForwardTrace).
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"unknown mode {mode!r}")
        if mode == "train" and rng is None:
            raise ConfigError("train-mode forward needs an rng")
        if mode == "eval":
            rng = None
        with no_grad():
            xt = Tensor(np.asarray(x, dtype=np.float64))
        if xt.data.ndim != 2 or xt.data.shape[1] != self.p:
            raise ConfigError(f"input must be (batch, {self.p}), got shape {xt.data.shape}")
        with no_grad() if mode == "eval" else contextlib.nullcontext():
            z, group_traces = grouped_attention_forward(xt, self.group_params)
            s, delta, gamma = self_calibrate(z, self.cal_params, rng)
            v, latent = s, None
            if self.cfg.use_variational:
                v, latent = variational_encode_decode(s, self.var_params, rng)
            g, (global_trace,) = kernel_attention_forward(v, [self.global_params])
            y_hat, alpha = head_forward(g, self.head_params)
        trace = ForwardTrace(
            group_traces=group_traces,
            delta=delta.reshape(-1),
            gamma=gamma.reshape(-1),
            latent=latent,
            global_trace=global_trace,
            z=g,
            alpha=alpha,
        )
        return y_hat, trace
