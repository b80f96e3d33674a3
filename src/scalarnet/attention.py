"""Adaptive kernel attention: per-sample kernels, softmax kernel weights,
weighted kernel-modulated features, and a zero-initialized projection with a
residual connection. Used per feature group and again (separate parameters)
as the global tier; each tier is one `kernel_attention` node.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .layers import Affine, Mlp2, hidden_width
from .tensor import Rng, Tensor, kernel_attention


def is_int(value) -> bool:
    """An integer that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class FeatureGroupSpec:
    """Ordered half-open column intervals partitioning [0, p)."""

    groups: tuple

    def __init__(self, groups):
        if not isinstance(groups, (list, tuple)) or not all(
            isinstance(g, (list, tuple)) and len(g) == 2 and all(map(is_int, g))
            for g in groups
        ):
            raise ConfigError(
                f"feature groups must be a list of [start, end) integer pairs, "
                f"got {groups!r}"
            )
        object.__setattr__(self, "groups", tuple((int(s), int(e)) for s, e in groups))
        if not self.groups:
            raise ConfigError("feature group spec is empty")
        pos = 0
        for s, e in self.groups:
            if s != pos:
                raise ConfigError(
                    f"group intervals must be sorted, disjoint and contiguous; "
                    f"expected start {pos}, got {s}"
                )
            if e <= s:
                raise ConfigError(f"group [{s}, {e}) has non-positive width")
            pos = e

    @property
    def n_features(self) -> int:
        return self.groups[-1][1]

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def validate_width(self, p: int) -> None:
        if self.n_features != p:
            raise ConfigError(
                f"group spec covers [0, {self.n_features}) but data has {p} features"
            )


@dataclass
class KernelAttentionParams:
    """phi_k: p_in -> k*p_in, phi_w: p_in -> k (both two-layer tanh nets);
    phi_p: affine p_in -> p_in, zero-initialized so training starts at the
    residual identity."""

    p_in: int
    k: int
    phi_k: Mlp2
    phi_w: Mlp2
    phi_p: Affine

    @classmethod
    def init(cls, rng: Rng, p_in: int, k: int) -> "KernelAttentionParams":
        if p_in < 1 or k < 1:
            raise ConfigError(f"need p_in >= 1 and k >= 1, got p_in={p_in}, k={k}")
        h = hidden_width(p_in)
        return cls(
            p_in=p_in,
            k=k,
            phi_k=Mlp2.init(rng, p_in, h, k * p_in),
            phi_w=Mlp2.init(rng, p_in, h, k),
            phi_p=Affine.init(rng, p_in, p_in, zero=True),
        )

    def tensors(self) -> tuple:
        """The ten parameters in `kernel_attention`'s order."""
        return (*self.phi_k.tensors(), *self.phi_w.tensors(), *self.phi_p.tensors())


@dataclass
class AttentionTrace:
    """Intermediates kept for the KL-free diagnostics and feature importance.

    k_hat and w are plain arrays outside the graph; z stays in the graph. A
    feature group's trace has no z: its block is columns of the grouped output.
    """

    k_hat: np.ndarray  # (batch, k, p_in), unit rows up to the eps guard
    w: np.ndarray  # (batch, k), simplex rows
    z: "Tensor | None"  # (batch, p_in)


def kernel_attention_forward(x: Tensor, params: KernelAttentionParams) -> AttentionTrace:
    """One kernel attention tier on x (b, params.p_in), as in the global tier."""
    z, (k_hat,), (w,) = kernel_attention(x, [(0, params.p_in)], [params.tensors()])
    return AttentionTrace(k_hat=k_hat, w=w, z=z)


def grouped_attention_forward(x: Tensor, spec: FeatureGroupSpec, per_group_params):
    """Run kernel attention on each column group, every group in one node;
    returns the (b, p) output, each group's block in its own columns, and the
    per-group traces."""
    z, k_hats, ws = kernel_attention(x, spec.groups, [gp.tensors() for gp in per_group_params])
    return z, [AttentionTrace(k_hat=k_hat, w=w, z=None) for k_hat, w in zip(k_hats, ws)]
