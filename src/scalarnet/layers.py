"""Affine layers and the two-layer tanh blocks used by every subnetwork, and
the dataclass walk that names every parameter."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .tensor import Rng, Tensor, affine, mlp2


def named_tensors(obj, prefix: str) -> dict:
    """Every Tensor field of a dataclass, recursing into nested dataclasses,
    keyed by its dotted field path under `prefix`, in declaration order."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, Tensor):
            out[f"{prefix}.{f.name}"] = value
        elif is_dataclass(value):
            out.update(named_tensors(value, f"{prefix}.{f.name}"))
    return out


def glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniform((fan_in, fan_out)) * 2.0 - 1.0) * limit


@dataclass
class Affine:
    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng: Rng, fan_in: int, fan_out: int, zero: bool = False) -> "Affine":
        w = np.zeros((fan_in, fan_out)) if zero else glorot(rng, fan_in, fan_out)
        return cls(Tensor(w), Tensor(np.zeros(fan_out)))

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.w, self.b)

    def tensors(self) -> tuple:
        return self.w, self.b


@dataclass
class Mlp2:
    """affine -> tanh -> affine"""

    l1: Affine
    l2: Affine

    @classmethod
    def init(cls, rng: Rng, fan_in: int, hidden: int, fan_out: int) -> "Mlp2":
        return cls(Affine.init(rng, fan_in, hidden), Affine.init(rng, hidden, fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return mlp2(x, *self.tensors())

    def tensors(self) -> tuple:
        """(w1, b1, w2, b2), the parameters of the `mlp2` op and the stage ops."""
        return self.l1.w, self.l1.b, self.l2.w, self.l2.b


def hidden_width(p_in: int) -> int:
    # width floor keeps 1- and 2-feature groups from collapsing to a bottleneck
    return max(p_in, 8)
