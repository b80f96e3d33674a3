"""Affine layers and two-layer tanh blocks, and the walks that name and
stack parameters. A layer's `__call__` is its array-level forward and its
`backward` the matching gradient, which the stage ops run inside their nodes;
a non-finite value raises a NumericError naming the stage. Both take leading
stack axes: on x (..., b, in), w (..., in, out) and b (..., out), each stack
member's arithmetic is that of its own 2-D call."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import check_cells
from .tensor import Rng, Tensor, _guard


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


def stacked(records):
    """The record like each of `records` (a Tensor or a dataclass of them)
    whose every tensor is the (len(records), ...) stack of theirs."""
    if isinstance(records[0], Tensor):
        return Tensor(np.stack([r.data for r in records]))
    return type(records[0])(*(stacked([getattr(r, f.name) for r in records])
                              for f in fields(records[0])))


def glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniform((fan_in, fan_out)) * 2.0 - 1.0) * limit


@dataclass
class Affine:
    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng: Rng, fan_in: int, fan_out: int, zero: bool = False) -> "Affine":
        check_cells(f"a {fan_in} x {fan_out} layer", fan_in * fan_out)
        w = np.zeros((fan_in, fan_out)) if zero else glorot(rng, fan_in, fan_out)
        return cls(Tensor(w), Tensor(np.zeros(fan_out)))

    def __call__(self, x: np.ndarray, op: str) -> np.ndarray:
        """x @ w + b on the (..., b, in) array x, inside the stage op `op`."""
        out = x @ self.w.data
        out += self.b.data[..., None, :]  # in place: no second (..., b, out) array
        return _guard(op, out)

    def backward(self, x: np.ndarray, g: np.ndarray, wrt_x: bool = True):
        """Add the gradients of w and b in `self(x)`, given g, the output's;
        returns the gradient wrt x, or None when not `wrt_x`."""
        self.w.grad += x.swapaxes(-1, -2) @ g
        self.b.grad += g.sum(axis=-2)
        return g @ self.w.data.swapaxes(-1, -2) if wrt_x else None


@dataclass
class Mlp2:
    """affine -> tanh -> affine"""

    l1: Affine
    l2: Affine

    @classmethod
    def init(cls, rng: Rng, fan_in: int, hidden: int, fan_out: int) -> "Mlp2":
        return cls(Affine.init(rng, fan_in, hidden), Affine.init(rng, hidden, fan_out))

    def __call__(self, x: np.ndarray, op: str):
        """(hidden, output) arrays of l2(tanh(l1(x))), inside the stage op `op`."""
        h = np.tanh(self.l1(x, op))
        return h, self.l2(h, op)

    def backward(self, x: np.ndarray, h: np.ndarray, g: np.ndarray, wrt_x: bool = True):
        """Add the parameter gradients of `self(x)`, given h, its hidden layer,
        and g, the gradient wrt its output. Returns the gradient wrt x, or
        None when not `wrt_x`."""
        return self.l1.backward(x, self.l2.backward(h, g) * (1.0 - h * h), wrt_x)


def hidden_width(p_in: int) -> int:
    # width floor keeps 1- and 2-feature groups from collapsing to a bottleneck
    return max(p_in, 8)
