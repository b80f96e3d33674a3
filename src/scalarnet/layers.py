"""Affine layers and two-layer tanh blocks, the walk that names parameters,
and `bind`, which makes a stage's parameters one graph leaf. A layer's
`__call__` is its array-level forward and its `backward` the matching
gradient, which the stage ops run inside their nodes; a non-finite value
raises a NumericError naming the stage."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

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


def bind(stages) -> tuple:
    """Copy the parameters of `stages` into two fresh flat arrays (data, grad)
    and return them. Stack j of `stage.stacks()`, equal-shape tensors, fills
    (G, ...) arrays `stage.data[j]` and `stage.grad[j]`, whose rows its
    tensors' .data and .grad become; `stage.leaf` spans the stage's slices."""
    layout = [list(stage.stacks()) for stage in stages]
    data = np.concatenate([t.data.reshape(-1) for st in layout for ts in st for t in ts])
    grad, end = np.zeros(data.size), 0
    for stage, stacks in zip(stages, layout):
        start, stage.data, stage.grad = end, [], []
        for ts in stacks:
            shape, a, end = (len(ts), *ts[0].data.shape), end, end + len(ts) * ts[0].data.size
            stage.data.append(data[a:end].reshape(shape))
            stage.grad.append(grad[a:end].reshape(shape))
            for t, row, grad_row in zip(ts, stage.data[-1], stage.grad[-1]):
                t.data, t.grad = row, grad_row
        stage.leaf = Tensor(data[start:end])
        stage.leaf.grad = grad[start:end]
    return data, grad


class Stage:
    """A stage op's parameter record: its op's node takes `leaf`, whose data
    and grad hold the record's tensors, as one graph parent. It is bound on
    construction; `bind` may lay it out again, in a model's buffers."""

    def __post_init__(self):
        bind([self])

    def stacks(self):
        return [(t,) for t in named_tensors(self, "").values()]


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

    def __call__(self, x: np.ndarray, op: str) -> np.ndarray:
        """x @ w + b on the 2-D array x, inside the stage op `op`."""
        return _guard(op, x @ self.w.data + self.b.data)

    def backward(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Add the gradients of w and b in `self(x)`, given g, the output's;
        returns the gradient wrt x."""
        self.w.grad += x.T @ g
        self.b.grad += g.sum(axis=0)
        return g @ self.w.data.T


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

    def backward(self, x: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Add the parameter gradients of `self(x)`, given h, its hidden layer,
        and g, the gradient wrt its output. Returns the gradient wrt x."""
        return self.l1.backward(x, self.l2.backward(h, g) * (1.0 - h * h))


def hidden_width(p_in: int) -> int:
    # width floor keeps 1- and 2-feature groups from collapsing to a bottleneck
    return max(p_in, 8)
