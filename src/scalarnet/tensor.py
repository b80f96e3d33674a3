"""Dense float64 tensors with define-by-run reverse-mode autodiff.

The op vocabulary is exactly what the model topology needs: limited
broadcasting arithmetic, matmul, last-axis concat/slice, row softmax,
pointwise nonlinearities, full reductions, and three fused layer-level ops
with hand-written backward: `affine` (x @ w + b), `mlp2` (a two-layer tanh
net) and `kernel_attend` (L2-normalized kernels mixed by per-row weights).
Each layer of the model is therefore one graph node. Graphs are rebuilt every
forward pass; backward() runs a deterministic reverse topological
accumulation seeded with 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ShapeError

EPS = 1e-12  # floor on a kernel's norm in kernel_attend


def _guard(op: str, out: np.ndarray) -> np.ndarray:
    # overflow/0-div warnings are redundant with this check. A finite sum
    # implies finite elements; only a non-finite sum needs the full scan.
    if not math.isfinite(out.sum()) and not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite output in op '{op}'")
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of the limited broadcast rules)."""
    if grad.shape == shape:
        return grad
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _broadcast_ok(sa: tuple, sb: tuple) -> bool:
    # allowed: identical shapes, scalar vs anything, row vector (m,) vs (n, m),
    # column vector (n, 1) vs (n, m)
    if sa == sb:
        return True
    for x, y in ((sa, sb), (sb, sa)):
        if math.prod(x) == 1:
            return True
        if len(y) == 2 and x == (y[1],):
            return True
        if len(y) == 2 and x == (y[0], 1):
            return True
    return False


class Tensor:
    """A node in the computation graph holding a float64 ndarray."""

    __slots__ = ("data", "grad", "_prev", "_backward", "op")

    def __init__(self, data, _prev=(), op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._prev = tuple(_prev)
        self._backward = None
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"

    # ---- graph construction helpers -------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    def _binary(self, other, op, fwd, bwd):
        other = Tensor._lift(other)
        if not _broadcast_ok(self.data.shape, other.data.shape):
            raise ShapeError(
                f"op '{op}': shapes {self.data.shape} and {other.data.shape} "
                "do not conform"
            )
        with np.errstate(all="ignore"):
            out = Tensor(_guard(op, fwd(self.data, other.data)), (self, other), op)

        def backward():
            ga, gb = bwd(self.data, other.data, out.grad)
            self.grad += _unbroadcast(ga, self.data.shape)
            other.grad += _unbroadcast(gb, other.data.shape)

        out._backward = backward
        return out

    def _unary(self, op, fwd, bwd):
        with np.errstate(all="ignore"):
            out = Tensor(_guard(op, fwd(self.data)), (self,), op)

        def backward():
            self.grad += bwd(self.data, out.data, out.grad)

        out._backward = backward
        return out

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return self._binary(other, "add", np.add, lambda a, b, g: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "sub", np.subtract, lambda a, b, g: (g, -g))

    def __rsub__(self, other):
        return Tensor._lift(other).__sub__(self)

    def __mul__(self, other):
        return self._binary(other, "mul", np.multiply, lambda a, b, g: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(
            other, "div", np.divide, lambda a, b, g: (g / b, -g * a / (b * b))
        )

    def __matmul__(self, other):
        other = Tensor._lift(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError("matmul expects 2-D operands")
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(
                f"op 'matmul': shapes {self.data.shape} and {other.data.shape} "
                "do not conform"
            )
        out = Tensor(_guard("matmul", self.data @ other.data), (self, other), "matmul")

        def backward():
            self.grad += out.grad @ other.data.T
            other.grad += self.data.T @ out.grad

        out._backward = backward
        return out

    # ---- shape ops -------------------------------------------------------

    def cols(self, start: int, stop: int) -> "Tensor":
        """Slice columns [start, stop) of a 2-D tensor."""
        if self.data.ndim != 2:
            raise ShapeError("cols expects a 2-D tensor")
        out = Tensor(self.data[:, start:stop], (self,), "cols")

        def backward():
            self.grad[:, start:stop] += out.grad

        out._backward = backward
        return out

    def reshape(self, *shape) -> "Tensor":
        out = Tensor(self.data.reshape(*shape), (self,), "reshape")

        def backward():
            self.grad += out.grad.reshape(self.data.shape)

        out._backward = backward
        return out

    # ---- nonlinearities --------------------------------------------------

    def exp(self):
        return self._unary("exp", np.exp, lambda a, y, g: g * y)

    def tanh(self):
        return self._unary("tanh", np.tanh, lambda a, y, g: g * (1.0 - y * y))

    def sigmoid(self):
        def fwd(a):
            out = np.empty_like(a)
            pos = a >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
            e = np.exp(a[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        return self._unary("sigmoid", fwd, lambda a, y, g: g * y * (1.0 - y))

    def abs(self):
        return self._unary("abs", np.abs, lambda a, y, g: g * np.sign(a))

    def clamp(self, lo: float, hi: float):
        return self._unary(
            "clamp",
            lambda a: np.clip(a, lo, hi),
            lambda a, y, g: g * ((a >= lo) & (a <= hi)),
        )

    def softmax(self):
        """Row-wise softmax of a 2-D tensor."""
        if self.data.ndim != 2 or self.data.shape[1] == 0:
            raise ShapeError("softmax expects a 2-D tensor with nonempty rows")

        def fwd(a):
            shifted = a - a.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=1, keepdims=True)

        def bwd(a, y, g):
            return y * (g - (g * y).sum(axis=1, keepdims=True))

        return self._unary("softmax", fwd, bwd)

    # ---- reductions ------------------------------------------------------

    def sum(self):
        out = Tensor(_guard("sum", np.asarray(self.data.sum())), (self,), "sum")

        def backward():
            self.grad += out.grad * np.ones_like(self.data)

        out._backward = backward
        return out

    def mean(self):
        n = self.data.size
        out = Tensor(_guard("mean", np.asarray(self.data.mean())), (self,), "mean")

        def backward():
            self.grad += out.grad * np.ones_like(self.data) / n

        out._backward = backward
        return out

    # ---- backward --------------------------------------------------------

    def backward(self):
        """Reverse-mode accumulation from this scalar node; seed gradient 1."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo = self._toposort()
        for t in topo:
            t.grad = np.zeros_like(t.data)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward()

    def _toposort(self):
        order, visited = [], set()
        stack = [(self, iter(self._prev))]
        visited.add(id(self))
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                stack.pop()
                order.append(node)
            elif id(child) not in visited:
                visited.add(id(child))
                stack.append((child, iter(child._prev)))
        return order


def concat(tensors) -> Tensor:
    """Concatenate 2-D tensors along the last axis."""
    tensors = [Tensor._lift(t) for t in tensors]
    if any(t.data.ndim != 2 for t in tensors):
        raise ShapeError("concat supports 2-D tensors along axis 1")
    rows = {t.data.shape[0] for t in tensors}
    if len(rows) != 1:
        raise ShapeError(f"concat: mismatched row counts {sorted(rows)}")
    out = Tensor(
        _guard("concat", np.concatenate([t.data for t in tensors], axis=1)),
        tensors,
        "concat",
    )
    offsets = np.cumsum([0] + [t.data.shape[1] for t in tensors])

    def backward():
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            t.grad += out.grad[:, a:b]

    out._backward = backward
    return out


def _check_affine(op: str, x: tuple, w: tuple, b: tuple) -> None:
    """Shapes of x @ w + b: (n, fan_in), (fan_in, fan_out), (fan_out,)."""
    if len(x) != 2 or len(w) != 2 or x[1] != w[0] or b != w[1:]:
        raise ShapeError(f"op '{op}': shapes {x}, {w} and {b} do not conform")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D x, (fan_in, fan_out) w and (fan_out,) b."""
    _check_affine("affine", x.data.shape, w.data.shape, b.data.shape)
    out = Tensor(_guard("affine", x.data @ w.data + b.data), (x, w, b), "affine")

    def backward():
        g = out.grad
        x.grad += g @ w.data.T
        w.grad += x.data.T @ g
        b.grad += g.sum(axis=0)

    out._backward = backward
    return out


def mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """tanh(x @ w1 + b1) @ w2 + b2; the hidden activation is kept for backward."""
    _check_affine("mlp2", x.data.shape, w1.data.shape, b1.data.shape)
    _check_affine("mlp2", w1.data.shape, w2.data.shape, b2.data.shape)
    h = np.tanh(_guard("mlp2", x.data @ w1.data + b1.data))
    out = Tensor(_guard("mlp2", h @ w2.data + b2.data), (x, w1, b1, w2, b2), "mlp2")

    def backward():
        g = out.grad
        w2.grad += h.T @ g
        b2.grad += g.sum(axis=0)
        gh = (g @ w2.data.T) * (1.0 - h * h)
        w1.grad += x.data.T @ gh
        b1.grad += gh.sum(axis=0)
        x.grad += gh @ w1.data.T

    out._backward = backward
    return out


def kernel_attend(x: Tensor, raw: Tensor, w: Tensor):
    """Adaptive kernel mixing: Σ_j w[:, j] · x · k̂_j.

    `raw` (b, k*p) holds k kernels per row; each is L2-normalized by
    max(norm, EPS) into k̂ (b, k, p). `w` (b, k) weights the kernels.
    Returns (the (b, p) mixture Tensor, k̂ as an ndarray).
    """
    b, p = x.data.shape
    k = w.data.shape[-1]
    if w.data.shape != (b, k) or raw.data.shape != (b, k * p):
        raise ShapeError(
            f"op 'kernel_attend': x {x.data.shape}, raw {raw.data.shape} and "
            f"w {w.data.shape} do not conform"
        )
    kr = raw.data.reshape(b, k, p)
    norm = np.linalg.norm(kr, axis=2, keepdims=True)
    m = np.maximum(norm, EPS)
    k_hat = kr / m
    wk = w.data[:, :, None]
    xk = x.data[:, None, :] * k_hat
    out = Tensor(_guard("kernel_attend", (wk * xk).sum(axis=1)), (x, raw, w),
                 "kernel_attend")

    def backward():
        g = out.grad
        gx = g[:, None, :]
        w.grad += (gx * xk).sum(axis=2)
        x.grad += g * (wk * k_hat).sum(axis=1)
        gk = wk * (gx * x.data[:, None, :])
        proj = (gk - k_hat * (k_hat * gk).sum(axis=2, keepdims=True)) / m
        raw.grad += np.where(norm > EPS, proj, gk / EPS).reshape(b, k * p)

    out._backward = backward
    return out, k_hat


class Rng:
    """Deterministic random stream: uniform, standard normal, Bernoulli."""

    def __init__(self, seed: int):
        self._g = np.random.default_rng(seed)

    def uniform(self, shape=()) -> np.ndarray:
        return self._g.random(shape)

    def normal(self, shape=()) -> np.ndarray:
        return self._g.standard_normal(shape)

    def bernoulli(self, q, shape) -> np.ndarray:
        """Elementwise Bernoulli(q) in {0., 1.}; q may broadcast over shape."""
        return (self._g.random(shape) < np.asarray(q)).astype(np.float64)
