"""Dense float64 tensors with define-by-run reverse-mode autodiff: the engine
that the paper's stage ops build their graph nodes on.

Each stage is one graph node, and there are no generic arithmetic ops. Each
op lives beside the parameter record it takes: `attention.kernel_attention`,
`calibration.self_calibrate`, `calibration.encode`, `calibration.decode`,
`head.head_forward` and `losses.loss`. An op runs its layers through
`layers.Affine`/`Mlp2`: `__call__` forward, `backward` for the gradients.
Shapes are checked where they enter the program (the config, `load_csv`,
`Checkpoint.load` and the input of `ScalarModel.forward`), not in the ops. A
non-finite value inside an op raises a NumericError naming it; each op runs
under one np.errstate, so numpy does not warn first.

`Tensor(data)` makes a leaf. Every op makes its non-leaf node through
`_node`, the one place that guards the output, records the parents and binds
the backward closure; a closure receives the node's gradient `g` and adds its
parents' shares. Graphs are rebuilt every forward pass; backward() runs a
deterministic reverse topological accumulation seeded with 1.

Each backward gives every tensor it reaches exactly that backward's gradient,
and returns the leaves it reached. A reached leaf that already holds a
gradient array of its shape keeps it, and the whole buffer that array views
is zero-filled once, in place: a model's stage leaves all view its one flat
gradient buffer (`model.bind`), so a parameter the backward does not reach
holds an exact zero, not an earlier gradient. Every other reached tensor gets
a new zero array.

A tensor's `requires_grad` says whether backward gives it a gradient. A leaf
needs one, unless it was made inside a `no_grad()` block: such a leaf is a
constant, as the model input is. A node needs one when grad mode is on and
some parent needs one; `_node` records only those parents, and a node with
none is a constant with no `_prev` and no closure. Closures assume that every
operand trains, except `kernel_attention`'s input x, which may be a constant
(the model input is one). Under `no_grad()` no op records anything, so
an eval forward keeps no graph and frees its intermediates as it goes; an op
that keeps arrays for its backward reads grad mode as `tensor._grad_enabled`,
the module attribute, not a copy imported once.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import NumericError, ShapeError

_grad_enabled = True  # off inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Build no graph in this block: every node and every leaf made in it is
    a constant (`requires_grad` False). Grad mode is one flag per process."""
    global _grad_enabled
    outer, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = outer


def _guard(op: str, out: np.ndarray) -> np.ndarray:
    # ops call this under np.errstate(all="ignore"), so neither their
    # arithmetic nor the sum below warns before it raises. A finite sum
    # implies finite elements; only a non-finite sum needs the full scan.
    if not math.isfinite(out.sum()) and not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite output in op '{op}'")
    return out


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_rows_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient wrt a of y = _softmax_rows(a), given the gradient g wrt y."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def _node(op: str, value: np.ndarray, parents: tuple, backward) -> "Tensor":
    """The non-leaf node of `op`: the guarded `value`, and, if grad mode is on
    and some of `parents` need a gradient, those parents and the closure
    `backward(g)` that adds their gradients given this node's."""
    out = Tensor(_guard(op, value))
    out.op = op
    prev = tuple(t for t in parents if t.requires_grad) if out.requires_grad else ()
    if prev:
        out._prev, out._backward = prev, backward
    else:
        out.requires_grad = False
    return out


class Tensor:
    """A node in the computation graph holding a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "op")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = _grad_enabled
        self._prev = ()
        self._backward = None
        self.op = "leaf"

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"

    def backward(self) -> list:
        """Reverse-mode accumulation from this scalar node; seed gradient 1.
        Only the nodes that need a gradient get one, and each (with all of a
        reached leaf's buffer) holds exactly this backward's gradient. Returns
        the leaves it reached."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise NumericError("backward from a constant: nothing needs a gradient")
        topo, buffers = self._toposort(), {}
        for t in topo:
            if t._prev or t.grad is None or t.grad.shape != t.data.shape:
                t.grad = np.zeros(t.data.shape)
            else:  # reused in place, with all of the buffer it views
                buf = t.grad if t.grad.base is None else t.grad.base
                buffers[id(buf)] = buf
        for buf in buffers.values():
            buf.fill(0.0)
        self.grad = np.ones(self.data.shape)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)
        return [t for t in topo if not t._prev]

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
