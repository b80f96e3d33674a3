"""Dense float64 tensors with define-by-run reverse-mode autodiff.

The op vocabulary is what the model topology needs; each layer and stage is
one graph node. Generic ops: same-shape `+` and `*`, `*` by a Python float (a
constant of the node, never a leaf), `cols`, `concat`, `reshape`, `tanh`,
`clamp` and row `softmax`. Fused ops with a hand-written backward: `affine`,
`mlp2` (two-layer tanh net), `kernel_attend` (normalized kernels mixed by
per-row weights), `calibrate` (self-calibrated residual), `reparameterize`,
`tiered_projection` (the head's α-scaled projections), `regression_loss`
(MSE/Huber blend) and `kl_term`. Nothing broadcasts: operands match in shape,
or a fused op checks the shapes it documents.

`Tensor(data)` makes a leaf. Every op makes its non-leaf node through
`_node`, the one place that guards the output, records the parents and binds
the backward closure; a closure receives the node's gradient `g` and adds its
parents' shares. Graphs are rebuilt every forward pass; backward() runs a
deterministic reverse topological accumulation seeded with 1.

A tensor's `requires_grad` says whether backward gives it a gradient. A leaf
needs one, unless it was made inside a `no_grad()` block: such a leaf is a
constant, as the model input is. A node needs one when grad mode is on and
some parent needs one; `_node` records only those parents, and a node with
none is a constant with no `_prev` and no closure. Closures skip the terms of
constant operands. Under `no_grad()` no op records anything, so an eval
forward keeps no graph and frees its intermediates as it goes.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import NumericError, ShapeError

EPS = 1e-12  # floor on a kernel's norm in kernel_attend
DELTA_RANGE = (0.0, 0.4)  # calibrated dropout rate
GAMMA_RANGE = (0.5, 1.0)  # calibrated residual scale

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
    # overflow/0-div warnings are redundant with this check. A finite sum
    # implies finite elements; only a non-finite sum needs the full scan.
    if not math.isfinite(out.sum()) and not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite output in op '{op}'")
    return out


def _conform(op: str, ok: bool, *operands) -> None:
    """Raise a ShapeError naming `op` and the operands' shapes unless `ok`."""
    if not ok:
        shapes = ", ".join(str(np.shape(a.data if isinstance(a, Tensor) else a))
                           for a in operands)
        raise ShapeError(f"op '{op}': shapes {shapes} do not conform")


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

    def _binary(self, other: "Tensor", op, fwd, bwd):
        _conform(op, other.data.shape == self.data.shape, self, other)

        def backward(g):
            ga, gb = bwd(self.data, other.data, g)
            if self.requires_grad:
                self.grad += ga
            if other.requires_grad:
                other.grad += gb

        with np.errstate(all="ignore"):
            return _node(op, fwd(self.data, other.data), (self, other), backward)

    def _unary(self, op, fwd, bwd):
        def backward(g):
            self.grad += bwd(self.data, out.data, g)

        with np.errstate(all="ignore"):
            out = _node(op, fwd(self.data), (self,), backward)
        return out

    def __add__(self, other: "Tensor"):
        return self._binary(other, "add", np.add, lambda a, b, g: (g, g))

    def __mul__(self, other):
        """Same-shape product, or scaling by a Python float."""
        if isinstance(other, Tensor):
            return self._binary(other, "mul", np.multiply, lambda a, b, g: (g * b, g * a))
        c = float(other)
        return self._unary("mul", lambda a: a * c, lambda a, y, g: g * c)

    def cols(self, start: int, stop: int) -> "Tensor":
        """Slice columns [start, stop) of a 2-D tensor."""
        if self.data.ndim != 2:
            raise ShapeError("cols expects a 2-D tensor")

        def backward(g):
            self.grad[:, start:stop] += g

        return _node("cols", self.data[:, start:stop], (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        def backward(g):
            self.grad += g.reshape(self.data.shape)

        return _node("reshape", self.data.reshape(*shape), (self,), backward)

    def tanh(self):
        return self._unary("tanh", np.tanh, lambda a, y, g: g * (1.0 - y * y))

    def clamp(self, lo: float, hi: float):
        return self._unary("clamp", lambda a: np.clip(a, lo, hi),
                           lambda a, y, g: g * ((a >= lo) & (a <= hi)))

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

    def backward(self):
        """Reverse-mode accumulation from this scalar node; seed gradient 1.
        Only the nodes that need a gradient get one."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise NumericError("backward from a constant: nothing needs a gradient")
        topo = self._toposort()
        for t in topo:
            t.grad = np.zeros_like(t.data)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)

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
    if any(t.data.ndim != 2 for t in tensors):
        raise ShapeError("concat supports 2-D tensors along axis 1")
    rows = {t.data.shape[0] for t in tensors}
    if len(rows) != 1:
        raise ShapeError(f"concat: mismatched row counts {sorted(rows)}")
    offsets = np.cumsum([0] + [t.data.shape[1] for t in tensors])

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.grad += g[:, a:b]

    return _node("concat", np.concatenate([t.data for t in tensors], axis=1),
                 tuple(tensors), backward)


def _check_affine(op: str, x: Tensor, w: Tensor, b: Tensor) -> None:
    """Shapes of x @ w + b: (n, fan_in), (fan_in, fan_out), (fan_out,)."""
    xs, ws = x.data.shape, w.data.shape
    ok = len(xs) == len(ws) == 2 and xs[1] == ws[0] and b.data.shape == ws[1:]
    _conform(op, ok, x, w, b)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D x, (fan_in, fan_out) w and (fan_out,) b."""
    _check_affine("affine", x, w, b)

    def backward(g):
        if x.requires_grad:
            x.grad += g @ w.data.T
        if w.requires_grad:
            w.grad += x.data.T @ g
        if b.requires_grad:
            b.grad += g.sum(axis=0)

    return _node("affine", x.data @ w.data + b.data, (x, w, b), backward)


def mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """tanh(x @ w1 + b1) @ w2 + b2; the hidden activation is kept for backward."""
    _check_affine("mlp2", x, w1, b1)
    _check_affine("mlp2", w1, w2, b2)
    h = np.tanh(_guard("mlp2", x.data @ w1.data + b1.data))

    def backward(g):
        if w2.requires_grad:
            w2.grad += h.T @ g
        if b2.requires_grad:
            b2.grad += g.sum(axis=0)
        gh = (g @ w2.data.T) * (1.0 - h * h)
        if w1.requires_grad:
            w1.grad += x.data.T @ gh
        if b1.requires_grad:
            b1.grad += gh.sum(axis=0)
        if x.requires_grad:
            x.grad += gh @ w1.data.T

    return _node("mlp2", h @ w2.data + b2.data, (x, w1, b1, w2, b2), backward)


def kernel_attend(x: Tensor, raw: Tensor, w: Tensor):
    """Adaptive kernel mixing: Σ_j w[:, j] · x · k̂_j.

    `raw` (b, k*p) holds k kernels per row; each is L2-normalized by
    max(norm, EPS) into k̂ (b, k, p). `w` (b, k) weights the kernels.
    Returns (the (b, p) mixture Tensor, k̂ as an ndarray).
    """
    b, p = x.data.shape
    k = w.data.shape[-1]
    _conform("kernel_attend", w.data.shape == (b, k) and raw.data.shape == (b, k * p),
             x, raw, w)
    kr = raw.data.reshape(b, k, p)
    norm = np.linalg.norm(kr, axis=2, keepdims=True)
    m = np.maximum(norm, EPS)
    k_hat = kr / m
    wk = w.data[:, :, None]
    xk = x.data[:, None, :] * k_hat

    def backward(g):
        gx = g[:, None, :]
        if w.requires_grad:
            w.grad += (gx * xk).sum(axis=2)
        if x.requires_grad:
            x.grad += g * (wk * k_hat).sum(axis=1)
        if raw.requires_grad:
            gk = wk * (gx * x.data[:, None, :])
            proj = (gk - k_hat * (k_hat * gk).sum(axis=2, keepdims=True)) / m
            raw.grad += np.where(norm > EPS, proj, gk / EPS).reshape(b, k * p)

    return _node("kernel_attend", (wk * xk).sum(axis=1), (x, raw, w), backward), k_hat


def calibrate(z: Tensor, logits: Tensor, t: Tensor, rng):
    """Self-calibrated residual on z (b, p) with transformed features t (b, p).

    A stable sigmoid of `logits` (b, 2) maps into the dropout rate δ ∈
    DELTA_RANGE and the scale γ ∈ GAMMA_RANGE, each (b, 1). Train mode gives
    s = z + γ·(t·m)/(1−δ) with the constant mask m = rng.bernoulli(1−δ,
    z.shape); eval mode (`rng` None) gives s = z + γ·t. Returns (s Tensor, δ,
    γ as ndarrays).
    """
    b, p = z.data.shape
    _conform("calibrate", logits.data.shape == (b, 2) and t.data.shape == (b, p),
             z, logits, t)
    a = logits.data
    c = np.empty_like(a)
    pos = a >= 0
    c[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    c[~pos] = e / (1.0 + e)
    (d_lo, d_hi), (g_lo, g_hi) = DELTA_RANGE, GAMMA_RANGE
    delta = c[:, 0:1] * (d_hi - d_lo) + d_lo
    gamma = c[:, 1:2] * (g_hi - g_lo) + g_lo
    if rng is None:
        m, keep = 1.0, 1.0
        s = z.data + gamma * t.data
    else:
        m, keep = rng.bernoulli(1.0 - delta, z.data.shape), 1.0 - delta
        s = z.data + gamma * (t.data * m) / keep

    def backward(g):
        if z.requires_grad:
            z.grad += g
        if t.requires_grad:
            t.grad += g * m * (gamma / keep)
        if not logits.requires_grad:
            return
        g_gamma = (g * t.data * m).sum(axis=1, keepdims=True) / keep
        slope = c * (1.0 - c)
        logits.grad[:, 1:2] += g_gamma * (g_hi - g_lo) * slope[:, 1:2]
        if rng is not None:
            g_delta = g_gamma * gamma / keep
            logits.grad[:, 0:1] += g_delta * (d_hi - d_lo) * slope[:, 0:1]

    return _node("calibrate", s, (z, logits, t), backward), delta, gamma


def reparameterize(mu: Tensor, log_sigma: Tensor, eps: np.ndarray) -> Tensor:
    """mu + eps·exp(log_sigma/2): a draw from N(mu, sigma²) for the constant
    standard-normal noise `eps`, differentiable in mu and log sigma."""
    _conform("reparameterize", mu.data.shape == log_sigma.data.shape == eps.shape,
             mu, log_sigma, eps)

    def backward(g):
        if mu.requires_grad:
            mu.grad += g
        if log_sigma.requires_grad:
            log_sigma.grad += g * eps * sd * 0.5

    with np.errstate(all="ignore"):
        sd = np.exp(log_sigma.data * 0.5)
        return _node("reparameterize", mu.data + eps * sd, (mu, log_sigma), backward)


def tiered_projection(g: Tensor, w1: Tensor, w2: Tensor, w3: Tensor, alpha: Tensor):
    """concat_i(alpha[:, i] · g @ w_i) for g (b, p), w_i (p, c_i) and tier
    weights alpha (b, 3); returns the (b, c1+c2+c3) Tensor."""
    ws = (w1, w2, w3)
    b, p = g.data.shape
    ok = alpha.data.shape == (b, 3) and all(w.data.shape[:-1] == (p,) for w in ws)
    _conform("tiered_projection", ok, g, *ws, alpha)
    proj = [g.data @ w.data for w in ws]
    blocks = [alpha.data[:, i : i + 1] * pr for i, pr in enumerate(proj)]
    offsets = np.cumsum([0] + [pr.shape[1] for pr in proj])

    def backward(g_out):
        for i, (w, pr) in enumerate(zip(ws, proj)):
            gi = g_out[:, offsets[i] : offsets[i + 1]]
            if alpha.requires_grad:
                alpha.grad[:, i] += (gi * pr).sum(axis=1)
            gp = gi * alpha.data[:, i : i + 1]
            if w.requires_grad:
                w.grad += g.data.T @ gp
            if g.requires_grad:
                g.grad += gp @ w.data.T

    return _node("tiered_projection", np.concatenate(blocks, axis=1),
                 (g, w1, w2, w3, alpha), backward)


def regression_loss(y_hat: Tensor, y: np.ndarray, omega: float, delta: float):
    """omega·mean(r²) + (1−omega)·mean(huber(r)) for r = y_hat − y, where
    huber(r) is r²/2 inside |r| <= delta and delta·(|r| − delta/2) outside.

    Returns (the scalar loss Tensor, the MSE and the mean Huber as floats).
    """
    _conform("regression_loss", y_hat.data.ndim == 1 and y.shape == y_hat.data.shape,
             y_hat, y)
    r = y_hat.data - y
    mse = (r * r).mean()
    a = np.abs(r)
    q = np.clip(a, 0.0, delta)
    hub = (q * a - q * q * 0.5).mean()

    def backward(g):
        # d huber/dr = clip(r, -delta, delta), on both sides of delta
        dr = omega * 2.0 * r + (1.0 - omega) * np.clip(r, -delta, delta)
        y_hat.grad += g * dr / r.size

    out = _node("regression_loss", mse * omega + hub * (1.0 - omega), (y_hat,), backward)
    return out, float(mse), float(hub)


def kl_term(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """Batch-mean KL divergence of N(mu, sigma^2 I) from N(0, I); nonnegative,
    zero iff mu = 0 and log sigma = 0."""
    _conform("kl_term", mu.data.ndim == 2 and log_sigma.data.shape == mu.data.shape,
             mu, log_sigma)
    scale = 0.5 / mu.data.shape[0]

    def backward(g):
        g = g * scale
        if mu.requires_grad:
            mu.grad += g * 2.0 * mu.data
        if log_sigma.requires_grad:
            log_sigma.grad += g * 2.0 * (var - 1.0)

    with np.errstate(all="ignore"):
        ls2 = log_sigma.data * 2.0
        var = np.exp(ls2)
        per_elem = mu.data * mu.data + var - ls2 - 1.0
        return _node("kl_term", per_elem.sum() * scale, (mu, log_sigma), backward)


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
