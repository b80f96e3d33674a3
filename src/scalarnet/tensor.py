"""Dense float64 tensors with define-by-run reverse-mode autodiff.

The op vocabulary is what the model topology needs; each layer and stage is
one graph node. Generic ops: same-shape `+` and `*`, `*` by a Python float (a
constant of the node, never a leaf), `reshape`, `tanh`, `clamp` and row
`softmax`. Fused ops with a hand-written backward: `affine`, `mlp2`
(two-layer tanh net), `kernel_attention` (a whole attention tier: every
column group's kernels, kernel weights, mixing, projection and residual, the
groups of one width stacked), `calibrate` (self-calibrated residual),
`reparameterize`, `tiered_projection` (the head's α-scaled projections),
`regression_loss` (MSE/Huber blend) and `kl_term`. Nothing broadcasts:
operands match in shape, or a fused op checks the shapes it documents.

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

EPS = 1e-12  # floor on a kernel's norm in kernel_attention
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
        return self._unary("softmax", _softmax_rows, lambda a, y, g: _softmax_rows_grad(y, g))

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


def _attention_buckets(x: Tensor, groups, param_sets) -> list:
    """Check that `groups` (start, stop) partition x's columns [0, p) in order
    and that each group of width w has the ten parameters of
    `kernel_attention` in these shapes: phi_k (w, h), (h,), (h, k*w), (k*w,);
    phi_w (w, h'), (h',), (h', k), (k,); phi_p (w, w), (w,), for k >= 1.
    Returns the group indices bucketed by parameter shapes, in order."""
    ends = [0] + [e for _, e in groups]
    ok = (x.data.ndim == 2 and len(param_sets) == len(groups) > 0
          and [s for s, _ in groups] == ends[:-1] and ends[-1] == x.data.shape[-1])
    _conform("kernel_attention", ok, x)
    buckets = {}
    for i, ((s, e), ps) in enumerate(zip(groups, param_sets)):
        w, shapes = e - s, tuple(t.data.shape for t in ps)
        h, h2, k = (shapes[j][0] if len(shapes) == 10 and len(shapes[j]) == 1 else 0
                    for j in (1, 5, 7))
        ok = w >= 1 and k >= 1 and shapes == ((w, h), (h,), (h, k * w), (k * w,), (w, h2),
                                              (h2,), (h2, k), (k,), (w, w), (w,))
        _conform("kernel_attention", ok, x, *ps)
        buckets.setdefault(shapes, []).append(i)
    return list(buckets.values())


def _stack(arrays) -> np.ndarray:
    """Equal-shape arrays stacked on a new first axis; one array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def kernel_attention(x: Tensor, groups, param_sets):
    """Adaptive kernel attention on each column group of x (b, p), as one node.

    `groups` are the (start, stop) column intervals partitioning [0, p) in
    order; `param_sets[i]` holds group i's ten parameters, in the order that
    `_attention_buckets` documents. On a group's columns xg (b, w):
    raw = phi_k(xg) holds k kernels per row, each L2-normalized by max(norm,
    EPS) into k̂ (b, k, w); the kernel weights w (b, k) are the row softmax of
    phi_w(xg); the group's output columns are phi_p(Σ_j w[:, j] · xg · k̂_j) +
    xg. phi_k and phi_w are two-layer tanh nets, phi_p is affine.

    Groups whose parameters have the same shapes run stacked, as (G, b, w)
    arrays through batched matmul; each group's arithmetic is the same as
    running it alone. Returns (the (b, p) Tensor, per-group k̂ and w as
    views of the stacked ndarrays).
    """
    xd = x.data
    out = np.empty_like(xd)
    k_hats, weights = [None] * len(groups), [None] * len(groups)
    stacks = []
    for members in _attention_buckets(x, groups, param_sets):
        cols = [groups[i] for i in members]
        xs = _stack([xd[:, s:e] for s, e in cols])  # (G, b, w)
        prm = [_stack([param_sets[i][j].data for i in members]) for j in range(10)]
        w1k, b1k, w2k, b2k, w1w, b1w, w2w, b2w, wp, bp = prm
        # backward needs neither the logits nor the raw kernels: neither is kept
        hw = np.tanh(_guard("kernel_attention", xs @ w1w + b1w[:, None]))
        wsm = _softmax_rows(_guard("kernel_attention", hw @ w2w + b2w[:, None]))  # (G, b, k)
        hk = np.tanh(_guard("kernel_attention", xs @ w1k + b1k[:, None]))
        raw = _guard("kernel_attention", hk @ w2k + b2k[:, None]).reshape(wsm.shape + (-1,))
        norm = np.sqrt(np.add.reduce(raw * raw, axis=3, keepdims=True))  # np.linalg.norm
        m = np.maximum(norm, EPS)
        k_hat = raw / m  # (G, b, k, w)
        del raw
        if not _grad_enabled:  # no backward: free the hidden layers before xk
            hk = hw = None
        wk = wsm[..., None]
        xk = xs[:, :, None, :] * k_hat
        att = (wk * xk).sum(axis=2)
        z = att @ wp + bp[:, None] + xs
        for j, (i, (s, e)) in enumerate(zip(members, cols)):
            out[:, s:e] = z[j]
            k_hats[i], weights[i] = k_hat[j], wsm[j]
        stacks.append((members, cols, xs, prm, hk, hw, wsm, norm, m, k_hat, wk, xk, att))

    def backward(g):
        for members, cols, xs, prm, hk, hw, wsm, norm, m, k_hat, wk, xk, att in stacks:
            w1k, w2k, w1w, w2w, wp = (prm[j].transpose(0, 2, 1) for j in (0, 2, 4, 6, 8))
            gz = _stack([g[:, s:e] for s, e in cols])
            gatt = gz @ wp
            gq = gatt[:, :, None, :]
            gw = (gq * xk).sum(axis=3)
            gk = wk * (gq * xs[:, :, None, :])
            proj = (gk - k_hat * (k_hat * gk).sum(axis=3, keepdims=True)) / m
            graw = np.where(norm > EPS, proj, gk / EPS).reshape(hk.shape[:2] + (-1,))
            glogits = _softmax_rows_grad(wsm, gw)
            ghw = (glogits @ w2w) * (1.0 - hw * hw)
            ghk = (graw @ w2k) * (1.0 - hk * hk)
            xs_t = xs.transpose(0, 2, 1)
            grads = (xs_t @ ghk, ghk.sum(axis=1), hk.transpose(0, 2, 1) @ graw,
                     graw.sum(axis=1), xs_t @ ghw, ghw.sum(axis=1),
                     hw.transpose(0, 2, 1) @ glogits, glogits.sum(axis=1),
                     att.transpose(0, 2, 1) @ gz, gz.sum(axis=1))
            for j, i in enumerate(members):
                for t, gt in zip(param_sets[i], grads):
                    if t.requires_grad:
                        t.grad += gt[j]
            if x.requires_grad:
                # the residual, kernel mixing, phi_w and phi_k terms, in the
                # order a graph of one node per layer would add them
                gx = gz + gatt * (wk * k_hat).sum(axis=2)
                gx = gx + ghw @ w1w
                gx = gx + ghk @ w1k
                for j, (s, e) in enumerate(cols):
                    x.grad[:, s:e] += gx[j]

    parents = (x, *(t for ps in param_sets for t in ps))
    return _node("kernel_attention", out, parents, backward), k_hats, weights


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
