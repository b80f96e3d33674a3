"""Dense float64 tensors with define-by-run reverse-mode autodiff.

Each of the paper's stages is one graph node, and there are no generic
arithmetic ops. The six ops, each with a hand-written backward:
`kernel_attention` (a whole attention tier: every column group's kernels
k̂_j, kernel weights w_j, the mixed kernel mix = Σ_j w_j k̂_j, and the output
phi_p(x ⊙ mix) + x, the groups of one width stacked), `calibration`,
`encode` (μ and log σ in one (2, b, d) node), `decode` (the reparameterized
draw, decoder and residual), `head` and `loss` (MSE/Huber blend plus scaled
KL). The stages other than `kernel_attention` take their
`layers.Affine`/`Mlp2` objects, run their forwards through those layers'
array-level `__call__` and their parameter gradients through `_affine_grad`
and `_mlp2_grad`. The ops take the shapes they document unchecked: a shape is
checked where it enters the program (the config, `load_csv`, `Checkpoint.load`
and the input of `ScalarModel.forward`), and each `*.init` derives parameter
shapes from those. A non-finite value inside an op raises a NumericError
naming it; each op runs under one np.errstate, so numpy does not warn first.

`Tensor(data)` makes a leaf. Every op makes its non-leaf node through
`_node`, the one place that guards the output, records the parents and binds
the backward closure; a closure receives the node's gradient `g` and adds its
parents' shares. Graphs are rebuilt every forward pass; backward() runs a
deterministic reverse topological accumulation seeded with 1.

Each backward gives every tensor it reaches exactly that backward's gradient,
and returns the leaves it reached. A reached leaf that already holds a
gradient array of its shape has it zero-filled in place, so a gradient that
views a flat buffer stays a view; every other reached tensor gets a new zero
array. A leaf the backward does not reach keeps whatever gradient it held, so
a caller that needs every parameter's gradient checks the returned leaves.

A tensor's `requires_grad` says whether backward gives it a gradient. A leaf
needs one, unless it was made inside a `no_grad()` block: such a leaf is a
constant, as the model input is. A node needs one when grad mode is on and
some parent needs one; `_node` records only those parents, and a node with
none is a constant with no `_prev` and no closure. Closures assume that every
operand trains, except `kernel_attention`'s input x, which may be a constant
(the model input is one). Under `no_grad()` no op records anything, so
an eval forward keeps no graph and frees its intermediates as it goes.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import NumericError, ShapeError

EPS = 1e-12  # floor on a kernel's norm in kernel_attention
DELTA_RANGE = (0.0, 0.4)  # calibrated dropout rate
GAMMA_RANGE = (0.5, 1.0)  # calibrated residual scale
LOG_SIGMA_CLAMP = 10.0  # bound on the encoder's log σ

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
        Only the nodes that need a gradient get one, and each holds exactly
        this backward's gradient. Returns the leaves it reached."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise NumericError("backward from a constant: nothing needs a gradient")
        topo = self._toposort()
        leaves = []
        for t in topo:
            if t._prev:
                t.grad = np.zeros(t.data.shape)
                continue
            leaves.append(t)
            if t.grad is not None and t.grad.shape == t.data.shape:
                t.grad.fill(0.0)  # reused in place: it may view a flat buffer
            else:
                t.grad = np.zeros(t.data.shape)
        self.grad = np.ones(self.data.shape)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)
        return leaves

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


def _affine_grad(x: np.ndarray, g: np.ndarray, w: Tensor, b: Tensor) -> None:
    """Add the gradients of w and b in x @ w + b, given g, the output's."""
    w.grad += x.T @ g
    b.grad += g.sum(axis=0)


def _mlp2_grad(x: np.ndarray, h: np.ndarray, g: np.ndarray, net, gh=None) -> np.ndarray:
    """Add the parameter gradients of a two-layer tanh net (w1, b1, w2, b2)
    applied to x, as `Mlp2.__call__` does, given h, its hidden layer, g, the
    gradient wrt its output, and gh, one already on h (added after g's term).
    Returns the gradient wrt the hidden pre-activation."""
    w1, b1, w2, b2 = net
    _affine_grad(h, g, w2, b2)
    gh = g @ w2.data.T if gh is None else g @ w2.data.T + gh
    ga = gh * (1.0 - h * h)
    _affine_grad(x, ga, w1, b1)
    return ga


def _stack(arrays) -> np.ndarray:
    """Equal-shape arrays stacked on a new first axis; one array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


@np.errstate(all="ignore")
def kernel_attention(x: Tensor, groups, param_sets):
    """Adaptive kernel attention on each column group of x (b, p), as one node.

    `groups` are the (start, stop) column intervals partitioning [0, p) in
    order; `param_sets[i]` holds group i's ten parameters: phi_k (w, h), (h,),
    (h, k*w), (k*w,); phi_w (w, h'), (h',), (h', k), (k,); phi_p (w, w), (w,),
    where h and h' depend on w alone, so that groups of one width share these
    shapes. On a group's columns xg (b, w):
    raw = phi_k(xg) holds k kernels per row, each L2-normalized by max(norm,
    EPS) into k̂ (b, k, w); the kernel weights w (b, k) are the row softmax of
    phi_w(xg); the mixed kernel is mix = Σ_j w[:, j] · k̂_j (b, w), and the
    group's output columns are phi_p(xg ⊙ mix) + xg. phi_k and phi_w are
    two-layer tanh nets, phi_p is affine.

    The kernel sums (the norms, mix, and backward's k̂_j · u) are einsum
    contractions, so no (b, k, w) product of x and k̂ is built; backward keeps
    k̂ and mix. Groups of the same width run stacked, as (G, b, w) arrays
    through batched matmul; each group's arithmetic is the same as running it
    alone. Returns (the (b, p) Tensor, per-group k̂ and w as views of the
    stacked ndarrays).
    """
    xd = x.data
    out = np.empty_like(xd)
    k_hats, weights = [None] * len(groups), [None] * len(groups)
    stacks, buckets = [], {}
    for i, (s, e) in enumerate(groups):
        buckets.setdefault(e - s, []).append(i)
    for members in buckets.values():
        cols = [groups[i] for i in members]
        xs = _stack([xd[:, s:e] for s, e in cols])  # (G, b, w)
        prm = [_stack([param_sets[i][j].data for i in members]) for j in range(10)]
        w1k, b1k, w2k, b2k, w1w, b1w, w2w, b2w, wp, bp = prm
        # backward needs neither the logits nor the raw kernels: neither is kept
        hw = np.tanh(_guard("kernel_attention", xs @ w1w + b1w[:, None]))
        wsm = _softmax_rows(_guard("kernel_attention", hw @ w2w + b2w[:, None]))  # (G, b, k)
        hk = np.tanh(_guard("kernel_attention", xs @ w1k + b1k[:, None]))
        # the raw kernels, normalized in place into k̂ (G, b, k, w)
        k_hat = _guard("kernel_attention", hk @ w2k + b2k[:, None]).reshape(wsm.shape + (-1,))
        norm = np.sqrt(np.einsum("gbkw,gbkw->gbk", k_hat, k_hat))  # np.linalg.norm
        m = np.maximum(norm, EPS)[..., None]  # at EPS exactly where norm <= EPS
        k_hat /= m
        mix = np.einsum("gbk,gbkw->gbw", wsm, k_hat)  # Σ_j w_j k̂_j
        att = xs * mix
        z = att @ wp + bp[:, None] + xs
        for j, (i, (s, e)) in enumerate(zip(members, cols)):
            out[:, s:e] = z[j]
            k_hats[i], weights[i] = k_hat[j], wsm[j]
        if _grad_enabled:  # only a backward reads these; eval keeps none of them
            stacks.append((members, cols, xs, prm, hk, hw, wsm, m, k_hat, mix, att))

    def backward(g):
        for members, cols, xs, prm, hk, hw, wsm, m, k_hat, mix, att in stacks:
            w1k, w2k, w1w, w2w, wp = (prm[j].transpose(0, 2, 1) for j in (0, 2, 4, 6, 8))
            gz = _stack([g[:, s:e] for s, e in cols])
            gatt = gz @ wp
            u = gatt * xs  # the gradient wrt mix; k̂_j's is w_j·u
            gw = np.einsum("gbkw,gbw->gbk", k_hat, u)
            # through k̂ = raw / m: (w_j·u − k̂_j (k̂_j · w_j·u)) / m, where k̂_j · u =
            # gw_j; built in place, one (G, b, k, w) array rather than three
            graw = k_hat * gw[..., None]
            np.subtract(u[:, :, None], graw, out=graw)
            graw *= wsm[..., None] / m
            if (m == EPS).any():  # there k̂ = raw / EPS: w_j·u passes through scaled
                graw = np.where(m > EPS, graw, wsm[..., None] * u[:, :, None] / EPS)
            graw = graw.reshape(hk.shape[:2] + (-1,))
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
                    t.grad += gt[j]
            if x.requires_grad:
                # the residual, kernel mixing, phi_w and phi_k terms, in the
                # order a graph of one node per layer would add them
                gx = gz + gatt * mix
                gx = gx + ghw @ w1w
                gx = gx + ghk @ w1k
                for j, (s, e) in enumerate(cols):
                    x.grad[:, s:e] += gx[j]

    parents = (x, *(t for ps in param_sets for t in ps))
    return _node("kernel_attention", out, parents, backward), k_hats, weights


@np.errstate(all="ignore")
def calibration(z: Tensor, phi_c, phi_t, rng):
    """The self-calibrated residual of z (b, p), one node. A sigmoid of the
    logits phi_c(z) maps into the dropout rate δ ∈ DELTA_RANGE and the scale
    γ ∈ GAMMA_RANGE, each (b, 1). Train mode gives s = z + γ·(phi_t(z)·m)/(1−δ)
    with the constant mask m = rng.bernoulli(1−δ, z.shape); eval mode (`rng`
    None) gives s = z + γ·phi_t(z). phi_c (p → 2) and phi_t (p → p) are
    `Mlp2`s. Returns (s, δ, γ as ndarrays)."""
    pc, pt = phi_c.tensors(), phi_t.tensors()
    hc, a = phi_c(z.data, "calibration")
    ht, t = phi_t(z.data, "calibration")
    c = np.exp(np.minimum(a, 0.0)) / (1.0 + np.exp(-np.abs(a)))  # a stable sigmoid
    (d_lo, d_hi), (g_lo, g_hi) = DELTA_RANGE, GAMMA_RANGE
    delta = c[:, 0:1] * (d_hi - d_lo) + d_lo
    gamma = c[:, 1:2] * (g_hi - g_lo) + g_lo
    if rng is None:
        m, keep = 1.0, 1.0
        s = z.data + gamma * t
    else:
        m, keep = rng.bernoulli(1.0 - delta, z.data.shape), 1.0 - delta
        s = z.data + gamma * (t * m) / keep

    def backward(g):
        ga_t = _mlp2_grad(z.data, ht, g * m * (gamma / keep), pt)
        g_gamma = (g * t * m).sum(axis=1, keepdims=True) / keep
        slope = c * (1.0 - c)
        glogits = np.zeros_like(a)
        glogits[:, 1:2] = g_gamma * (g_hi - g_lo) * slope[:, 1:2]
        if rng is not None:
            glogits[:, 0:1] = g_gamma * gamma / keep * (d_hi - d_lo) * slope[:, 0:1]
        ga_c = _mlp2_grad(z.data, hc, glogits, pc)
        # the residual's term, then phi_t's, then phi_c's
        z.grad += g + ga_t @ phi_t.l1.w.data.T + ga_c @ phi_c.l1.w.data.T

    return _node("calibration", s, (z, *pc, *pt), backward), delta, gamma


@np.errstate(all="ignore")
def encode(s: Tensor, phi_e, phi_mu, phi_sigma) -> Tensor:
    """The variational encoder of s (b, p), one (2, b, d) node holding μ and
    log σ: h = tanh(phi_e(s)), μ = phi_mu(h) and log σ = phi_sigma(h) clamped
    to ±LOG_SIGMA_CLAMP. phi_e, phi_mu and phi_sigma are `Affine`s."""
    pe, pm, ps = phi_e.tensors(), phi_mu.tensors(), phi_sigma.tensors()
    net = (*pe, *ps)  # phi_e, tanh, phi_sigma: a two-layer tanh net
    h = np.tanh(phi_e(s.data, "encode"))
    raw = phi_sigma(h, "encode")
    out = np.empty((2,) + raw.shape)
    out[0] = phi_mu(h, "encode")
    out[1] = np.clip(raw, -LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)

    def backward(g):
        _affine_grad(h, g[0], *pm)
        # h's terms: log σ's, then μ's
        g_raw = g[1] * ((raw >= -LOG_SIGMA_CLAMP) & (raw <= LOG_SIGMA_CLAMP))
        ga = _mlp2_grad(s.data, h, g_raw, net, g[0] @ phi_mu.w.data.T)
        s.grad += ga @ phi_e.w.data.T

    return _node("encode", out, (s, *pe, *pm, *ps), backward)


@np.errstate(all="ignore")
def decode(latent: Tensor, s: Tensor, phi_d, rng) -> Tensor:
    """v = s + phi_d(r) for s (b, p), the `encode` node `latent` and the
    `Mlp2` phi_d (d → p), one node. Train mode draws r = μ + ε·σ, σ =
    exp(log σ), with ε = rng.normal(μ.shape), a constant, so r ~ N(μ, σ²),
    the posterior whose KL `loss` charges; eval mode (`rng` None) takes the
    posterior mean r = μ."""
    pd = phi_d.tensors()
    r, log_sigma = latent.data  # r is the posterior mean μ in eval mode
    if rng is not None:
        eps = rng.normal(r.shape)
        sd = np.exp(log_sigma)
        r = _guard("decode", r + eps * sd)
    h, out = phi_d(r, "decode")

    def backward(g):
        s.grad += g
        gr = _mlp2_grad(r, h, g, pd) @ phi_d.l1.w.data.T
        latent.grad[0] += gr
        if rng is not None:
            latent.grad[1] += gr * eps * sd

    return _node("decode", s.data + out, (latent, s, *pd), backward)


@np.errstate(all="ignore")
def head(g: Tensor, w1: Tensor, w2: Tensor, w3: Tensor, phi_alpha, phi_y):
    """The hierarchical head on g (b, p), one node: the tier weights α =
    softmax(phi_alpha(g)) (b, 3) scale the projections g @ w_i (w_i (p, c_i)),
    and the `Mlp2` phi_y maps their concatenation to one output per row;
    phi_alpha is an `Mlp2` too. Returns (the (b,) node, α as an ndarray)."""
    ws, pa, py = (w1, w2, w3), phi_alpha.tensors(), phi_y.tensors()
    ha, logits = phi_alpha(g.data, "head")
    alpha = _softmax_rows(logits)
    proj = [g.data @ w.data for w in ws]
    blocks = _guard("head", np.concatenate(
        [alpha[:, i : i + 1] * pr for i, pr in enumerate(proj)], axis=1))
    offsets = np.cumsum([0] + [pr.shape[1] for pr in proj])
    hy, y = phi_y(blocks, "head")

    def backward(g_out):
        gb = _mlp2_grad(blocks, hy, g_out.reshape(-1, 1), py) @ phi_y.l1.w.data.T
        galpha, gg = np.empty_like(alpha), 0.0
        for i, (w, pr) in enumerate(zip(ws, proj)):
            gi = gb[:, offsets[i] : offsets[i + 1]]
            galpha[:, i] = (gi * pr).sum(axis=1)
            gp = gi * alpha[:, i : i + 1]
            w.grad += g.data.T @ gp
            gg = gg + gp @ w.data.T  # g's terms: tiers 1, 2, 3, then phi_alpha's
        ga = _mlp2_grad(g.data, ha, _softmax_rows_grad(alpha, galpha), pa)
        g.grad += gg + ga @ phi_alpha.l1.w.data.T

    return _node("head", y.reshape(-1), (g, *ws, *pa, *py), backward), alpha


@np.errstate(all="ignore")
def loss(y_hat: Tensor, y: np.ndarray, latent, omega: float, delta: float,
         kl_scale: float):
    """omega·mean(r²) + (1−omega)·mean(huber(r)) for r = y_hat − y, where
    huber(r) is r²/2 inside |r| <= delta and delta·(|r| − delta/2) outside,
    plus kl_scale·KL when `latent` (an `encode` node) is given: the batch-mean
    KL divergence of N(μ, σ²I) from N(0, I), floored at 0 where it rounds
    below (a NaN stays NaN). One node. Returns (the scalar node, the MSE, the
    mean Huber and the KL as floats)."""
    r = y_hat.data - y
    mse = (r * r).mean()
    a = np.abs(r)
    q = np.clip(a, 0.0, delta)
    hub = (q * a - q * q * 0.5).mean()
    value, kl, parents = mse * omega + hub * (1.0 - omega), 0.0, (y_hat,)
    if latent is not None:
        mu, log_sigma = latent.data
        scale, parents = 0.5 / mu.shape[0], (y_hat, latent)
        ls2 = log_sigma * 2.0
        var = np.exp(ls2)
        kl = max((mu * mu + var - ls2 - 1.0).sum() * scale, 0.0)
        value = value + kl * kl_scale

    def backward(g):
        # d huber/dr = clip(r, -delta, delta), on both sides of delta
        dr = omega * 2.0 * r + (1.0 - omega) * np.clip(r, -delta, delta)
        y_hat.grad += g * dr / r.size
        if latent is not None:
            gk = g * kl_scale * scale
            latent.grad[0] += gk * 2.0 * mu
            latent.grad[1] += gk * 2.0 * (var - 1.0)

    return _node("loss", value, parents, backward), float(mse), float(hub), float(kl)


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
