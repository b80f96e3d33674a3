"""Hierarchical projection head: three decreasing-width projections of the
global-attention output, softmax component weighting, scalar prediction, and
kernel-attention feature importance scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .layers import Mlp2, glorot, hidden_width
from .tensor import Rng, Tensor, _guard, _node, _softmax_rows, _softmax_rows_grad


def default_components(p: int):
    """Widths (c1, c2, c3) for p features, strictly decreasing for p >= 3."""
    return min(16, p), min(8, p - 1), min(4, p - 2)


@dataclass
class HeadParams:
    components: tuple  # (c1, c2, c3), strictly decreasing
    w1: Tensor
    w2: Tensor
    w3: Tensor
    phi_alpha: Mlp2  # p -> 3 tier logits
    phi_y: Mlp2  # c1+c2+c3 -> 1

    @classmethod
    def init(cls, rng: Rng, p: int, components) -> "HeadParams":
        if p < 3:  # c1 <= p and c1 > c2 > c3 >= 1
            raise ConfigError(f"the head needs p >= 3 features, got p={p}")
        c1, c2, c3 = components
        if not (c1 > c2 > c3 >= 1):
            raise ConfigError(f"need c1 > c2 > c3 >= 1, got {(c1, c2, c3)}")
        if c1 > p:
            raise ConfigError(f"c1={c1} exceeds feature count p={p}")
        total = c1 + c2 + c3
        return cls(
            components=(c1, c2, c3),
            w1=Tensor(glorot(rng, p, c1)),
            w2=Tensor(glorot(rng, p, c2)),
            w3=Tensor(glorot(rng, p, c3)),
            phi_alpha=Mlp2.init(rng, p, hidden_width(p), 3),
            phi_y=Mlp2.init(rng, total, hidden_width(total), 1),
        )


@np.errstate(all="ignore")
def head_forward(g: Tensor, params: HeadParams):
    """Predict one scalar per row of the global-attention output g (b, p), as
    one `head` node: the tier weights α = softmax(phi_alpha(g)) (b, 3) scale
    the projections g @ w_i (w_i (p, c_i)), and phi_y maps their
    concatenation to one output per row.

    Returns (y_hat, alpha): y_hat is the (b,) graph Tensor and alpha the
    (b, 3) tier weights, an ndarray outside the graph.
    """
    ws, phi_alpha, phi_y = (params.w1, params.w2, params.w3), params.phi_alpha, params.phi_y
    ha, logits = phi_alpha(g.data, "head")
    alpha = _softmax_rows(logits)
    proj = [g.data @ w.data for w in ws]
    blocks = _guard("head", np.concatenate(
        [alpha[:, i : i + 1] * pr for i, pr in enumerate(proj)], axis=1))
    offsets = np.cumsum([0] + [pr.shape[1] for pr in proj])
    hy, y = phi_y(blocks, "head")

    def backward(g_out):
        gb = phi_y.backward(blocks, hy, g_out.reshape(-1, 1))
        galpha, gg = np.empty_like(alpha), 0.0
        for i, (tier, pr) in enumerate(zip(ws, proj)):
            gi = gb[:, offsets[i] : offsets[i + 1]]
            galpha[:, i] = (gi * pr).sum(axis=1)
            gp = gi * alpha[:, i : i + 1]
            tier.grad += g.data.T @ gp
            gg = gg + gp @ tier.data.T  # g's terms: tiers 1, 2, 3, then phi_alpha's
        g.grad += gg + phi_alpha.backward(g.data, ha, _softmax_rows_grad(alpha, galpha))

    return _node("head", y.reshape(-1), (g, params.leaf), backward), alpha


def feature_importance(k_hat: np.ndarray, w: np.ndarray):
    """Per-feature relevance from the global tier's kernel weights and
    normalized kernels, min-max scaled to [0, 1].

    Parameters
    ----------
    k_hat: (n, k, p) normalized kernels over the evaluation set.
    w: (n, k) kernel weights.

    Returns
    -------
    (raw, normalized): two length-p vectors.
    """
    k_hat = np.asarray(k_hat, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if k_hat.ndim != 3 or w.ndim != 2 or k_hat.shape[:2] != w.shape:
        raise DataError(
            f"trace shapes do not conform: k_hat {k_hat.shape}, w {w.shape}"
        )
    if k_hat.shape[0] == 0:
        raise DataError("empty trace set")
    if k_hat.shape[2] < 2:
        raise DataError("feature importance needs p >= 2")
    raw = np.abs(np.einsum("il,ilj->ij", w, k_hat)).mean(axis=0)
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        raise DataError("degenerate importance: all features scored equally")
    return raw, (raw - lo) / (hi - lo)
