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
from .layers import Affine, Mlp2, hidden_width, stacked
from .tensor import Rng, Tensor, _node, _softmax_rows, _softmax_rows_grad

EPS = 1e-12  # floor on a kernel's norm in kernel_attention


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
    """Kernel attention of the groups of one width w as (G, ...) stacks, row j
    the group at cols[j]: phi_k: w -> k*w, phi_w: w -> k (two-layer tanh nets);
    phi_p: affine w -> w, zero at init so training starts at the residual identity."""

    cols: tuple  # the groups' (start, stop) column intervals
    phi_k: Mlp2
    phi_w: Mlp2
    phi_p: Affine

    @classmethod
    def init(cls, rng: Rng, groups, k: int) -> list:
        """One record per group width, in order of each width's first group;
        each group's layers are drawn from `rng` in column order."""
        by_width = {}
        for s, e in groups:
            w, h = e - s, hidden_width(e - s)
            by_width.setdefault(w, []).append(((s, e), Mlp2.init(rng, w, h, k * w),
                                               Mlp2.init(rng, w, h, k),
                                               Affine.init(rng, w, w, zero=True)))
        return [cls(cols, *map(stacked, layers))
                for cols, *layers in (zip(*members) for members in by_width.values())]


def _stack(arrays) -> np.ndarray:
    """Equal-shape arrays stacked on a new first axis; one array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


@np.errstate(all="ignore")
def kernel_attention(x: Tensor, records):
    """Adaptive kernel attention on each column group of x (b, p), as one node.

    The groups of the KernelAttentionParams `records` partition [0, p). On a
    group's columns xg (b, w):
    raw = phi_k(xg) holds k kernels per row, each L2-normalized by max(norm,
    EPS) into k̂ (b, k, w); the kernel weights w (b, k) are the row softmax of
    phi_w(xg); the mixed kernel is mix = Σ_j w[:, j] · k̂_j (b, w), and the
    group's output columns are phi_p(xg ⊙ mix) + xg. phi_k and phi_w are
    two-layer tanh nets, phi_p is affine.

    The kernel sums (the norms, mix, and backward's k̂_j · u) are einsum
    contractions, so no (b, k, w) product of x and k̂ is built; backward keeps
    k̂ and mix. A record's groups run stacked, as (G, b, w) arrays through its
    layers; each group's arithmetic is the same as running it alone. Returns
    (the (b, p) Tensor, per record in `records` order its (k̂, w) stacks: the
    (G, b, k, w) normalized kernels and the (G, b, k) kernel weights).
    """
    xd = x.data
    out = np.empty_like(xd)
    kernels, saved = [], []
    for prm in records:
        xs = _stack([xd[:, s:e] for s, e in prm.cols])  # (G, b, w)
        # backward needs neither the logits nor the raw kernels: neither is kept
        hw, logits = prm.phi_w(xs, "kernel_attention")
        wsm = _softmax_rows(logits)  # (G, b, k)
        hk, raw = prm.phi_k(xs, "kernel_attention")
        k_hat = raw.reshape(wsm.shape + xs.shape[-1:])  # normalized in place into k̂ (G, b, k, w)
        norm = np.sqrt(np.einsum("gbkw,gbkw->gbk", k_hat, k_hat))  # np.linalg.norm
        m = np.maximum(norm, EPS)[..., None]  # at EPS exactly where norm <= EPS
        k_hat /= m
        mix = np.einsum("gbk,gbkw->gbw", wsm, k_hat)  # Σ_j w_j k̂_j
        att = xs * mix
        z = prm.phi_p(att, "kernel_attention") + xs
        for j, (s, e) in enumerate(prm.cols):
            out[:, s:e] = z[j]
        kernels.append((k_hat, wsm))
        saved.append((prm, xs, hk, hw, wsm, m, k_hat, mix, att))

    def backward(g):
        for prm, xs, hk, hw, wsm, m, k_hat, mix, att in saved:
            gz = _stack([g[:, s:e] for s, e in prm.cols])
            gatt = prm.phi_p.backward(att, gz)
            u = gatt * xs  # the gradient wrt mix; k̂_j's is w_j·u
            gw = np.einsum("gbkw,gbw->gbk", k_hat, u)
            # through k̂ = raw / m: (w_j·u − k̂_j (k̂_j · w_j·u)) / m, where k̂_j · u =
            # gw_j; built in place, one (G, b, k, w) array rather than three
            graw = k_hat * gw[..., None]
            np.subtract(u[:, :, None], graw, out=graw)
            graw *= wsm[..., None] / m
            if (m == EPS).any():  # there k̂ = raw / EPS: w_j·u passes through scaled
                graw = np.where(m > EPS, graw, wsm[..., None] * u[:, :, None] / EPS)
            # on the grouped tier x is a constant: no g @ wᵀ into it
            gx_w = prm.phi_w.backward(xs, hw, _softmax_rows_grad(wsm, gw), x.requires_grad)
            gx_k = prm.phi_k.backward(xs, hk, graw.reshape(hk.shape[:2] + (-1,)),
                                      x.requires_grad)
            if x.requires_grad:
                # the residual, kernel mixing, phi_w and phi_k terms, in the
                # order a graph of one node per layer would add them
                gx = gz + gatt * mix + gx_w + gx_k
                for j, (s, e) in enumerate(prm.cols):
                    x.grad[:, s:e] += gx[j]

    parents = (x, records[0].leaf)  # every record's leaf is the model's one leaf
    return _node("kernel_attention", out, parents, backward), kernels
