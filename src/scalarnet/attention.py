"""Adaptive kernel attention: per-sample kernels, softmax kernel weights,
weighted kernel-modulated features, and a zero-initialized projection with a
residual connection. Used per feature group and again (separate parameters)
as the global tier; each tier is one `kernel_attention` node.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ConfigError
from .layers import Affine, Mlp2, hidden_width
from .tensor import Rng, Tensor, _guard, _node, _softmax_rows, _softmax_rows_grad

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
    """phi_k: p_in -> k*p_in, phi_w: p_in -> k (both two-layer tanh nets);
    phi_p: affine p_in -> p_in, zero-initialized so training starts at the
    residual identity."""

    p_in: int
    k: int
    phi_k: Mlp2
    phi_w: Mlp2
    phi_p: Affine

    @classmethod
    def init(cls, rng: Rng, p_in: int, k: int) -> "KernelAttentionParams":
        h = hidden_width(p_in)
        return cls(
            p_in=p_in,
            k=k,
            phi_k=Mlp2.init(rng, p_in, h, k * p_in),
            phi_w=Mlp2.init(rng, p_in, h, k),
            phi_p=Affine.init(rng, p_in, p_in, zero=True),
        )


@dataclass
class AttentionTrace:
    """Intermediates kept for the KL-free diagnostics and feature importance.

    k_hat and w are plain arrays outside the graph; z stays in the graph. A
    feature group's trace has no z: its block is columns of the grouped output.
    """

    k_hat: np.ndarray  # (batch, k, p_in), unit rows up to the eps guard
    w: np.ndarray  # (batch, k), simplex rows
    z: "Tensor | None"  # (batch, p_in)


@dataclass
class AttentionBucket:
    """Groups of one width as one stage record, which `kernel_attention` runs
    stacked: once laid out (`model.bind`), field j of the groups' records, in
    `named_tensors` order, is one (G, ...) array, `data[j]`, with gradient
    `grad[j]`."""

    cols: tuple  # the groups' (start, stop) column intervals
    params: tuple  # their KernelAttentionParams, in the same order


def stack_groups(groups, params) -> list:
    """One AttentionBucket per group width, in order of each width's first
    group: `params[i]` is the record of the group at column interval
    `groups[i]`."""
    by_width = {}
    for (s, e), prm in zip(groups, params):
        by_width.setdefault(e - s, []).append(((s, e), prm))
    return [AttentionBucket(*zip(*members)) for members in by_width.values()]


def _stack(arrays) -> np.ndarray:
    """Equal-shape arrays stacked on a new first axis; one array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


@np.errstate(all="ignore")
def kernel_attention(x: Tensor, buckets):
    """Adaptive kernel attention on each column group of x (b, p), as one node.

    The groups of the AttentionBuckets `buckets` partition [0, p). On a
    group's columns xg (b, w):
    raw = phi_k(xg) holds k kernels per row, each L2-normalized by max(norm,
    EPS) into k̂ (b, k, w); the kernel weights w (b, k) are the row softmax of
    phi_w(xg); the mixed kernel is mix = Σ_j w[:, j] · k̂_j (b, w), and the
    group's output columns are phi_p(xg ⊙ mix) + xg. phi_k and phi_w are
    two-layer tanh nets, phi_p is affine.

    The kernel sums (the norms, mix, and backward's k̂_j · u) are einsum
    contractions, so no (b, k, w) product of x and k̂ is built; backward keeps
    k̂ and mix. A bucket's groups run stacked, as (G, b, w) arrays through
    batched matmul on its (G, ...) arrays; each group's arithmetic is the same
    as running it alone. Returns (the (b, p) Tensor, per group in column
    order k̂ and w as views of the stacked ndarrays).
    """
    xd = x.data
    out = np.empty_like(xd)
    rows, saved = {}, []  # start column -> the group's k̂ and w
    for bucket in buckets:
        xs = _stack([xd[:, s:e] for s, e in bucket.cols])  # (G, b, w)
        w1k, b1k, w2k, b2k, w1w, b1w, w2w, b2w, wp, bp = bucket.data
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
        for j, (s, e) in enumerate(bucket.cols):
            out[:, s:e] = z[j]
            rows[s] = k_hat[j], wsm[j]
        if tensor._grad_enabled:  # only a backward reads these; eval keeps none
            saved.append((bucket, xs, hk, hw, wsm, m, k_hat, mix, att))

    def backward(g):
        for bucket, xs, hk, hw, wsm, m, k_hat, mix, att in saved:
            w1k, w2k, w1w, w2w, wp = (bucket.data[j].transpose(0, 2, 1) for j in (0, 2, 4, 6, 8))
            gz = _stack([g[:, s:e] for s, e in bucket.cols])
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
            for acc, gt in zip(bucket.grad, grads):
                acc += gt
            if x.requires_grad:
                # the residual, kernel mixing, phi_w and phi_k terms, in the
                # order a graph of one node per layer would add them
                gx = gz + gatt * mix
                gx = gx + ghw @ w1w
                gx = gx + ghk @ w1k
                for j, (s, e) in enumerate(bucket.cols):
                    x.grad[:, s:e] += gx[j]

    parents = (x, *(bucket.leaf for bucket in buckets))
    k_hats, weights = zip(*(rows[s] for s in sorted(rows)))
    return _node("kernel_attention", out, parents, backward), k_hats, weights


def kernel_attention_forward(x: Tensor, bucket: AttentionBucket) -> AttentionTrace:
    """One kernel attention tier on x: `bucket`'s one group, as in the global tier."""
    z, (k_hat,), (w,) = kernel_attention(x, [bucket])
    return AttentionTrace(k_hat=k_hat, w=w, z=z)


def grouped_attention_forward(x: Tensor, buckets):
    """Run kernel attention on each column group of `buckets`, every group in
    one node; returns the (b, p) output, each group's block in its own
    columns, and the per-group traces."""
    z, k_hats, ws = kernel_attention(x, buckets)
    return z, [AttentionTrace(k_hat=k_hat, w=w, z=None) for k_hat, w in zip(k_hats, ws)]
