"""Self-calibration (input-conditioned dropout rate and scaling on a
transformed-feature residual branch) followed by the variational
encode-sample-decode block, whose KL regularizer is part of the `loss` op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Affine, Mlp2, hidden_width
from .tensor import Rng, Tensor, _guard, _node

DELTA_RANGE = (0.0, 0.4)  # calibrated dropout rate
GAMMA_RANGE = (0.5, 1.0)  # calibrated residual scale
LOG_SIGMA_CLAMP = 10.0  # bound on the encoder's log σ


@dataclass
class CalibrationParams:
    phi_t: Mlp2  # p -> p
    phi_c: Mlp2  # p -> 2, sigmoid-scaled into the delta/gamma ranges

    @classmethod
    def init(cls, rng: Rng, p: int) -> "CalibrationParams":
        h = hidden_width(p)
        return cls(phi_t=Mlp2.init(rng, p, h, p), phi_c=Mlp2.init(rng, p, h, 2))


@dataclass
class VariationalParams:
    phi_e: Affine  # p -> ceil(p/2), tanh applied after
    phi_mu: Affine  # ceil(p/2) -> d
    phi_sigma: Affine  # ceil(p/2) -> d
    phi_d: Mlp2  # d -> p

    @classmethod
    def init(cls, rng: Rng, p: int, d: int) -> "VariationalParams":
        h = (p + 1) // 2
        return cls(
            phi_e=Affine.init(rng, p, h),
            phi_mu=Affine.init(rng, h, d),
            phi_sigma=Affine.init(rng, h, d),
            phi_d=Mlp2.init(rng, d, hidden_width(p), p),
        )


def default_latent_dim(p: int) -> int:
    return max(2, min(16, -(-p // 4)))


@np.errstate(all="ignore")
def self_calibrate(z: Tensor, params: CalibrationParams, rng):
    """The self-calibrated residual of z (b, p), one `calibration` node. A
    sigmoid of the logits phi_c(z) maps into the dropout rate δ ∈ DELTA_RANGE
    and the scale γ ∈ GAMMA_RANGE, each (b, 1). Train mode gives s = z +
    γ·(phi_t(z)·m)/(1−δ) with the constant mask m = rng.bernoulli(1−δ,
    z.shape); eval mode (`rng` None) replaces the mask by its expectation,
    s = z + γ·phi_t(z). Returns (s, δ, γ as ndarrays)."""
    phi_c, phi_t = params.phi_c, params.phi_t
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
        gz_t = phi_t.backward(z.data, ht, g * m * (gamma / keep))
        g_gamma = (g * t * m).sum(axis=1, keepdims=True) / keep
        slope = c * (1.0 - c)
        glogits = np.zeros_like(a)
        glogits[:, 1:2] = g_gamma * (g_hi - g_lo) * slope[:, 1:2]
        if rng is not None:
            glogits[:, 0:1] = g_gamma * gamma / keep * (d_hi - d_lo) * slope[:, 0:1]
        gz_c = phi_c.backward(z.data, hc, glogits)
        z.grad += g + gz_t + gz_c  # the residual's term, then phi_t's, then phi_c's

    return _node("calibration", s, (z, params.leaf), backward), delta, gamma


@np.errstate(all="ignore")
def encode(s: Tensor, params: VariationalParams) -> Tensor:
    """The variational encoder of s (b, p), one (2, b, d) node holding μ and
    log σ: h = tanh(phi_e(s)), μ = phi_mu(h) and log σ = phi_sigma(h) clamped
    to ±LOG_SIGMA_CLAMP."""
    phi_e, phi_mu, phi_sigma = params.phi_e, params.phi_mu, params.phi_sigma
    h = np.tanh(phi_e(s.data, "encode"))
    raw = phi_sigma(h, "encode")
    out = np.empty((2,) + raw.shape)
    out[0] = phi_mu(h, "encode")
    out[1] = np.clip(raw, -LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)

    def backward(g):
        gh_mu = phi_mu.backward(h, g[0])
        g_raw = g[1] * ((raw >= -LOG_SIGMA_CLAMP) & (raw <= LOG_SIGMA_CLAMP))
        gh = phi_sigma.backward(h, g_raw) + gh_mu  # h's terms: log σ's, then μ's
        s.grad += phi_e.backward(s.data, gh * (1.0 - h * h))

    return _node("encode", out, (s, params.leaf), backward)


@np.errstate(all="ignore")
def decode(latent: Tensor, s: Tensor, params: VariationalParams, rng) -> Tensor:
    """v = s + phi_d(r) for s (b, p) and the `encode` node `latent`, one node.
    Train mode draws r = μ + ε·σ, σ = exp(log σ), with ε = rng.normal(μ.shape),
    a constant, so r ~ N(μ, σ²), the posterior whose KL `loss` charges; eval
    mode (`rng` None) takes the posterior mean r = μ."""
    phi_d = params.phi_d
    r, log_sigma = latent.data  # r is the posterior mean μ in eval mode
    if rng is not None:
        eps = rng.normal(r.shape)
        sd = np.exp(log_sigma)
        r = _guard("decode", r + eps * sd)
    h, out = phi_d(r, "decode")

    def backward(g):
        s.grad += g
        gr = phi_d.backward(r, h, g)
        latent.grad[0] += gr
        if rng is not None:
            latent.grad[1] += gr * eps * sd

    return _node("decode", s.data + out, (latent, s, params.leaf), backward)


def variational_encode_decode(s, params, rng):
    """Encode to (mu, log sigma), sample by reparameterization with noise
    from `rng` (train mode) or take the posterior mean (`rng` None, eval
    mode), decode with a residual back to feature space. Returns (v, the
    `encode` node, whose data[0] is mu and data[1] log sigma)."""
    latent = encode(s, params)
    return decode(latent, s, params, rng), latent
