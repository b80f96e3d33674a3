"""Self-calibration (input-conditioned dropout rate and scaling on a
transformed-feature residual branch) followed by the variational
encode-sample-decode block and its KL regularizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .layers import Affine, Mlp2, hidden_width
from .tensor import Rng, Tensor

DELTA_RANGE = (0.0, 0.4)
GAMMA_RANGE = (0.5, 1.0)
LOG_SIGMA_CLAMP = 10.0


@dataclass
class CalibrationParams:
    p: int
    phi_t: Mlp2  # p -> p
    phi_c: Mlp2  # p -> 2, sigmoid-scaled into the delta/gamma ranges

    @classmethod
    def init(cls, rng: Rng, p: int) -> "CalibrationParams":
        h = hidden_width(p)
        return cls(p=p, phi_t=Mlp2.init(rng, p, h, p), phi_c=Mlp2.init(rng, p, h, 2))


@dataclass
class VariationalParams:
    p: int
    d: int
    phi_e: Affine  # p -> ceil(p/2), tanh applied after
    phi_mu: Affine  # ceil(p/2) -> d
    phi_sigma: Affine  # ceil(p/2) -> d
    phi_d: Mlp2  # d -> p

    @classmethod
    def init(cls, rng: Rng, p: int, d: int) -> "VariationalParams":
        if d < 1:
            raise ConfigError(f"latent dimension must be >= 1, got {d}")
        h = (p + 1) // 2
        return cls(
            p=p,
            d=d,
            phi_e=Affine.init(rng, p, h),
            phi_mu=Affine.init(rng, h, d),
            phi_sigma=Affine.init(rng, h, d),
            phi_d=Mlp2.init(rng, d, hidden_width(p), p),
        )


def default_latent_dim(p: int) -> int:
    return max(2, min(16, -(-p // 4)))


def self_calibrate(z, params, mode="train", rng=None, mask=None):
    """Apply the calibrated residual branch; returns (s, delta, gamma) Tensors.

    Train mode multiplies the transformed features by an inverted-dropout
    Bernoulli mask drawn per element; eval mode replaces the mask by its
    expectation, which cancels the 1/(1-delta) factor.
    `mask` overrides the draw (used to freeze noise for gradient checks).
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    cal = params.phi_c(z).sigmoid()  # (b, 2) in (0, 1)
    delta = cal.cols(0, 1) * (DELTA_RANGE[1] - DELTA_RANGE[0]) + DELTA_RANGE[0]
    gamma = cal.cols(1, 2) * (GAMMA_RANGE[1] - GAMMA_RANGE[0]) + GAMMA_RANGE[0]
    t = params.phi_t(z)
    if mode == "eval":
        s = z + gamma * t
    else:
        if mask is None:
            if rng is None:
                raise ConfigError("train-mode self_calibrate needs an rng or a mask")
            mask = rng.bernoulli(1.0 - delta.data, z.data.shape)
        # mask is a constant: gradients flow via gamma, phi_t and delta only
        s = z + gamma * (t * Tensor(mask)) / (1.0 - delta)
    return s, delta, gamma


def variational_encode_decode(s, params, mode="train", rng=None, eps=None):
    """Encode to (mu, log sigma), sample by reparameterization (train) or take
    the posterior mean (eval), decode with a residual back to feature space."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    h = params.phi_e(s).tanh()
    mu = params.phi_mu(h)
    log_sigma = params.phi_sigma(h).clamp(-LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)
    if mode == "eval":
        z = mu
    else:
        if eps is None:
            if rng is None:
                raise ConfigError("train-mode encode needs an rng or frozen eps")
            eps = rng.normal(mu.data.shape)
        z = mu + Tensor(eps) * (log_sigma * 0.5).exp()
    v = s + params.phi_d(z)
    return v, mu, log_sigma, z


def kl_term(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """Batch-mean KL divergence of N(mu, sigma^2 I) from N(0, I); nonnegative,
    zero iff mu = 0 and log sigma = 0."""
    b = mu.data.shape[0]
    per_elem = mu * mu + (log_sigma * 2.0).exp() - log_sigma * 2.0 - 1.0
    return per_elem.sum() * (0.5 / b)
