"""Self-calibration (input-conditioned dropout rate and scaling on a
transformed-feature residual branch) followed by the variational
encode-sample-decode block and its KL regularizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .layers import Affine, Mlp2, hidden_width
from .tensor import Rng, calibrate, kl_term, reparameterize  # kl_term re-exported

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
    """Apply the calibrated residual branch.

    Returns (s, delta, gamma): s is the (b, p) graph Tensor; delta and gamma
    are (b, 1) ndarrays outside the graph. Train mode multiplies the
    transformed features by an inverted-dropout Bernoulli mask drawn per
    element; eval mode replaces the mask by its expectation, which cancels
    the 1/(1-delta) factor. `mask` overrides the draw (used to freeze noise
    for gradient checks).
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "train" and mask is None and rng is None:
        raise ConfigError("train-mode self_calibrate needs an rng or a mask")

    def draw(delta):  # after delta is known, before the variational eps
        return mask if mask is not None else rng.bernoulli(1.0 - delta, z.data.shape)

    return calibrate(z, params.phi_c(z), params.phi_t(z), draw if mode == "train" else None)


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
        z = reparameterize(mu, log_sigma, eps)
    v = s + params.phi_d(z)
    return v, mu, log_sigma, z
