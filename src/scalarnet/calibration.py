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


def self_calibrate(z, params, rng):
    """Apply the calibrated residual branch.

    Returns (s, delta, gamma): s is the (b, p) graph Tensor; delta and gamma
    are (b, 1) ndarrays outside the graph. With an `rng` (train mode) the
    transformed features are multiplied by an inverted-dropout Bernoulli mask
    drawn per element, after delta is known; with `rng` None (eval mode) the
    mask is replaced by its expectation, which cancels the 1/(1-delta) factor.
    """
    return calibrate(z, params.phi_c(z), params.phi_t(z), rng)


def variational_encode_decode(s, params, rng):
    """Encode to (mu, log sigma), sample by reparameterization with noise
    from `rng` (train mode) or take the posterior mean (`rng` None, eval
    mode), decode with a residual back to feature space."""
    h = params.phi_e(s).tanh()
    mu = params.phi_mu(h)
    log_sigma = params.phi_sigma(h).clamp(-LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)
    z = mu if rng is None else reparameterize(mu, log_sigma, rng.normal(mu.data.shape))
    v = s + params.phi_d(z)
    return v, mu, log_sigma, z
