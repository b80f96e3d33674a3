"""Self-calibration (input-conditioned dropout rate and scaling on a
transformed-feature residual branch) followed by the variational
encode-sample-decode block, whose KL regularizer is part of the `loss` op.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .layers import Affine, Mlp2, hidden_width
from .tensor import Rng, calibration, decode, encode


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
    """The calibrated residual branch on z (b, p), the `calibration` op:
    returns (s, delta, gamma), delta and gamma (b, 1) ndarrays. With `rng`
    None (eval mode) the dropout mask is replaced by its expectation."""
    return calibration(z, params.phi_c, params.phi_t, rng)


def variational_encode_decode(s, params, rng):
    """Encode to (mu, log sigma), sample by reparameterization with noise
    from `rng` (train mode) or take the posterior mean (`rng` None, eval
    mode), decode with a residual back to feature space. Returns (v, the
    `encode` node, whose data[0] is mu and data[1] log sigma)."""
    latent = encode(s, params.phi_e, params.phi_mu, params.phi_sigma)
    return decode(latent, s, params.phi_d, rng), latent
