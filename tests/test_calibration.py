import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalarnet.calibration import (
    CalibrationParams,
    VariationalParams,
    self_calibrate,
    variational_encode_decode,
)
from scalarnet.errors import NumericError
from scalarnet.layers import named_tensors
from scalarnet.losses import loss
from scalarnet.model import bind
from scalarnet.tensor import Rng, Tensor


def laid_out(record):
    """`record`, laid out alone in fresh buffers as a model lays out its own."""
    bind([record])
    return record


def zeroed(net):
    for t in named_tensors(net, "x").values():
        t.data = np.zeros_like(t.data)


def kl_term(mu, log_sigma):
    """The batch-mean KL term of N(mu, sigma²) alone: the `loss` node of a
    perfect prediction with kl_scale 1, and its (2, b, d) latent leaf."""
    latent = Tensor(np.stack([np.asarray(mu, dtype=float), np.asarray(log_sigma, dtype=float)]))
    b = latent.data.shape[1]
    return loss(Tensor(np.zeros(b)), np.zeros(b), latent, 1.0, 1.0, 1.0)[0], latent


class TestSelfCalibrate:
    def test_forced_zero_delta_train_equals_eval(self):
        # drive the delta logit to -inf territory: sigmoid ~ 4e-18, so
        # 1/(1 - delta) rounds to exactly 1 and the mask is all ones a.s.
        params = laid_out(CalibrationParams.init(Rng(0), p=5))
        params.phi_c.l2.w.data[:] = 0.0
        params.phi_c.l2.b.data[:] = np.array([-40.0, 0.0])
        z = Tensor(np.random.default_rng(1).normal(size=(6, 5)))
        s_train, _, _ = self_calibrate(z, params, Rng(2))
        s_eval, _, _ = self_calibrate(z, params, None)
        assert np.array_equal(s_train.data, s_eval.data)

    def test_zero_transform_is_identity(self):
        params = laid_out(CalibrationParams.init(Rng(3), p=4))
        zeroed(params.phi_t)
        z = np.random.default_rng(4).normal(size=(5, 4))
        s, _, _ = self_calibrate(Tensor(z), params, None)
        assert np.array_equal(s.data, z)

    def test_train_mask_mean_converges_to_eval(self):
        params = laid_out(CalibrationParams.init(Rng(5), p=4))
        z = Tensor(np.random.default_rng(6).normal(size=(3, 4)))
        s_eval, delta, _ = self_calibrate(z, params, None)
        rng = Rng(7)
        n_draws = 10_000
        acc = np.zeros((3, 4))
        acc2 = np.zeros((3, 4))
        for _ in range(n_draws):
            s, _, _ = self_calibrate(z, params, rng)
            acc += s.data
            acc2 += s.data**2
        mean = acc / n_draws
        se = np.sqrt(np.maximum(acc2 / n_draws - mean**2, 0) / n_draws)
        assert (np.abs(mean - s_eval.data) <= 3 * se + 1e-12).all()

    def test_delta_gamma_ranges(self):
        params = laid_out(CalibrationParams.init(Rng(8), p=6))
        z = Tensor(np.random.default_rng(9).normal(size=(10_000, 6)) * 5)
        _, delta, gamma = self_calibrate(z, params, None)
        assert delta.shape == gamma.shape == (10_000, 1)
        assert (delta >= 0).all() and (delta <= 0.4).all()
        assert (gamma >= 0.5).all() and (gamma <= 1.0).all()

    def test_train_mask_is_bernoulli_of_keep_probability(self):
        # the mask is rng.bernoulli(1 - delta, z.shape), drawn once per call
        params = laid_out(CalibrationParams.init(Rng(12), p=4))
        z = Tensor(np.random.default_rng(13).normal(size=(5, 4)))
        s, delta, gamma = self_calibrate(z, params, Rng(3))
        mask = Rng(3).bernoulli(1.0 - delta, (5, 4))
        t = params.phi_t(z.data, "calibration")[1]
        expected = z.data + gamma * (t * mask) / (1.0 - delta)
        np.testing.assert_array_equal(s.data, expected)

    def test_train_deterministic_given_seed(self):
        params = laid_out(CalibrationParams.init(Rng(10), p=4))
        z = Tensor(np.random.default_rng(11).normal(size=(5, 4)))
        a, _, _ = self_calibrate(z, params, Rng(1))
        b, _, _ = self_calibrate(z, params, Rng(1))
        assert np.array_equal(a.data, b.data)


class TestVariational:
    def test_zero_decoder_eval_identity(self):
        params = laid_out(VariationalParams.init(Rng(0), p=6, d=2))
        zeroed(params.phi_d)
        s = np.random.default_rng(1).normal(size=(4, 6))
        v, _ = variational_encode_decode(Tensor(s), params, None)
        assert np.array_equal(v.data, s)

    def test_small_sigma_train_close_to_eval(self):
        # clamp log sigma near the floor via the phi_sigma bias; with a fixed
        # linear decoder the train/eval deviation stays below 0.01 per element
        params = laid_out(VariationalParams.init(Rng(2), p=6, d=2))
        params.phi_sigma.w.data[:] = 0.0
        params.phi_sigma.b.data[:] = -10.0
        zeroed(params.phi_d)
        lin = np.random.default_rng(3).normal(size=(2, 6)) * 0.1
        params.phi_d.l1.w.data = np.eye(2, 8)
        params.phi_d.l2.w.data = np.vstack([lin, np.zeros((6, 6))])
        s = Tensor(np.random.default_rng(4).normal(size=(5, 6)))
        v_eval, _ = variational_encode_decode(s, params, None)
        rng = Rng(5)
        worst = 0.0
        for _ in range(1000):
            v, _ = variational_encode_decode(s, params, rng)
            worst = max(worst, np.abs(v.data - v_eval.data).max())
        assert worst < 0.01

    @pytest.mark.parametrize("log_sigma", [0.0, -1.0, 1.0])
    def test_reparameterized_variance(self, log_sigma):
        """The draw's variance is σ² = exp(2 log σ), the variance the KL in
        `loss` charges for."""
        params = laid_out(VariationalParams.init(Rng(6), p=2, d=1))
        # mu = 0 and log sigma fixed, regardless of input
        params.phi_mu.w.data[:] = 0.0
        params.phi_mu.b.data[:] = 0.0
        params.phi_sigma.w.data[:] = 0.0
        params.phi_sigma.b.data[:] = log_sigma
        # a decoder that is the identity on the draw to ~1e-6: v_0 = 1e3·tanh(1e-3·z)
        zeroed(params.phi_d)
        params.phi_d.l1.w.data[0, 0] = 1e-3
        params.phi_d.l2.w.data[0, 0] = 1e3
        s = Tensor(np.zeros((100_000, 2)))
        v, _ = variational_encode_decode(s, params, Rng(7))
        var = float(v.data[:, 0].var())
        assert 0.98 < var / np.exp(2.0 * log_sigma) < 1.02

    def test_eval_deterministic(self):
        params = laid_out(VariationalParams.init(Rng(8), p=5, d=2))
        s = Tensor(np.random.default_rng(9).normal(size=(4, 5)))
        v1, *_ = variational_encode_decode(s, params, None)
        v2, *_ = variational_encode_decode(s, params, None)
        assert np.array_equal(v1.data, v2.data)

    def test_whole_module_identity_when_zeroed(self):
        cal = laid_out(CalibrationParams.init(Rng(10), p=4))
        var = laid_out(VariationalParams.init(Rng(11), p=4, d=2))
        zeroed(cal.phi_t)
        zeroed(var.phi_d)
        z = np.random.default_rng(12).normal(size=(6, 4))
        s, _, _ = self_calibrate(Tensor(z), cal, None)
        v, *_ = variational_encode_decode(s, var, None)
        assert np.array_equal(v.data, z)


class TestKlTerm:
    def test_zero_at_prior(self):
        kl, _ = kl_term(np.zeros((3, 2)), np.zeros((3, 2)))
        assert float(kl.data) == 0.0

    def test_half_mu_squared(self):
        kl, _ = kl_term([[1.0]], [[0.0]])
        assert float(kl.data) == pytest.approx(0.5, abs=1e-15)

    def test_sigma_four(self):
        # sigma^2 = 4: 0.5 * (4 - log 4 - 1)
        kl, _ = kl_term([[0.0]], [[np.log(4.0) / 2]])
        assert float(kl.data) == pytest.approx(0.5 * (4 - np.log(4.0) - 1), abs=1e-12)

    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=6),
        st.lists(st.floats(-2, 2), min_size=2, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, mus, logs):
        m = min(len(mus), len(logs))
        kl, _ = kl_term([mus[:m]], [logs[:m]])
        assert float(kl.data) >= 0.0

    def test_rounding_below_zero_reads_zero(self):
        # the sum rounds to -5.55e-17 here: the loss and its KL floor it at 0
        latent = Tensor(np.stack([np.zeros((1, 2)), [[0.0, -1.107e-14]]]))
        out, _, _, kl = loss(Tensor(np.zeros(1)), np.zeros(1), latent, 1.0, 1.0, 1.0)
        assert float(out.data) == 0.0 and kl == 0.0
        with pytest.raises(NumericError, match="'loss'"):  # the floor keeps a NaN
            kl_term([[np.nan]], [[0.0]])

    def test_zero_iff_prior(self):
        kl, _ = kl_term([[0.1, 0.0]], [[0.0, 0.0]])
        assert float(kl.data) > 0.0
        kl, _ = kl_term([[0.0, 0.0]], [[0.05, 0.0]])
        assert float(kl.data) > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        mu0 = rng.normal(size=(3, 2))
        ls0 = rng.normal(size=(3, 2)) * 0.5

        def value(mu, ls):
            return float(kl_term(mu, ls)[0].data)

        kl, latent = kl_term(mu0, ls0)
        kl.backward()
        h = 1e-6
        for g, base, other, first in ((latent.grad[0], mu0, ls0, True),
                                      (latent.grad[1], ls0, mu0, False)):
            num = np.zeros_like(base)
            for idx in np.ndindex(base.shape):
                up, dn = base.copy(), base.copy()
                up[idx] += h
                dn[idx] -= h
                if first:
                    num[idx] = (value(up, other) - value(dn, other)) / (2 * h)
                else:
                    num[idx] = (value(other, up) - value(other, dn)) / (2 * h)
            np.testing.assert_allclose(g, num, rtol=1e-8, atol=1e-8)
