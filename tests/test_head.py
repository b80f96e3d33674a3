import math
import warnings

import numpy as np
import pytest

from scalarnet.errors import ConfigError, DataError, NumericError
from scalarnet.head import HeadParams, default_components, feature_importance, head_forward
from scalarnet.layers import named_tensors
from scalarnet.losses import loss
from scalarnet.model import bind
from scalarnet.tensor import Rng, Tensor


def laid_out(record):
    """`record`, laid out alone in fresh buffers as a model lays out its own."""
    bind([record])
    return record


def loop_oracle(g, params):
    """Scalar-loop reimplementation of the head: three projections, softmax
    tier weights applied per block, concatenation, final two-layer net."""
    b, p = g.shape

    def affine(v, layer):
        w, bias = layer.w.data, layer.b.data
        return [
            bias[j] + sum(v[i] * w[i, j] for i in range(len(v)))
            for j in range(w.shape[1])
        ]

    def mlp2(v, net):
        return affine([math.tanh(t) for t in affine(v, net.l1)], net.l2)

    out = np.zeros(b)
    for i in range(b):
        gi = list(g[i])
        logits = mlp2(gi, params.phi_alpha)
        mx = max(logits)
        exps = [math.exp(t - mx) for t in logits]
        alpha = [t / sum(exps) for t in exps]
        blocks = []
        for a_idx, w in enumerate((params.w1, params.w2, params.w3)):
            wj = w.data
            t_block = [
                alpha[a_idx] * sum(gi[r] * wj[r, c] for r in range(p))
                for c in range(wj.shape[1])
            ]
            blocks.extend(t_block)
        out[i] = mlp2(blocks, params.phi_y)[0]
    return out


class TestHeadForward:
    def test_equal_logits_give_uniform_alpha(self):
        params = laid_out(HeadParams.init(Rng(0), 6, default_components(6)))
        for t in named_tensors(params.phi_alpha, "a").values():
            t.data = np.zeros_like(t.data)
        g = np.random.default_rng(1).normal(size=(4, 6))
        y, alpha = head_forward(Tensor(g), params)
        np.testing.assert_allclose(alpha, 1 / 3, atol=1e-15)
        assert y.data.shape == (4,)

    def test_zero_projections_constant_output(self):
        params = laid_out(HeadParams.init(Rng(2), 5, default_components(5)))
        for w in (params.w1, params.w2, params.w3):
            w.data = np.zeros_like(w.data)
        g = np.random.default_rng(3).normal(size=(6, 5))
        y, _ = head_forward(Tensor(g), params)
        np.testing.assert_allclose(y.data, y.data[0], atol=1e-15)

    def test_matches_loop_oracle(self):
        params = laid_out(HeadParams.init(Rng(4), p=8, components=(4, 3, 2)))
        g = np.random.default_rng(5).normal(size=(5, 8))
        y, _ = head_forward(Tensor(g), params)
        np.testing.assert_allclose(y.data, loop_oracle(g, params), atol=1e-10)

    def test_alpha_simplex(self):
        params = laid_out(HeadParams.init(Rng(6), 7, default_components(7)))
        g = np.random.default_rng(7).normal(size=(30, 7))
        _, alpha = head_forward(Tensor(g), params)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert (alpha >= 0).all()

    def test_gradients_reach_all_parameters(self):
        params = laid_out(HeadParams.init(Rng(8), 6, default_components(6)))
        g = np.random.default_rng(9).normal(size=(5, 6))
        y, _ = head_forward(Tensor(g), params)
        loss(y, np.zeros(5), None, 1.0, 1.0, 0.0)[0].backward()  # mean(y^2)
        for name, t in named_tensors(params, "h").items():
            assert np.abs(t.grad).max() > 0, f"no gradient reached {name}"

    def test_overflowing_projection_names_the_head(self):
        # only g @ w1 overflows; phi_y's first layer, which reads the blocks,
        # raises naming the op, and numpy does not warn first
        params = laid_out(HeadParams.init(Rng(0), 6, (4, 3, 2)))
        params.w1.data[...] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="'head'"):
                head_forward(Tensor(np.full((3, 6), 2.0)), params)

    def test_c1_exceeding_p_rejected(self):
        with pytest.raises(ConfigError):
            HeadParams.init(Rng(0), p=4, components=(5, 3, 2))

    def test_nondecreasing_components_rejected(self):
        with pytest.raises(ConfigError):
            HeadParams.init(Rng(0), p=8, components=(4, 4, 2))

    def test_default_components_decrease(self):
        for p in (3, 4, 5, 8, 16, 50):
            c1, c2, c3 = default_components(p)
            assert c1 > c2 > c3 >= 1 and c1 <= p


class TestFeatureImportance:
    def test_single_sample_single_kernel(self):
        raw, norm = feature_importance([(np.array([[[0.6, 0.8]]]), np.array([[1.0]]))])
        np.testing.assert_allclose(raw, [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(norm, [0.0, 1.0], atol=1e-15)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        k_hat = rng.normal(size=(5, 3, 4))
        w = rng.random((5, 3))
        _, norm1 = feature_importance([(k_hat, w)])
        _, norm2 = feature_importance(
            [(np.concatenate([k_hat, k_hat]), np.concatenate([w, w]))]
        )
        np.testing.assert_allclose(norm1, norm2, atol=1e-14)

    def test_rescaling_invariance(self):
        # min-max normalization is invariant to positive scaling of raw scores
        rng = np.random.default_rng(1)
        k_hat = rng.normal(size=(4, 2, 5))
        w = rng.random((4, 2))
        raw, norm = feature_importance([(k_hat, w)])
        scaled = 7.3 * raw
        np.testing.assert_allclose(
            (scaled - scaled.min()) / (scaled.max() - scaled.min()), norm, atol=1e-12
        )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        n, k, p = 3, 2, 4
        k_hat = rng.normal(size=(n, k, p))
        w = rng.random((n, k))
        raw, _ = feature_importance([(k_hat, w)])
        expected = np.zeros(p)
        for j in range(p):
            acc = 0.0
            for i in range(n):
                inner = 0.0
                for l in range(k):
                    inner += w[i, l] * k_hat[i, l, j]
                acc += abs(inner)
            expected[j] = acc / n
        np.testing.assert_allclose(raw, expected, atol=1e-12)

    def test_endpoints_attained(self):
        rng = np.random.default_rng(3)
        _, norm = feature_importance([(rng.normal(size=(10, 3, 6)), rng.random((10, 3)))])
        assert norm.min() == 0.0 and norm.max() == 1.0
        assert ((norm >= 0) & (norm <= 1)).all()

    def test_blocks_reduce_to_the_bits_of_one(self):
        """Rows add in row order across blocks, empty blocks included."""
        rng = np.random.default_rng(4)
        k_hat = rng.normal(size=(300, 4, 12))
        w = rng.random((300, 4))
        cuts = [0, 1, 1, 97, 256, 300]
        blocks = [(k_hat[a:b], w[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        raw, norm = feature_importance(blocks)
        ref = np.abs(np.einsum("il,ilj->ij", w, k_hat)).mean(axis=0)
        assert np.array_equal(raw, ref)
        assert np.array_equal(norm, feature_importance([(k_hat, w)])[1])

    def test_blocks_of_other_widths_error(self):
        with pytest.raises(DataError, match="do not conform"):
            feature_importance([(np.ones((2, 1, 3)), np.ones((2, 1))),
                                (np.ones((2, 1, 4)), np.ones((2, 1)))])

    def test_degenerate_importance_errors(self):
        with pytest.raises(DataError, match="degenerate"):
            feature_importance([(np.ones((2, 1, 3)), np.ones((2, 1)))])

    def test_one_feature_errors(self):
        with pytest.raises(DataError, match="p >= 2"):
            feature_importance([(np.ones((2, 1, 1)), np.ones((2, 1)))])

    def test_empty_trace_errors(self):
        with pytest.raises(DataError):
            feature_importance([(np.zeros((0, 1, 3)), np.zeros((0, 1)))])
