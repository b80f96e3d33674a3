import copy
from collections import Counter

import numpy as np
import pytest

from scalarnet import tensor
from scalarnet.attention import (
    AttentionBucket,
    FeatureGroupSpec,
    KernelAttentionParams,
    grouped_attention_forward,
    kernel_attention_forward,
    stack_groups,
)
from scalarnet.errors import ConfigError
from scalarnet.layers import named_tensors
from scalarnet.losses import composite_loss
from scalarnet.model import ModelConfig, ScalarModel, bind
from scalarnet.tensor import Rng, Tensor, no_grad


def loop_oracle(x, params):
    """Straight-line scalar reimplementation of the attention equations:
    kernels, normalization, softmax weights, weighted kernel-modulated sum,
    projection + residual. Pure Python loops over every index."""
    import math

    b, p = x.shape
    k = params.k

    def affine(v, layer):
        w, bias = layer.w.data, layer.b.data
        out = [0.0] * w.shape[1]
        for j in range(w.shape[1]):
            acc = bias[j]
            for i in range(len(v)):
                acc += v[i] * w[i, j]
            out[j] = acc
        return out

    def mlp2(v, net):
        h = [math.tanh(t) for t in affine(v, net.l1)]
        return affine(h, net.l2)

    z = np.zeros((b, p))
    for i in range(b):
        xi = list(x[i])
        raw = mlp2(xi, params.phi_k)
        k_hat = []
        for j in range(k):
            kj = raw[j * p : (j + 1) * p]
            norm = math.sqrt(sum(t * t for t in kj))
            k_hat.append([t / max(norm, 1e-12) for t in kj])
        logits = mlp2(xi, params.phi_w)
        mx = max(logits)
        exps = [math.exp(t - mx) for t in logits]
        s = sum(exps)
        w = [t / s for t in exps]
        a = [0.0] * p
        for j in range(k):
            for f in range(p):
                a[f] += w[j] * xi[f] * k_hat[j][f]
        proj = affine(a, params.phi_p)
        for f in range(p):
            z[i, f] = proj[f] + xi[f]
    return z


def laid_out(buckets):
    """`buckets`, laid out in fresh buffers as a model lays out its own."""
    bind(buckets)
    return buckets


def tier(params):
    """One kernel attention tier of `params`, a one-group bucket."""
    return laid_out([AttentionBucket([(0, params.p_in)], [params])])[0]


class TestFeatureGroupSpec:
    def test_valid(self):
        spec = FeatureGroupSpec([(0, 2), (2, 5)])
        assert spec.n_features == 5

    @pytest.mark.parametrize(
        "groups", [[(1, 3)], [(0, 2), (3, 5)], [(0, 0)], [(0, 3), (2, 5)], []]
    )
    def test_invalid(self, groups):
        with pytest.raises(ConfigError):
            FeatureGroupSpec(groups)

    def test_width_mismatch(self):
        with pytest.raises(ConfigError):
            FeatureGroupSpec([(0, 3)]).validate_width(4)


class TestKernelAttention:
    def test_residual_identity_at_zero_projection(self):
        # phi_p initializes to zero, so the block starts as the identity
        params = KernelAttentionParams.init(Rng(0), p_in=5, k=3)
        x = np.random.default_rng(1).normal(size=(4, 5))
        trace = kernel_attention_forward(Tensor(x), tier(params))
        assert np.array_equal(trace.z.data, x)

    def test_single_kernel_weight_is_one(self):
        params = KernelAttentionParams.init(Rng(2), p_in=4, k=1)
        x = np.random.default_rng(3).normal(size=(6, 4))
        trace = kernel_attention_forward(Tensor(x), tier(params))
        np.testing.assert_array_equal(trace.w, np.ones((6, 1)))

    def test_matches_loop_oracle(self):
        params = KernelAttentionParams.init(Rng(4), p_in=4, k=2)
        # make the projection nontrivial
        params.phi_p.w.data[...] = np.random.default_rng(5).normal(size=(4, 4)) * 0.3
        params.phi_p.b.data[...] = np.random.default_rng(6).normal(size=4) * 0.1
        x = np.random.default_rng(7).normal(size=(3, 4))
        trace = kernel_attention_forward(Tensor(x), tier(params))
        np.testing.assert_allclose(trace.z.data, loop_oracle(x, params), atol=1e-10)

    def test_kernel_unit_norms_and_weight_simplex(self):
        params = KernelAttentionParams.init(Rng(8), p_in=7, k=4)
        x = np.random.default_rng(9).normal(size=(20, 7))
        trace = kernel_attention_forward(Tensor(x), tier(params))
        norms = np.linalg.norm(trace.k_hat, axis=2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)
        np.testing.assert_allclose(trace.w.sum(axis=1), 1.0, atol=1e-12)
        assert (trace.w >= 0).all()

    def test_gradients_reach_all_parameters(self):
        params = KernelAttentionParams.init(Rng(10), p_in=4, k=2)
        # zero-initialized phi_p blocks the phi_k/phi_w path by construction;
        # the flow invariant is about a generic projection
        params.phi_p.w.data[...] = np.random.default_rng(12).normal(size=(4, 4))
        x = np.random.default_rng(11).normal(size=(5, 4))
        trace = kernel_attention_forward(Tensor(x), tier(params))
        data = np.random.default_rng(13)
        weighted_sum(trace.z, data.normal(size=5), data.normal(size=4)).backward()
        for name, t in named_tensors(params, "a").items():
            assert np.abs(t.grad).max() > 0, f"no gradient reached {name}"


class TestGroupedAttention:
    def test_single_group_reduces_to_plain_forward(self):
        spec = FeatureGroupSpec([(0, 5)])
        params = KernelAttentionParams.init(Rng(0), p_in=5, k=3)
        alone = copy.deepcopy(params)
        x = np.random.default_rng(1).normal(size=(4, 5))
        z, traces = grouped_attention_forward(Tensor(x), laid_out(stack_groups(spec.groups,
                                                                               [params])))
        direct = kernel_attention_forward(Tensor(x), tier(alone))
        assert np.array_equal(z.data, direct.z.data)
        assert len(traces) == 1

    def test_identical_groups_identical_blocks(self):
        spec = FeatureGroupSpec([(0, 3), (3, 6)])
        params = KernelAttentionParams.init(Rng(5), p_in=3, k=2)
        params.phi_p.w.data[...] = np.random.default_rng(6).normal(size=(3, 3))
        half = np.random.default_rng(7).normal(size=(4, 3))
        x = np.concatenate([half, half], axis=1)
        twin = copy.deepcopy(params)
        z, _ = grouped_attention_forward(Tensor(x), laid_out(stack_groups(spec.groups,
                                                                          [params, twin])))
        assert np.array_equal(z.data[:, :3], z.data[:, 3:])

    def test_processing_order_irrelevant(self):
        # concatenation is by spec position; running groups in any order and
        # reassembling gives bit-identical output
        spec = FeatureGroupSpec([(0, 2), (2, 6)])
        rng = Rng(12)
        plist = [
            KernelAttentionParams.init(rng, 2, 2),
            KernelAttentionParams.init(rng, 4, 2),
        ]
        for prm in plist:
            prm.phi_p.w.data[...] = np.random.default_rng(13).normal(size=prm.phi_p.w.data.shape)
        alone = copy.deepcopy(plist)
        x = np.random.default_rng(14).normal(size=(5, 6))
        z, _ = grouped_attention_forward(Tensor(x), laid_out(stack_groups(spec.groups, plist)))
        blocks = {}
        for g in (1, 0):  # reversed processing order
            s, e = spec.groups[g]
            blocks[g] = kernel_attention_forward(Tensor(x[:, s:e]), tier(alone[g])).z.data
        reassembled = np.concatenate([blocks[0], blocks[1]], axis=1)
        assert np.array_equal(z.data, reassembled)

    def test_spec_not_covering_data(self):
        model = ScalarModel(ModelConfig(groups=[[0, 2], [2, 4]], k=2), 4)
        with pytest.raises(ConfigError, match=r"\(batch, 4\)"):
            model.forward(np.zeros((2, 5)), "eval")


def weighted_sum(z, u, w):
    """uᵀ z w as one scalar test node on tensor._node; z's gradient is exactly
    the outer product u wᵀ, each element one rounded product."""

    def backward(g):
        z.grad += g * np.outer(u, w)

    return tensor._node("weighted_sum", u @ z.data @ w, (z,), backward)


def random_group_params(widths, k, seed):
    rng = Rng(seed)
    plist = [KernelAttentionParams.init(rng, w, k) for w in widths]
    for prm in plist:  # a nonzero projection, so every parameter gets a gradient
        prm.phi_p.w.data[...] = rng.normal(prm.phi_p.w.data.shape) * 0.5
    return plist


class TestFusedGroups:
    """All groups run in one kernel_attention node, stacked by width; each
    group's output and gradients are those of running it alone."""

    @pytest.mark.parametrize("widths,rows", [
        ((6,) * 2, 5), ((6,) * 8, 9), ((6,) * 16, 3), ((1, 6, 6, 3, 1), 1),
        ((1, 6, 6, 3, 1), 128)])
    def test_stacked_groups_equal_each_group_alone(self, widths, rows):
        bounds = np.cumsum((0,) + widths)
        spec = FeatureGroupSpec(list(zip(bounds[:-1], bounds[1:])))
        plist = random_group_params(widths, 3, seed=len(widths))
        copies = copy.deepcopy(plist)  # each group's record, laid out alone below
        data = np.random.default_rng(rows)
        x, c = data.normal(size=(2, rows, bounds[-1]))
        u, w = c[:, 0], c[0]  # the upstream gradient is u wᵀ
        with no_grad():
            xt = Tensor(x)
        z, traces = grouped_attention_forward(xt, laid_out(stack_groups(spec.groups, plist)))
        weighted_sum(z, u, w).backward()
        fused = [{n: t.grad.copy() for n, t in named_tensors(prm, "a").items()}
                 for prm in plist]
        for g, ((s, e), prm) in enumerate(zip(spec.groups, copies)):
            with no_grad():
                xg = Tensor(x[:, s:e])
            alone = kernel_attention_forward(xg, tier(prm))
            assert np.array_equal(z.data[:, s:e], alone.z.data)
            assert np.array_equal(traces[g].k_hat, alone.k_hat)
            assert np.array_equal(traces[g].w, alone.w)
            weighted_sum(alone.z, u, w[s:e]).backward()
            for name, t in named_tensors(prm, "a").items():
                assert np.array_equal(fused[g][name], t.grad), (g, name)

    def test_loss_graph_size_does_not_grow_with_groups(self):
        """The train-mode loss graph has one node per attention tier and per
        other stage, so it is the same 7 nodes for 2, 8 and 16 groups of 6
        features."""
        for n_groups in (2, 8, 16):
            p = 6 * n_groups
            cfg = ModelConfig(groups=[[6 * g, 6 * g + 6] for g in range(n_groups)], seed=0)
            x = Rng(1).normal((8, p))
            y_hat, trace = ScalarModel(cfg, p).forward(x, "train", Rng(2))
            loss, _ = composite_loss(np.zeros(8), y_hat, trace.latent, 0, cfg.max_epochs,
                                     cfg.loss)
            ops, seen, stack = Counter(), {id(loss)}, [loss]
            while stack:
                node = stack.pop()
                ops[node.op] += node.op != "leaf"
                for parent in node._prev:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            assert +ops == {"kernel_attention": 2, "calibration": 1, "encode": 1,
                            "decode": 1, "head": 1, "loss": 1}, (n_groups, ops)
