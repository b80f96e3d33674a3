from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from scalarnet import tensor
from scalarnet.attention import (
    AttentionTrace,
    FeatureGroupSpec,
    KernelAttentionParams,
    kernel_attention,
)
from scalarnet.errors import ConfigError
from scalarnet.layers import Affine, Mlp2, hidden_width, named_tensors, stacked
from scalarnet.losses import composite_loss
from scalarnet.model import ModelConfig, ScalarModel, bind
from scalarnet.tensor import Rng, Tensor, no_grad


def loop_oracle(x, params):
    """Straight-line scalar reimplementation of the attention equations on
    the one-group record `params`: kernels, normalization, softmax weights,
    weighted kernel-modulated sum, projection + residual. Pure Python loops
    over every index."""
    import math

    b, p = x.shape
    k = params.phi_w.l2.b.data.shape[-1]

    def affine(v, layer):
        w, bias = layer.w.data[0], layer.b.data[0]
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


def laid_out(records):
    """`records`, laid out in fresh buffers as a model lays out its own."""
    bind(records)
    return records


def tier(rng, width, k):
    """A one-group kernel attention record over columns [0, width), laid out."""
    return laid_out(KernelAttentionParams.init(rng, [(0, width)], k))[0]


def rows(value, index):
    """`value` (a record, a Tensor or `cols`) with only rows `index` of each
    stack, as fresh arrays."""
    if isinstance(value, Tensor):
        return Tensor(value.data[index].copy())
    if is_dataclass(value):
        return type(value)(*(rows(getattr(value, f.name), index) for f in fields(value)))
    return value[index]


def taken_out(prm, j):
    """Group j of the stacked record `prm`: its rows taken out as a one-group
    record over columns [0, its width), laid out in fresh buffers."""
    s, e = prm.cols[j]
    return laid_out([replace(rows(prm, slice(j, j + 1)), cols=((0, e - s),))])[0]


def by_column(records):
    """(record, row) of each group of `records`, in column order."""
    at = {s: (prm, j) for prm in records for j, (s, _) in enumerate(prm.cols)}
    return [at[s] for s in sorted(at)]


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
        params = tier(Rng(0), 5, 3)
        x = np.random.default_rng(1).normal(size=(4, 5))
        z, _ = kernel_attention(Tensor(x), [params])
        assert np.array_equal(z.data, x)

    def test_single_kernel_weight_is_one(self):
        params = tier(Rng(2), 4, 1)
        x = np.random.default_rng(3).normal(size=(6, 4))
        _, (trace,) = kernel_attention(Tensor(x), [params])
        np.testing.assert_array_equal(trace.w, np.ones((6, 1)))

    def test_matches_loop_oracle(self):
        params = tier(Rng(4), 4, 2)
        # make the projection nontrivial
        params.phi_p.w.data[...] = np.random.default_rng(5).normal(size=(4, 4)) * 0.3
        params.phi_p.b.data[...] = np.random.default_rng(6).normal(size=4) * 0.1
        x = np.random.default_rng(7).normal(size=(3, 4))
        z, _ = kernel_attention(Tensor(x), [params])
        np.testing.assert_allclose(z.data, loop_oracle(x, params), atol=1e-10)

    def test_kernel_unit_norms_and_weight_simplex(self):
        params = tier(Rng(8), 7, 4)
        x = np.random.default_rng(9).normal(size=(20, 7))
        _, (trace,) = kernel_attention(Tensor(x), [params])
        norms = np.linalg.norm(trace.k_hat, axis=2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)
        np.testing.assert_allclose(trace.w.sum(axis=1), 1.0, atol=1e-12)
        assert (trace.w >= 0).all()

    def test_gradients_reach_all_parameters(self):
        params = tier(Rng(10), 4, 2)
        # zero-initialized phi_p blocks the phi_k/phi_w path by construction;
        # the flow invariant is about a generic projection
        params.phi_p.w.data[...] = np.random.default_rng(12).normal(size=(4, 4))
        x = np.random.default_rng(11).normal(size=(5, 4))
        z, _ = kernel_attention(Tensor(x), [params])
        data = np.random.default_rng(13)
        weighted_sum(z, data.normal(size=5), data.normal(size=4)).backward()
        for name, t in named_tensors(params, "a").items():
            assert np.abs(t.grad).max() > 0, f"no gradient reached {name}"


class TestGroupedAttention:
    def test_one_trace_per_group_in_column_order_without_z(self):
        # widths 2, 3, 2: the width-2 record runs first, yet traces follow columns
        spec = FeatureGroupSpec([(0, 2), (2, 5), (5, 7)])
        records = laid_out(KernelAttentionParams.init(Rng(0), spec.groups, 3))
        x = np.random.default_rng(1).normal(size=(4, 7))
        _, traces = kernel_attention(Tensor(x), records)
        assert [t.k_hat.shape for t in traces] == [(4, 3, e - s) for s, e in spec.groups]
        assert all(t.w.shape == (4, 3) for t in traces)
        assert [f.name for f in fields(AttentionTrace)] == ["k_hat", "w"]

    def test_identical_groups_identical_blocks(self):
        spec = FeatureGroupSpec([(0, 3), (3, 6)])
        (params,) = laid_out(KernelAttentionParams.init(Rng(5), spec.groups, 2))
        params.phi_p.w.data[0] = np.random.default_rng(6).normal(size=(3, 3))
        for t in named_tensors(params, "a").values():  # group 1, group 0's twin
            t.data[1] = t.data[0]
        half = np.random.default_rng(7).normal(size=(4, 3))
        x = np.concatenate([half, half], axis=1)
        z, _ = kernel_attention(Tensor(x), [params])
        assert np.array_equal(z.data[:, :3], z.data[:, 3:])

    def test_processing_order_irrelevant(self):
        # concatenation is by spec position; running groups in any order and
        # reassembling gives bit-identical output
        spec = FeatureGroupSpec([(0, 2), (2, 6)])
        records = laid_out(KernelAttentionParams.init(Rng(12), spec.groups, 2))
        for prm in records:
            prm.phi_p.w.data[0] = np.random.default_rng(13).normal(size=prm.phi_p.w.data.shape[1:])
        x = np.random.default_rng(14).normal(size=(5, 6))
        z, _ = kernel_attention(Tensor(x), records)
        blocks = {}
        for g in (1, 0):  # reversed processing order
            s, e = spec.groups[g]
            alone = taken_out(*by_column(records)[g])
            blocks[g] = kernel_attention(Tensor(x[:, s:e]), [alone])[0].data
        reassembled = np.concatenate([blocks[0], blocks[1]], axis=1)
        assert np.array_equal(z.data, reassembled)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_init_draws_group_by_group_in_column_order(self, seed):
        """A checkpoint's bytes rest on the draw order: each group's phi_k,
        phi_w and (zero, no draw) phi_p, one group after another in column
        order, from the model's one Rng; widths are stacked only after."""
        widths, k = (1, 6, 6, 3, 1), 2
        bounds = np.cumsum((0,) + widths)
        groups = [[int(s), int(e)] for s, e in zip(bounds[:-1], bounds[1:])]
        model = ScalarModel(ModelConfig(groups=groups, k=k, seed=seed), int(bounds[-1]))
        named = model.named_parameters()
        rng, expected = Rng(seed), {}
        for g, w in enumerate(widths):
            h = hidden_width(w)
            for field, layer in (("phi_k", Mlp2.init(rng, w, h, k * w)),
                                 ("phi_w", Mlp2.init(rng, w, h, k)),
                                 ("phi_p", Affine.init(rng, w, w, zero=True))):
                expected.update(named_tensors(layer, f"group{g}.{field}"))
        assert list(expected) == [n for n in named if n.startswith("group")]
        for name, t in expected.items():
            assert np.array_equal(named[name].data, t.data), name

    def test_spec_not_covering_data(self):
        model = ScalarModel(ModelConfig(groups=[[0, 2], [2, 4]], k=2), 4)
        with pytest.raises(ConfigError, match=r"\(batch, 4\)"):
            model.forward(np.zeros((2, 5)), "eval")


class TestStackedLayers:
    """`Affine` and `Mlp2` on a (G, b, in) stack with (G, ...) parameters, as
    every attention tier runs them, give each stack member exactly what its
    own 2-D call gives: outputs, parameter-gradient rows and input gradient."""

    @pytest.mark.parametrize("make", [
        lambda rng: Affine.init(rng, 4, 3),
        lambda rng: Mlp2.init(rng, 4, 8, 3)], ids=["Affine", "Mlp2"])
    def test_stack_equals_each_member_alone(self, make):
        rng, data = Rng(3), np.random.default_rng(4)
        layers = [make(rng) for _ in range(5)]
        stack = stacked(layers)  # the layers as one layer of (G, ...) tensors
        for layer in (*layers, stack):
            for t in named_tensors(layer, "").values():
                t.grad = np.zeros_like(t.data)
        xs, gs = data.normal(size=(5, 7, 4)), data.normal(size=(5, 7, 3))
        if isinstance(stack, Mlp2):
            h, out = stack(xs, "test")
            gx = stack.backward(xs, h, gs)
        else:
            out, gx = stack(xs, "test"), stack.backward(xs, gs)
        stacked_tensors = named_tensors(stack, "")
        for g, layer in enumerate(layers):
            if isinstance(layer, Mlp2):
                h_g, out_g = layer(xs[g], "test")
                gx_g = layer.backward(xs[g], h_g, gs[g])
                assert np.array_equal(h[g], h_g)
            else:
                out_g, gx_g = layer(xs[g], "test"), layer.backward(xs[g], gs[g])
            assert np.array_equal(out[g], out_g), g
            assert np.array_equal(gx[g], gx_g), g
            for name, t in named_tensors(layer, "").items():
                assert t.grad.any() and np.array_equal(stacked_tensors[name].grad[g], t.grad), (g, name)


def weighted_sum(z, u, w):
    """uᵀ z w as one scalar test node on tensor._node; z's gradient is exactly
    the outer product u wᵀ, each element one rounded product."""

    def backward(g):
        z.grad += g * np.outer(u, w)

    return tensor._node("weighted_sum", u @ z.data @ w, (z,), backward)


def random_group_params(groups, k, seed):
    """The laid-out records of `groups`, each group's projection nonzero, so
    every parameter gets a gradient."""
    rng = Rng(seed)
    records = laid_out(KernelAttentionParams.init(rng, groups, k))
    for prm, j in by_column(records):
        prm.phi_p.w.data[j] = rng.normal(prm.phi_p.w.data.shape[1:]) * 0.5
    return records


class TestFusedGroups:
    """All groups run in one kernel_attention node, stacked by width; each
    group's output and gradients are those of running it alone."""

    @pytest.mark.parametrize("widths,rows", [
        ((6,) * 2, 5), ((6,) * 8, 9), ((6,) * 16, 3), ((1, 6, 6, 3, 1), 1),
        ((1, 6, 6, 3, 1), 128)])
    def test_stacked_groups_equal_each_group_alone(self, widths, rows):
        bounds = np.cumsum((0,) + widths)
        spec = FeatureGroupSpec(list(zip(bounds[:-1], bounds[1:])))
        records = random_group_params(spec.groups, 3, seed=len(widths))
        data = np.random.default_rng(rows)
        x, c = data.normal(size=(2, rows, bounds[-1]))
        u, w = c[:, 0], c[0]  # the upstream gradient is u wᵀ
        with no_grad():
            xt = Tensor(x)
        z, traces = kernel_attention(xt, records)
        weighted_sum(z, u, w).backward()
        fused = [{n: t.grad[j].copy() for n, t in named_tensors(prm, "a").items()}
                 for prm, j in by_column(records)]
        for g, (s, e) in enumerate(spec.groups):
            with no_grad():
                xg = Tensor(x[:, s:e])
            prm = taken_out(*by_column(records)[g])
            z_alone, (alone,) = kernel_attention(xg, [prm])
            assert np.array_equal(z.data[:, s:e], z_alone.data)
            assert np.array_equal(traces[g].k_hat, alone.k_hat)
            assert np.array_equal(traces[g].w, alone.w)
            weighted_sum(z_alone, u, w[s:e]).backward()
            for name, t in named_tensors(prm, "a").items():
                assert np.array_equal(fused[g][name], t.grad[0]), (g, name)

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
