import ast
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalarnet
from scalarnet import tensor
from scalarnet.attention import EPS, KernelAttentionParams, kernel_attention, stack_groups
from scalarnet.calibration import (
    CalibrationParams,
    VariationalParams,
    decode,
    encode,
    self_calibrate,
)
from scalarnet.errors import NumericError, ShapeError
from scalarnet.head import HeadParams, head_forward
from scalarnet.layers import Affine, Mlp2
from scalarnet.losses import loss
from scalarnet.model import bind
from scalarnet.tensor import Rng, Tensor, no_grad


def attention_set(w, k, h=3, seed=0):
    """Ten kernel_attention parameter arrays, phi_p nonzero, for a group of
    width w with k kernels and hidden width h."""
    r = np.random.default_rng(seed)
    shapes = [(w, h), (h,), (h, k * w), (k * w,), (w, h), (h,), (h, k), (k,), (w, w), (w,)]
    return [r.normal(size=shape) * 0.5 for shape in shapes]


def unit_row_attention(m, k, phi_k2, phi_k2_bias, phi_w_bias):
    """kernel_attention on one unit input row (1, m) with constant hidden
    layers and an identity projection, so its output is Σ_j w_j·k̂_j + 1: the
    k kernels (one hidden unit, tanh(20) = 1) are the rows of phi_k2 plus
    phi_k2_bias, and the kernel weights are softmax(phi_w_bias). Returns (the
    (1, m) node, k̂ (k, m), w (k,))."""
    wrap = [x if isinstance(x, Tensor) else Tensor(x) for x in (phi_k2, phi_k2_bias, phi_w_bias)]
    params = [Tensor(np.zeros((m, 1))), Tensor(np.array([20.0])), wrap[0], wrap[1],
              Tensor(np.zeros((m, 1))), Tensor(np.zeros(1)), Tensor(np.zeros((1, k))), wrap[2],
              Tensor(np.eye(m)), Tensor(np.zeros(m))]
    out, (k_hat,), (w,) = attend(Tensor(np.ones((1, m))), [(0, m)], [attention_params(params)])
    return out, k_hat[0], w[0]


def attend(x, groups, params):
    """kernel_attention on x's column intervals `groups`, `params[i]` group
    i's record, the groups stacked by width (see `stack_groups`)."""
    buckets = stack_groups(groups, params)
    bind(buckets)
    return kernel_attention(x, buckets)


def normalize_rows(t):
    """L2 normalization of the one-row t (1, c) as kernel_attention's single
    kernel with a unit weight. Returns (the (1, c) node k̂ + 1, k̂ (1, c))."""
    c = t.data.shape[1]
    out, k_hat, _ = unit_row_attention(c, 1, t, np.zeros(c), np.zeros(1))
    return out, k_hat


def softmax_row(t):
    """The kernel weights softmax(t) of a (m,) t, through kernel_attention with
    the unit kernels e_j. Returns (the (1, m) node softmax(t) + 1, the weights)."""
    m = t.data.shape[0]
    out, _, w = unit_row_attention(m, m, np.zeros((1, m * m)), np.eye(m).ravel(), t)
    return out, w


# test scaffolds: nodes built on tensor._node with an exact backward; they are
# not package ops


def pick(t, start, stop):
    """Columns [start, stop) of a 2-D t as one node."""

    def backward(g):
        t.grad[:, start:stop] += g

    return tensor._node("pick", t.data[:, start:stop], (t,), backward)


def total(t):
    """Sum of every element of t as one scalar node."""

    def backward(g):
        t.grad += g

    return tensor._node("total", t.data.sum(), (t,), backward)


def weighted(t, c):
    """Σ c ⊙ t for a constant array c of t's shape, as one scalar node."""

    def backward(g):
        t.grad += g * c

    return tensor._node("weighted", (c * t.data).sum(), (t,), backward)


def numeric_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar-valued fn at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        dn = fn(x)
        flat[i] = orig
        gflat[i] = (up - dn) / (2 * h)
    return g


def check_op(build, x0, rtol=1e-6, h=1e-6):
    """Compare autodiff gradient of sum(op(x)) against finite differences."""
    t = Tensor(x0.copy())
    total(build(t)).backward()
    num = numeric_grad(lambda a: float(build(Tensor(a)).data.sum()), x0.copy(), h)
    denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-3)
    assert (np.abs(t.grad - num) / denom).max() < rtol


def layers(*widths, seed):
    """Arrays (w, b) of each affine layer between consecutive `widths`: an
    affine for two widths, a two-layer net's (w1, b1, w2, b2) for three."""
    r = np.random.default_rng(seed)
    return [r.normal(size=shape) * 0.5 for fan_in, fan_out in zip(widths, widths[1:])
            for shape in ((fan_in, fan_out), (fan_out,))]


# fixed operands of the stage-op cases: b = 3 rows, p = 4 features, d = 2
Z = np.linspace(-1.5, 1.2, 12).reshape(3, 4)
T = np.linspace(0.8, -0.9, 12).reshape(3, 4)
MASK = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
NOISE = np.linspace(-1.2, 1.4, 6).reshape(3, 2)
LATENT = np.stack([Z[:, :2], T[:, 1:3]])  # mu and log sigma
PHI_C, PHI_T = layers(4, 3, 2, seed=1), layers(4, 3, 4, seed=2)
PHI_E, PHI_MU, PHI_SIGMA = layers(4, 3, seed=3), layers(3, 2, seed=4), layers(3, 2, seed=5)
PHI_D = layers(2, 3, 4, seed=6)
TIER_W = [np.linspace(-1, 1, 4 * c).reshape(4, c) for c in (3, 2, 1)]
PHI_ALPHA, PHI_Y = layers(4, 3, 3, seed=7), layers(6, 3, 1, seed=8)
Y3 = np.array([0.4, -1.3, 2.1])  # with Y_HAT, residuals on both sides of delta = 0.5
Y_HAT = np.array([0.2, -0.2, 0.9])
MIXED = [(0, 5), (5, 9), (9, 12), (12, 13)]  # groups of widths 5, 4, 3, 1


class FixedDraws:
    """Stands in for an Rng: every Bernoulli draw is MASK, every normal draw
    NOISE."""

    def bernoulli(self, q, shape):
        return MASK

    def normal(self, shape):
        return NOISE


def wrap(arrays):
    return [a if isinstance(a, Tensor) else Tensor(a) for a in arrays]


def aff(arrays):
    """An Affine of (w, b), arrays or Tensors."""
    return Affine(*wrap(arrays))


def mlp(arrays):
    """An Mlp2 of (w1, b1, w2, b2), arrays or Tensors."""
    return Mlp2(aff(arrays[:2]), aff(arrays[2:]))


# the parameter record each stage op takes, of arrays or Tensors, laid out alone
# (kernel_attention's by `attend`)


def laid_out(record):
    """`record`, laid out alone in fresh buffers as a model lays out its own."""
    bind([record])
    return record


def attention_params(arrays):
    """kernel_attention's ten parameters: phi_k's four, phi_w's four, phi_p's two."""
    ts = wrap(arrays)
    return KernelAttentionParams(p_in=ts[0].data.shape[0], k=ts[6].data.shape[1],
                                 phi_k=mlp(ts[:4]), phi_w=mlp(ts[4:8]), phi_p=aff(ts[8:]))


def calibration_params(c, t):
    """phi_c's and phi_t's (w1, b1, w2, b2)."""
    return laid_out(CalibrationParams(phi_t=mlp(t), phi_c=mlp(c)))


def variational_params(d=PHI_D, e=PHI_E, mu=PHI_MU, sigma=PHI_SIGMA):
    """phi_d's (w1, b1, w2, b2) and phi_e's, phi_mu's and phi_sigma's (w, b)."""
    return laid_out(VariationalParams(phi_e=aff(e), phi_mu=aff(mu), phi_sigma=aff(sigma),
                                      phi_d=mlp(d)))


def head_params(w1, w2, w3, alpha, y):
    """The three tier weights and phi_alpha's and phi_y's (w1, b1, w2, b2)."""
    ws = wrap([w1, w2, w3])
    return laid_out(HeadParams(tuple(w.data.shape[1] for w in ws), *ws, mlp(alpha), mlp(y)))


def cal(z=Z, t2=PHI_T[2], train=True):
    """calibration with z or phi_t's output weights varied; train mode
    freezes the mask."""
    z, *ps = wrap([z, *PHI_C, *PHI_T[:2], t2, PHI_T[3]])
    return self_calibrate(z, calibration_params(ps[:4], ps[4:]),
                          FixedDraws() if train else None)[0]


def kl(latent, kl_scale=1.0):
    """kl_scale times the KL term of `latent` alone, as a `loss` node."""
    b = latent.data.shape[1]
    return loss(Tensor(np.zeros(b)), np.zeros(b), latent, 1.0, 1.0, kl_scale)[0]


def enc(s=Z, sigma=PHI_SIGMA):
    s, *ps = wrap([s, *PHI_E, *PHI_MU, *sigma])
    return encode(s, variational_params(e=ps[:2], mu=ps[2:4], sigma=ps[4:]))


def dec(latent=LATENT, s=Z, d2=PHI_D[2], train=True):
    """decode with one operand varied; train mode freezes the noise."""
    latent, s, *ps = wrap([latent, s, *PHI_D[:2], d2, PHI_D[3]])
    return decode(latent, s, variational_params(ps), FixedDraws() if train else None)


def hd(g=Z, w1=TIER_W[0]):
    """head with g or w1 varied (w1's rows set p; the other operands keep
    their first p rows)."""
    p, c1 = (np.shape(x.data if isinstance(x, Tensor) else x)[1] for x in (g, w1))
    g, w1, *ps = wrap([g, w1, TIER_W[1][:p], TIER_W[2][:p], PHI_ALPHA[0][:p],
                       *PHI_ALPHA[1:], *layers(c1 + 3, 3, 1, seed=8)])
    return head_forward(g, head_params(w1, *ps[:2], ps[2:6], ps[6:]))[0]


def regress(y_hat, omega=1.0, delta=1.0):
    """The MSE/Huber part of `loss` of a (3,) y_hat against Y3."""
    return loss(y_hat, Y3, None, omega, delta, 0.0)[0]


# each stage op with all its operands, in order, as (build, arrays); the
# `encode` node is reduced to its KL term
STAGE_OPERANDS = {
    "calibration_train": (lambda z, *ps: self_calibrate(
        z, calibration_params(ps[:4], ps[4:]), FixedDraws())[0], [Z, *PHI_C, *PHI_T]),
    "calibration_eval": (lambda z, *ps: self_calibrate(
        z, calibration_params(ps[:4], ps[4:]), None)[0], [Z, *PHI_C, *PHI_T]),
    "encode": (lambda s, *ps: kl(encode(s, variational_params(
        e=ps[:2], mu=ps[2:4], sigma=ps[4:]))), [Z, *PHI_E, *PHI_MU, *PHI_SIGMA]),
    "decode_train": (lambda lat, s, *ps: decode(lat, s, variational_params(ps), FixedDraws()),
                     [LATENT, Z, *PHI_D]),
    "decode_eval": (lambda lat, s, *ps: decode(lat, s, variational_params(ps), None),
                    [LATENT, Z, *PHI_D]),
    "head": (lambda g, *ps: head_forward(g, head_params(*ps[:3], ps[3:7], ps[7:]))[0],
             [Z, *TIER_W, *PHI_ALPHA, *PHI_Y]),
    "loss": (lambda y_hat, lat: loss(y_hat, Y3, lat, 0.7, 0.5, 0.3)[0], [Y_HAT, LATENT]),
}
STAGE_OPS = sorted(STAGE_OPERANDS)


class TestForwardExamples:
    def test_softmax_uniform(self):
        out, w = softmax_row(Tensor(np.zeros(3)))
        np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(out.data, [[4 / 3, 4 / 3, 4 / 3]], atol=1e-15)

    def test_l2_normalize_345(self):
        _, k_hat = normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(k_hat, [[0.6, 0.8]], atol=1e-15)

    def test_matmul_identity(self):
        # g @ w_i inside head, with g = I and equal tier weights: phi_y's
        # input is the three projections side by side, a third each
        w = [np.arange(6.0).reshape(3, 2), np.ones((3, 1)), -np.eye(3)]
        alpha_net = [np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)), np.zeros(3)]
        phi_y = [np.eye(6), np.zeros(6), np.ones((6, 1)), np.zeros(1)]  # sum of tanh
        y, alpha = head_forward(Tensor(np.eye(3)), head_params(*w, alpha_net, phi_y))
        np.testing.assert_array_equal(alpha, np.full((3, 3), 1 / 3))
        np.testing.assert_allclose(y.data, np.tanh(np.hstack(w) / 3).sum(axis=1), rtol=1e-14)


class TestGradients:
    @pytest.mark.parametrize(
        "name,build",
        [
            # the deleted generic and fused ops keep their cases, each
            # re-pointed at the stage op that now holds that arithmetic
            ("add", lambda t: dec(s=t, train=False)),  # the decoder's residual
            ("mul", lambda t: cal(t2=t, train=False)),  # γ·phi_t(z)
            ("scalar_mul", lambda t: kl(enc(s=t), kl_scale=2.5)),
            ("sub", lambda t: loss(hd(g=t), Y3, enc(s=t), 0.7, 0.5, 0.3)[0]),
            ("div", lambda t: cal(z=t)),  # the 1/(1 - δ)
            ("rowvec_add", lambda t: dec(d2=t)),  # phi_d's bias row after h @ w2
            ("colvec_mul", lambda t: hd(g=t)),  # α's columns times the tiers
            ("matmul", lambda t: dec(d2=t, train=False)),
            ("exp", lambda t: dec(latent=enc(s=t), s=t)),  # σ = exp(log σ)
            ("tanh", lambda t: kl(enc(s=t))),
            ("sigmoid", lambda t: cal(z=t, train=False)),
            ("softmax", lambda t: hd(g=t)),
            ("l2_normalize", lambda t: attend(  # the kernels of one decoded row
                dec(latent=LATENT[:, :1], s=Z[:1], d2=t, train=False), [(0, 4)],
                [attention_params(attention_set(4, 2))])[0]),
            ("abs", lambda t: regress(hd(g=t), 0.0, 0.5)),
            # log σ straddles the clamp at -10, where the KL stays moderate
            ("clamp", lambda t: kl(enc(s=t, sigma=[PHI_SIGMA[0] * 4.0, PHI_SIGMA[1] - 10.0]))),
            ("mean", lambda t: regress(hd(g=t))),  # mean(r²)
            ("reshape", lambda t: hd(g=t)),  # phi_y's (b, 1) output as (b,)
            ("affine", lambda t: enc(s=t)),  # phi_e, phi_mu and phi_sigma
            ("mlp2", lambda t: cal(z=t, train=False)),  # phi_c and phi_t
            (
                "kernel_attention_dx",  # one group, k=2 kernels over p=4 features
                lambda t: attend(t, [(0, 4)], [attention_params(attention_set(4, 2))])[0],
            ),
            (
                "kernel_attention_mixed_widths",  # widths 5, 4, 3, 1 with k=1; d/dx
                lambda t: attend(
                    decode(Tensor(np.stack([Z[:, :3], T[:, 1:]])), Tensor(np.zeros((3, 13))),
                           variational_params([t, np.zeros(4), np.linspace(-1, 1, 52).reshape(
                               4, 13), np.zeros(13)]), None),  # phi_d: d = 3 -> 4 -> 13
                    MIXED, [attention_params(attention_set(e - s, 1, seed=s))
                            for s, e in MIXED])[0],
            ),
            (
                "kernel_attention_dphi_k",  # two stacked 3-wide groups; t is group 0's w1
                lambda t: attend(
                    Tensor(np.linspace(-1.5, 1.4, 18).reshape(3, 6)), [(0, 3), (3, 6)],
                    [attention_params([t, *attention_set(3, 2, h=4)[1:]]),
                     attention_params(attention_set(3, 2, h=4, seed=1))])[0],
            ),
            ("calibrate_train_dz", lambda t: cal(z=t)),
            ("calibrate_train_dt", lambda t: cal(t2=t)),  # phi_t's output weights
            ("calibrate_eval_dz", lambda t: cal(z=t, train=False)),
            ("calibrate_eval_dt", lambda t: cal(t2=t, train=False)),
            ("reparameterize_dmu", lambda t: dec(s=t)),
            ("tiered_projection_dw", lambda t: hd(g=Z[:, :3], w1=t)),  # p = 3 rows
            ("regression_loss", lambda t: regress(hd(g=t), 0.7, 0.5)),
            ("kl_term_dlog_sigma", lambda t: kl(enc(s=t), kl_scale=0.3)),
        ],
    )
    def test_op_matches_finite_differences(self, name, build):
        # crc32, not hash(): str hashes are salted per process
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x0 = rng.normal(size=(3, 4)) + 0.1  # keep away from |x|=0 and clamp edges
        check_op(build, x0)

    @pytest.mark.parametrize("name,i", [(name, i) for name in STAGE_OPS
                                        for i in range(len(STAGE_OPERANDS[name][1]))])
    def test_stage_op_matches_finite_differences_in_every_operand(self, name, i):
        # h = 1e-5, near the roundoff-optimal step of a central difference:
        # at 1e-6 the sum of calibration's outputs (~6.6) leaves ~1e-9 of
        # roundoff on gradients near the 1e-3 floor
        build, arrays = STAGE_OPERANDS[name]
        check_op(lambda t: build(*[t if j == i else Tensor(a) for j, a in enumerate(arrays)]),
                 arrays[i].copy(), h=1e-5)

    def test_square_at_3(self):
        x = Tensor(np.array([3.0]))
        loss(x, np.zeros(1), None, 1.0, 1.0, 0.0)[0].backward()  # x²
        assert x.grad[0] == pytest.approx(6.0)

    def test_softmax_jacobian_diagonal_at_uniform(self):
        # d softmax_i / d x_i at uniform input is (1/m)(1 - 1/m)
        m = 4
        for i in range(m):
            x = Tensor(np.zeros(m))
            pick(softmax_row(x)[0], i, i + 1).backward()
            assert x.grad[i] == pytest.approx((1 / m) * (1 - 1 / m), abs=1e-12)

    def test_backward_deterministic(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=Z.shape))
        w = Tensor(rng.normal(size=PHI_T[0].shape))
        loss_ = total(self_calibrate(x, calibration_params(PHI_C, [w, *PHI_T[1:]]), None)[0])
        loss_.backward()
        g1 = x.grad.copy(), w.grad.copy()
        loss_.backward()
        assert np.array_equal(g1[0], x.grad) and np.array_equal(g1[1], w.grad)


class TestInvariantsProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_softmax_simplex(self, row):
        _, out = softmax_row(Tensor(np.array(row)))
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_l2_normalize_unit(self, row):
        arr = np.array([row])
        if np.linalg.norm(arr) > 1e-12:
            _, k_hat = normalize_rows(Tensor(arr))
            assert abs(np.linalg.norm(k_hat) - 1.0) < 1e-10

    def test_l2_normalize_zero_row_passes_guard(self):
        out, k_hat = normalize_rows(Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(k_hat, np.zeros((1, 3)))
        np.testing.assert_array_equal(out.data, np.ones((1, 3)))

    def test_tiny_kernel_gradient_passes_through_scaled(self):
        # below the EPS norm the normalization divides by EPS, so the
        # gradient is the upstream gradient over EPS, with no projection
        raw = Tensor(np.array([[3e-13, 4e-13, 0.0]]))
        total(normalize_rows(raw)[0]).backward()
        np.testing.assert_array_equal(raw.grad, np.full((1, 3), 1.0 / EPS))

    def test_both_normalization_branches_in_one_stacked_call(self):
        """Three stacked 3-wide groups, k = 2, five rows. In group 1, row 2's
        input (1, -1, 0) meets equal first rows of phi_k's w1 and a zero b1,
        so its hidden layer is exactly 0 and its kernels are phi_k's output
        bias: kernel 1 is [3e-13, 4e-13, 0], below EPS, and kernel 0 is not."""
        groups, r0, j0 = [(0, 3), (3, 6), (6, 9)], 2, 1
        sets = [attention_set(3, 2, h=4, seed=s) for s in range(3)]
        sets[1][0][1] = sets[1][0][0]
        sets[1][1][:] = 0.0
        sets[1][3][3 * j0 : 3 * j0 + 3] = [3e-13, 4e-13, 0.0]
        x0 = np.random.default_rng(5).normal(size=(5, 9))
        x0[r0, 3:6] = [1.0, -1.0, 0.0]
        arrays = [x0, *(a for ps in sets for a in ps)]

        def attend_all(ts):
            return attend(ts[0], groups, [attention_params(ts[1 + 10 * g : 11 + 10 * g])
                                          for g in range(3)])

        # upstream gradient on row r0's first group-1 column alone: every other
        # row's raw gradient is exactly 0, so phi_k's b2 gradient is row r0's
        ts = [Tensor(a) for a in arrays]
        z, k_hats, weights = attend_all(ts)
        c = np.zeros((5, 9))
        c[r0, 3] = 1.0
        weighted(z, c).backward()
        k_hat, w = k_hats[1][r0], weights[1][r0]
        np.testing.assert_allclose(k_hat[j0], [0.3, 0.4, 0.0], rtol=1e-12)  # raw / EPS
        u = sets[1][8][:, 0] * x0[r0, 3:6]  # (gz @ wpᵀ) ⊙ x with gz = (1, 0, 0)
        b2_grad = ts[14].grad.reshape(2, 3)
        np.testing.assert_array_equal(b2_grad[j0], w[j0] * u / EPS)
        j1 = 1 - j0  # row r0's other kernel, raw = its bias block, takes the projection
        raw1 = sets[1][3][3 * j1 : 3 * j1 + 3]
        np.testing.assert_allclose(
            b2_grad[j1], w[j1] * (u - k_hat[j1] * (k_hat[j1] @ u)) / np.linalg.norm(raw1),
            rtol=1e-12)

        # with row r0 out of the sum, x and every parameter pass central
        # differences; the sum does not read row r0, so a step that lifts its
        # kernel above EPS changes nothing
        c = np.random.default_rng(6).normal(size=(5, 9))
        c[r0] = 0.0
        ts = [Tensor(a) for a in arrays]
        weighted(attend_all(ts)[0], c).backward()
        for i, t in enumerate(ts):
            def fn(a, i=i):
                return float((c * attend_all([Tensor(a) if j == i else Tensor(b)
                                              for j, b in enumerate(arrays)])[0].data).sum())

            num = numeric_grad(fn, arrays[i].copy(), h=1e-5)
            denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-3)
            assert (np.abs(t.grad - num) / denom).max() < 1e-6, i


# each stage op fed a (3, 4) array holding an inf
NONFINITE_INPUT = {
    "kernel_attention": lambda a: attend(
        Tensor(a), [(0, 4)], [attention_params(attention_set(4, 2))]),
    "calibration": lambda a: cal(z=a, train=False),
    "encode": lambda a: enc(s=a),
    "decode": lambda a: dec(latent=np.stack([a[:, :2], LATENT[1]]), train=False),
    "head": lambda a: hd(g=a),
    "loss": lambda a: loss(Tensor(a[:, 0]), Y3, None, 1.0, 0.5, 0.0),
}


class TestErrors:
    def test_nonfinite_names_op(self):
        with pytest.raises(NumericError, match="decode"):  # exp(1000) in the draw
            dec(latent=np.stack([Z[:, :2], np.full((3, 2), 2000.0)]))

    @pytest.mark.parametrize("op", sorted(NONFINITE_INPUT))
    def test_nonfinite_input_raises_numeric_error_naming_the_op(self, op):
        # under Tier-1's error::RuntimeWarning, so numpy must not warn first
        # (inf times weights of both signs, or the guard's own sum)
        a = Z.copy()
        a[1, 0] = np.inf
        with pytest.raises(NumericError, match=f"'{op}'"):
            NONFINITE_INPUT[op](a)

    def test_float_scale_is_not_a_leaf(self):
        y_hat, latent = Tensor(Y_HAT), Tensor(LATENT)
        out = loss(y_hat, Y3, latent, 1.0, 1.0, 2.5)[0]
        assert out._prev == (y_hat, latent) and out.op == "loss"

    def test_guard_passes_finite_elements_with_overflowing_sum(self):
        with np.errstate(over="ignore"):  # the guard's own sum overflows
            out = aff([np.eye(2), np.zeros(2)])(np.array([[1e308, 1e308]]), "encode")
        np.testing.assert_array_equal(out, [[1e308, 1e308]])

    def test_guard_names_op_of_nan_element(self):
        with pytest.raises(NumericError, match="'head'"):  # a layer names its stage
            aff([np.eye(3), np.zeros(3)])(np.array([[1.0, np.nan, 2.0]]), "head")

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2))).backward()


class TestRng:
    def test_same_seed_identical(self):
        a, b = Rng(42), Rng(42)
        assert np.array_equal(a.uniform((10,)), b.uniform((10,)))
        assert np.array_equal(a.normal((10,)), b.normal((10,)))
        assert np.array_equal(a.bernoulli(0.3, (10,)), b.bernoulli(0.3, (10,)))

    def test_normal_mean_bound(self):
        draws = Rng(7).normal((100_000,))
        assert -0.02 < draws.mean() < 0.02

    def test_bernoulli_degenerate(self):
        assert (Rng(0).bernoulli(1.0, (1000,)) == 1.0).all()
        assert (Rng(0).bernoulli(0.0, (1000,)) == 0.0).all()


def package_trees():
    """Module name -> parsed source, for every module of the package."""
    src = Path(scalarnet.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


# the modules that hold the engine, the layers and the stage ops
OP_MODULES = ("tensor", "layers", "attention", "calibration", "head", "losses")


class TestVocabulary:
    def test_every_tensor_op_has_a_caller_in_the_package(self):
        """Each public function and method of the engine, the layers and the
        stage-op modules is named somewhere in the package (a call from its
        own module counts), so no op lives on with test-only callers."""
        trees = package_trees()
        defined = set()
        for name in OP_MODULES:
            for node in trees[name].body:
                body = node.body if isinstance(node, ast.ClassDef) else [node]
                defined |= {f.name for f in body if isinstance(f, ast.FunctionDef)}
        public = {name for name in defined if not name.startswith("_")}
        used = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
        assert len(public) >= 31
        assert sorted(public - used) == []

    def test_node_building_ops_are_the_stages(self):
        """Every op name given to `_node` in the package, by module: one per
        paper stage and the loss, six in all, each beside its parameters;
        tensor.py, the engine, builds no node."""
        ops = {}
        for module, tree in package_trees().items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and "_node" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    ops.setdefault(node.args[0].value, []).append(module)
        assert ops == {"kernel_attention": ["attention"], "calibration": ["calibration"],
                       "encode": ["calibration"], "decode": ["calibration"],
                       "head": ["head"], "loss": ["losses"]}

    @pytest.mark.parametrize("name", ["__sub__", "__rsub__", "__truediv__", "__matmul__",
                                      "sigmoid", "abs", "exp", "sum", "mean", "cols",
                                      "_binary", "_unary", "__add__", "__mul__", "reshape",
                                      "tanh", "clamp", "softmax"])
    def test_deleted_generic_ops_stay_deleted(self, name):
        assert not hasattr(Tensor, name)

    @pytest.mark.parametrize("name", ["concat", "kernel_attend", "calibrate", "reparameterize",
                                      "tiered_projection", "regression_loss", "kl_term",
                                      "affine", "mlp2", "_mlp2"])
    def test_deleted_module_ops_stay_deleted(self, name):
        assert not hasattr(tensor, name)


GRAPH_LINKS = {"_prev", "_backward", "op"}


def _link_writers(scope, tree, attrs):
    """Qualified names of the functions under `tree` that assign one of the
    attributes `attrs` of any object, nested closures included."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{scope}{node.name}"
            if isinstance(node, ast.FunctionDef):
                for sub in ast.walk(node):
                    targets = (sub.targets if isinstance(sub, ast.Assign) else
                               [sub.target] if isinstance(sub, (ast.AugAssign, ast.AnnAssign))
                               else [])
                    for target in targets:
                        for t in ast.walk(target):
                            if isinstance(t, ast.Attribute) and t.attr in attrs:
                                found.add(name)
            found |= _link_writers(f"{name}.", node, attrs)
    return found


class TestNodeConstructor:
    def test_only_node_builds_graph_links(self):
        """Every op makes its node through `_node`: no other function in the
        package assigns `_prev`, `_backward` or `op`, except the leaf
        defaults of `Tensor.__init__`, and only those two decide
        `requires_grad`."""
        for name, tree in package_trees().items():
            expected = {"_node", "Tensor.__init__"} if name == "tensor" else set()
            assert _link_writers("", tree, GRAPH_LINKS) == expected, name
            assert _link_writers("", tree, {"requires_grad"}) == expected, name

    def test_node_guards_and_links(self):
        t = Tensor(Z)
        with no_grad():
            params = variational_params()
        out = encode(t, params)
        assert out._prev == (t,) and out.op == "encode"
        with pytest.raises(NumericError, match="'encode'"):
            encode(t, variational_params(e=[PHI_E[0], np.array([np.inf, 0.0, 0.0])]))

    def test_node_of_constants_is_a_constant(self):
        with no_grad():
            a = Tensor(Z)
            tiers_alpha_y = wrap([*TIER_W, *PHI_ALPHA, *PHI_Y])
            constant_head = head_params(*tiers_alpha_y[:3], tiers_alpha_y[3:7],
                                        tiers_alpha_y[7:])
        assert not any(t.requires_grad for t in [a, *tiers_alpha_y, constant_head.leaf])
        params = variational_params()
        out = encode(a, params)
        assert out.requires_grad and out._prev == (params.leaf,)  # the record, not the constant
        c = head_forward(a, constant_head)[0]
        assert not c.requires_grad and c._prev == () and c._backward is None
        with pytest.raises(NumericError, match="constant"):
            loss(c, np.zeros(3), None, 1.0, 1.0, 0.0)[0].backward()

    def test_no_grad_records_nothing_and_restores_grad_mode(self):
        params = variational_params()
        d2 = Tensor(PHI_D[2])  # params.phi_d.l2.w's values, in a tensor of its own
        inf_latent = np.stack([LATENT[0], np.full((3, 2), np.inf)])
        with pytest.raises(NumericError, match="'decode'"):
            with no_grad():
                out = dec(d2=d2)
                decode(Tensor(inf_latent), Tensor(Z), params, FixedDraws())  # exp(inf)
        assert not out.requires_grad and out._prev == () and out._backward is None
        assert Tensor(Z).requires_grad  # grad mode is back on after the error
        assert decode(Tensor(LATENT), Tensor(Z), params, None)._prev
