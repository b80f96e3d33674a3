import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalarnet.errors import NumericError, ShapeError
from scalarnet.tensor import EPS, Rng, Tensor, affine, concat, kernel_attend, mlp2

W_A = np.linspace(-1, 1, 8).reshape(4, 2)
W_B = np.linspace(0.5, -0.5, 6).reshape(2, 3)


def normalize_rows(t):
    """L2 row normalization through kernel_attend: one kernel, unit weight
    and unit input."""
    rows = t.data.shape[0]
    out, _ = kernel_attend(Tensor(np.ones(t.data.shape)), t, Tensor(np.ones((rows, 1))))
    return out


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


def check_op(build, x0, rtol=1e-6):
    """Compare autodiff gradient of sum(op(x)) against finite differences."""
    t = Tensor(x0.copy())
    out = build(t).sum()
    out.backward()
    num = numeric_grad(lambda a: float(build(Tensor(a)).sum().data), x0.copy())
    denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-3)
    assert (np.abs(t.grad - num) / denom).max() < rtol


class TestForwardExamples:
    def test_softmax_uniform(self):
        out = Tensor([[0.0, 0.0, 0.0]]).softmax()
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_l2_normalize_345(self):
        out = normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_matmul_identity(self):
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = Tensor(np.eye(2)) @ Tensor(b)
        np.testing.assert_array_equal(out.data, b)


class TestGradients:
    @pytest.mark.parametrize(
        "name,build",
        [
            ("add", lambda t: t + Tensor(np.linspace(-1, 1, 12).reshape(3, 4))),
            ("sub", lambda t: Tensor(np.ones((3, 4))) - t),
            ("mul", lambda t: t * Tensor(np.linspace(0.5, 2, 12).reshape(3, 4))),
            ("div", lambda t: t / Tensor(np.linspace(1.0, 2, 12).reshape(3, 4))),
            ("scalar_mul", lambda t: t * 2.5),
            ("rowvec_add", lambda t: t + Tensor(np.array([1.0, -1.0, 0.5, 2.0]))),
            ("colvec_mul", lambda t: t * Tensor(np.array([[1.0], [2.0], [0.5]]))),
            ("matmul", lambda t: t @ Tensor(np.linspace(-1, 1, 8).reshape(4, 2))),
            ("exp", lambda t: t.exp()),
            ("tanh", lambda t: t.tanh()),
            ("sigmoid", lambda t: t.sigmoid()),
            ("softmax", lambda t: t.softmax()),
            ("l2_normalize", lambda t: normalize_rows(t)),
            ("abs", lambda t: t.abs()),
            ("clamp", lambda t: t.clamp(-0.5, 0.5)),
            ("mean", lambda t: t.mean()),
            ("cols", lambda t: t.cols(1, 3)),
            ("reshape", lambda t: t.reshape(4, 3)),
            ("concat", lambda t: concat([t, t * 2.0])),
            ("affine", lambda t: affine(t, Tensor(W_A), Tensor(np.array([0.3, -0.2])))),
            (
                "mlp2",
                lambda t: mlp2(t, Tensor(W_A), Tensor(np.array([0.1, -0.4])),
                               Tensor(W_B), Tensor(np.array([0.2, 0.0, -0.1]))),
            ),
            (
                "kernel_attend",  # k=2 kernels over p=4 features; d/dx
                lambda t: kernel_attend(
                    t,
                    Tensor(np.linspace(-2, 1.5, 24).reshape(3, 8)),
                    Tensor(np.array([[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]])),
                )[0],
            ),
            (
                "kernel_attend_w",  # k=4 kernels over p=2 features; d/dw
                lambda t: kernel_attend(
                    Tensor(np.array([[1.0, -0.5], [0.2, 2.0], [-1.5, 0.7]])),
                    Tensor(np.linspace(-2, 1.5, 24).reshape(3, 8)),
                    t,
                )[0],
            ),
        ],
    )
    def test_op_matches_finite_differences(self, name, build):
        rng = np.random.default_rng(hash(name) % 2**32)
        x0 = rng.normal(size=(3, 4)) + 0.1  # keep away from |x|=0 and clamp edges
        check_op(build, x0)

    def test_square_at_3(self):
        x = Tensor(np.array([[3.0]]))
        (x * x).sum().backward()
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_softmax_jacobian_diagonal_at_uniform(self):
        # d softmax_i / d x_i at uniform input is (1/m)(1 - 1/m)
        m = 4
        for i in range(m):
            x = Tensor(np.zeros((1, m)))
            x.softmax().cols(i, i + 1).sum().backward()
            assert x.grad[0, i] == pytest.approx((1 / m) * (1 - 1 / m), abs=1e-12)

    def test_backward_deterministic(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)))
        loss = ((x @ w).tanh() * (x @ w)).mean()
        loss.backward()
        g1 = x.grad.copy(), w.grad.copy()
        loss.backward()
        assert np.array_equal(g1[0], x.grad) and np.array_equal(g1[1], w.grad)


class TestInvariantsProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_softmax_simplex(self, row):
        out = Tensor(np.array([row])).softmax().data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_l2_normalize_unit(self, row):
        arr = np.array([row])
        if np.linalg.norm(arr) > 1e-12:
            out = normalize_rows(Tensor(arr)).data
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_l2_normalize_zero_row_passes_guard(self):
        out = normalize_rows(Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_tiny_kernel_gradient_passes_through_scaled(self):
        # below the EPS norm the normalization divides by EPS, so the
        # gradient is the upstream gradient over EPS, with no projection
        raw = Tensor(np.array([[3e-13, 4e-13, 0.0]]))
        normalize_rows(raw).sum().backward()
        np.testing.assert_array_equal(raw.grad, np.full((1, 3), 1.0 / EPS))


class TestErrors:
    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_nonfinite_names_op(self):
        with pytest.raises(NumericError, match="exp"):
            Tensor(np.array([[1000.0]])).exp()

    def test_guard_passes_finite_elements_with_overflowing_sum(self):
        out = Tensor([[1e308, 1e308]]) * 1.0
        np.testing.assert_array_equal(out.data, [[1e308, 1e308]])

    def test_guard_names_op_of_nan_element(self):
        with pytest.raises(NumericError, match="'mul'"):
            Tensor([[1.0, np.nan, 2.0]]) * 1.0

    def test_fused_ops_reject_nonconforming_shapes(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="affine"):
            affine(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="mlp2"):
            mlp2(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)),
                 Tensor(np.zeros((5, 1))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeError, match="kernel_attend"):
            kernel_attend(x, Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 2))))

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
