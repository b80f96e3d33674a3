import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalarnet
from scalarnet import tensor
from scalarnet.errors import NumericError, ShapeError
from scalarnet.tensor import (
    EPS,
    Rng,
    Tensor,
    affine,
    calibrate,
    kernel_attention,
    kl_term,
    mlp2,
    no_grad,
    regression_loss,
    reparameterize,
    tiered_projection,
)

W_A = np.linspace(-1, 1, 8).reshape(4, 2)
W_B = np.linspace(0.5, -0.5, 6).reshape(2, 3)


def attention_set(w, k, h=3, seed=0):
    """Ten kernel_attention parameter arrays, phi_p nonzero, for a group of
    width w with k kernels and hidden width h."""
    r = np.random.default_rng(seed)
    shapes = [(w, h), (h,), (h, k * w), (k * w,), (w, h), (h,), (h, k), (k,), (w, w), (w,)]
    return [r.normal(size=shape) * 0.5 for shape in shapes]


def normalize_rows(t):
    """L2 normalization of the r rows of t (r, c) through kernel_attention:
    one unit input row whose r kernels are t's rows (phi_k's output is its
    bias), uniform kernel weights and an identity projection. Returns (the
    (1, c) node, mean_j k̂_j + 1; k̂ as an (r, c) array)."""
    r, c = t.data.shape
    phi_k = [np.zeros(shape) for shape in [(c, 1), (1,), (1, r * c)]]
    phi_w = [np.zeros(shape) for shape in [(c, 1), (1,), (1, r), (r,)]]
    params = [*map(Tensor, phi_k), t.reshape(-1),
              *map(Tensor, phi_w + [np.eye(c), np.zeros(c)])]
    out, (k_hat,), _ = kernel_attention(Tensor(np.ones((1, c))), [(0, c)], [params])
    return out, k_hat[0]


def pick(t, start, stop):
    """Columns [start, stop) of a 2-D t as one affine node (a 0/1 matrix)."""
    select = np.eye(t.data.shape[1])[:, start:stop]
    return affine(t, Tensor(select), Tensor(np.zeros(stop - start)))


def total(t):
    """Sum of every element of t as one scalar node: t as a row times ones."""
    n = t.data.size
    return affine(t.reshape(1, n), Tensor(np.ones((n, 1))), Tensor(np.zeros(1)))


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
    total(build(t)).backward()
    num = numeric_grad(lambda a: float(build(Tensor(a)).data.sum()), x0.copy())
    denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-3)
    assert (np.abs(t.grad - num) / denom).max() < rtol


# fixed operands of the fused-op cases; the (3, 4) variable is the t below
Z = np.linspace(-1.5, 1.2, 12).reshape(3, 4)
T = np.linspace(0.8, -0.9, 12).reshape(3, 4)
LOGITS = np.array([[0.4, -1.1], [-2.0, 0.3], [1.5, 0.9]])
MASK = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
EPS_NOISE = np.linspace(-1.2, 1.4, 12).reshape(3, 4)
TIER_W = [np.linspace(-1, 1, 4 * c).reshape(4, c) for c in (3, 2, 1)]
ALPHA = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4]])
Y12 = np.linspace(-3.0, 3.0, 12)  # residuals reach both sides of delta
MIXED = [(0, 5), (5, 9), (9, 12), (12, 13)]  # groups of widths 5, 4, 3, 1


class FixedMask:
    """Stands in for an Rng whose every Bernoulli draw is MASK."""

    def bernoulli(self, q, shape):
        return MASK


def cal(z=Z, logits=LOGITS, t=T, train=True):
    """calibrate with one operand varied; train mode freezes the mask."""
    wrap = [x if isinstance(x, Tensor) else Tensor(x) for x in (z, logits, t)]
    return calibrate(*wrap, FixedMask() if train else None)[0]


def tiers(g=Z, w1=TIER_W[0], alpha=ALPHA):
    g, w1, alpha = (x if isinstance(x, Tensor) else Tensor(x) for x in (g, w1, alpha))
    return tiered_projection(g, w1, Tensor(TIER_W[1]), Tensor(TIER_W[2]), alpha)


class TestForwardExamples:
    def test_softmax_uniform(self):
        out = Tensor([[0.0, 0.0, 0.0]]).softmax()
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_l2_normalize_345(self):
        _, k_hat = normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(k_hat, [[0.6, 0.8]], atol=1e-15)

    def test_matmul_identity(self):
        # g @ w_i inside tiered_projection, with g = I and unit tier weights
        w = [np.arange(6.0).reshape(3, 2), np.ones((3, 1)), -np.eye(3)]
        out = tiered_projection(Tensor(np.eye(3)), *map(Tensor, w), Tensor(np.ones((3, 3))))
        np.testing.assert_array_equal(out.data, np.hstack(w))


class TestGradients:
    @pytest.mark.parametrize(
        "name,build",
        [
            ("add", lambda t: t + Tensor(np.linspace(-1, 1, 12).reshape(3, 4))),
            ("mul", lambda t: t * Tensor(np.linspace(0.5, 2, 12).reshape(3, 4))),
            ("scalar_mul", lambda t: t * 2.5),
            # the deleted generic ops keep their cases, each re-pointed at the
            # fused op that now holds that arithmetic
            ("sub", lambda t: regression_loss(t.reshape(-1), Y12, 1.0, 1.0)[0]),
            ("div", lambda t: cal(logits=pick(t, 1, 3))),  # the 1/(1 - delta)
            ("rowvec_add", lambda t: affine(Tensor(np.ones((2, 5))),
                                            Tensor(np.ones((5, 12))), t.reshape(-1))),
            ("colvec_mul", lambda t: tiers(alpha=pick(t, 0, 3))),
            ("matmul", lambda t: tiers(g=t)),
            ("exp", lambda t: reparameterize(Tensor(Z), t, EPS_NOISE)),
            ("tanh", lambda t: t.tanh()),
            ("sigmoid", lambda t: cal(logits=pick(t, 2, 4), train=False)),
            ("softmax", lambda t: t.softmax()),
            ("l2_normalize", lambda t: normalize_rows(t)[0]),
            ("abs", lambda t: regression_loss(t.reshape(-1), Y12, 0.0, 0.7)[0]),
            ("clamp", lambda t: t.clamp(-0.5, 0.5)),
            ("mean", lambda t: kl_term(t, Tensor(T))),
            ("reshape", lambda t: t.reshape(4, 3)),
            ("affine", lambda t: affine(t, Tensor(W_A), Tensor(np.array([0.3, -0.2])))),
            (
                "mlp2",
                lambda t: mlp2(t, Tensor(W_A), Tensor(np.array([0.1, -0.4])),
                               Tensor(W_B), Tensor(np.array([0.2, 0.0, -0.1]))),
            ),
            (
                "kernel_attention_dx",  # one group, k=2 kernels over p=4 features
                lambda t: kernel_attention(
                    t, [(0, 4)], [[Tensor(a) for a in attention_set(4, 2)]])[0],
            ),
            (
                "kernel_attention_mixed_widths",  # widths 5, 4, 3, 1 with k=1; d/dx
                lambda t: kernel_attention(
                    affine(t, Tensor(np.linspace(-1, 1, 52).reshape(4, 13)),
                           Tensor(np.zeros(13))),
                    MIXED, [[Tensor(a) for a in attention_set(e - s, 1, seed=s)]
                            for s, e in MIXED])[0],
            ),
            (
                "kernel_attention_dphi_k",  # two stacked 3-wide groups; t is group 0's w1
                lambda t: kernel_attention(
                    Tensor(np.linspace(-1.5, 1.4, 18).reshape(3, 6)), [(0, 3), (3, 6)],
                    [[t, *map(Tensor, attention_set(3, 2, h=4)[1:])],
                     [Tensor(a) for a in attention_set(3, 2, h=4, seed=1)]])[0],
            ),
            ("calibrate_train_dz", lambda t: cal(z=t)),
            ("calibrate_train_dt", lambda t: cal(t=t)),
            ("calibrate_eval_dz", lambda t: cal(z=t, train=False)),
            ("calibrate_eval_dt", lambda t: cal(t=t, train=False)),
            ("reparameterize_dmu", lambda t: reparameterize(t, Tensor(T), EPS_NOISE)),
            (
                "tiered_projection_dw",  # p = 3 rows, so the (3, 4) t is w1
                lambda t: tiered_projection(Tensor(Z[:, :3]), t, Tensor(TIER_W[1][:3]),
                                            Tensor(TIER_W[2][:3]), Tensor(ALPHA)),
            ),
            ("regression_loss", lambda t: regression_loss(t.reshape(-1), Y12, 0.7, 0.5)[0]),
            ("kl_term_dlog_sigma", lambda t: kl_term(Tensor(Z), t)),
        ],
    )
    def test_op_matches_finite_differences(self, name, build):
        rng = np.random.default_rng(hash(name) % 2**32)
        x0 = rng.normal(size=(3, 4)) + 0.1  # keep away from |x|=0 and clamp edges
        check_op(build, x0)

    def test_square_at_3(self):
        x = Tensor(np.array([[3.0]]))
        (x * x).backward()
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_softmax_jacobian_diagonal_at_uniform(self):
        # d softmax_i / d x_i at uniform input is (1/m)(1 - 1/m)
        m = 4
        for i in range(m):
            x = Tensor(np.zeros((1, m)))
            pick(x.softmax(), i, i + 1).backward()
            assert x.grad[0, i] == pytest.approx((1 / m) * (1 - 1 / m), abs=1e-12)

    def test_backward_deterministic(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)))
        h = affine(x, w, Tensor(np.zeros(2)))
        loss = total(h.tanh() * h)
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


class TestErrors:
    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))

    def test_matmul_mismatch(self):
        # g @ w_i inside tiered_projection needs w_i to have p rows
        with pytest.raises(ShapeError, match="tiered_projection"):
            tiers(w1=np.zeros((3, 3)))

    def test_nonfinite_names_op(self):
        with pytest.raises(NumericError, match="reparameterize"):
            reparameterize(Tensor([[0.0]]), Tensor([[2000.0]]), np.ones((1, 1)))

    def test_no_broadcasting(self):
        with pytest.raises(ShapeError, match="mul"):
            Tensor(np.zeros((3, 4))) * Tensor(np.zeros((3, 1)))
        with pytest.raises(ShapeError, match="add"):
            Tensor(np.zeros((3, 4))) + Tensor(np.zeros(4))

    def test_float_scale_is_not_a_leaf(self):
        t = Tensor(np.ones((2, 2)))
        out = t * 2.5
        assert out._prev == (t,) and out.op == "mul"

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
        two_wide = [Tensor(a) for a in attention_set(2, 2)]
        with pytest.raises(ShapeError, match="kernel_attention"):  # width 3, params of 2
            kernel_attention(x, [(0, 3)], [two_wide])
        with pytest.raises(ShapeError, match="kernel_attention"):  # groups miss column 2
            kernel_attention(x, [(0, 2)], [two_wide])
        with pytest.raises(ShapeError, match="calibrate"):
            calibrate(x, Tensor(np.zeros((2, 3))), x, None)
        with pytest.raises(ShapeError, match="reparameterize"):
            reparameterize(x, x, np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="tiered_projection"):
            tiered_projection(x, x, x, x, Tensor(np.zeros((2, 2))))
        with pytest.raises(ShapeError, match="regression_loss"):
            regression_loss(Tensor(np.zeros(2)), np.zeros(3), 0.5, 1.0)
        with pytest.raises(ShapeError, match="kl_term"):
            kl_term(x, Tensor(np.zeros((3, 2))))

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


class TestVocabulary:
    def test_every_tensor_op_has_a_caller_in_the_package(self):
        """Each public function and method of tensor.py is named by another
        module of the package, so no op lives on with test-only callers."""
        src = Path(scalarnet.__file__).parent
        defined = set()
        for node in ast.parse((src / "tensor.py").read_text(encoding="utf-8")).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined |= {f.name for f in body if isinstance(f, ast.FunctionDef)}
        public = {name for name in defined if not name.startswith("_")}
        used = set()
        for path in src.glob("*.py"):
            if path.name != "tensor.py":
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
                    elif isinstance(node, ast.alias):
                        used.add(node.name)
        assert len(public) >= 15
        assert sorted(public - used) == []

    @pytest.mark.parametrize("name", ["__sub__", "__rsub__", "__truediv__", "__matmul__",
                                      "sigmoid", "abs", "exp", "sum", "mean", "cols"])
    def test_deleted_generic_ops_stay_deleted(self, name):
        assert not hasattr(Tensor, name)

    @pytest.mark.parametrize("name", ["concat", "kernel_attend"])
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


# multi-operand ops and their operands: (build, arrays); every operand may be
# made constant
OPERANDS = {
    "add": (lambda a, b: a + b, [Z, T]),
    "mul": (lambda a, b: a * b, [Z, T]),
    "affine": (affine, [Z, W_A, np.array([0.3, -0.2])]),
    "mlp2": (mlp2, [Z, W_A, np.array([0.1, -0.4]), W_B, np.array([0.2, 0.0, -0.1])]),
    "kernel_attention": (  # two stacked groups of width 2
        lambda x, *ps: kernel_attention(x, [(0, 2), (2, 4)], [ps[:10], ps[10:]])[0],
        [Z, *attention_set(2, 2, seed=1), *attention_set(2, 2, seed=2)]),
    "calibrate_train": (lambda z, lg, t: calibrate(z, lg, t, FixedMask())[0], [Z, LOGITS, T]),
    "calibrate_eval": (lambda z, lg, t: calibrate(z, lg, t, None)[0], [Z, LOGITS, T]),
    "reparameterize": (lambda mu, ls: reparameterize(mu, ls, EPS_NOISE), [Z, T]),
    "tiered_projection": (tiered_projection, [Z, *TIER_W, ALPHA]),
    "kl_term": (kl_term, [Z, T]),
}


class TestNodeConstructor:
    def test_only_node_builds_graph_links(self):
        """Every op makes its node through `_node`: no other function in
        tensor.py assigns `_prev`, `_backward` or `op`, except the leaf
        defaults of `Tensor.__init__`, and only those two decide
        `requires_grad`."""
        tree = ast.parse((Path(scalarnet.__file__).parent / "tensor.py").read_text(
            encoding="utf-8"))
        assert _link_writers("", tree, GRAPH_LINKS) == {"_node", "Tensor.__init__"}
        assert _link_writers("", tree, {"requires_grad"}) == {"_node", "Tensor.__init__"}

    def test_node_guards_and_links(self):
        t = Tensor(np.ones((2, 3)))
        out = t.reshape(3, 2)
        assert out._prev == (t,) and out.op == "reshape"
        with pytest.raises(NumericError, match="'reshape'"):
            Tensor([[1.0, np.inf]]).reshape(2)

    def test_node_of_constants_is_a_constant(self):
        with no_grad():
            a, b = Tensor(Z), Tensor(T)
        assert not (a.requires_grad or b.requires_grad)
        out = affine(a + b, Tensor(W_A), Tensor(np.zeros(2)))
        assert out.requires_grad and len(out._prev) == 2  # w and b, not the constant
        c = (a + b).tanh()
        assert not c.requires_grad and c._prev == () and c._backward is None
        with pytest.raises(NumericError, match="constant"):
            regression_loss(c.reshape(-1), np.zeros(12), 1.0, 1.0)[0].backward()

    def test_no_grad_records_nothing_and_restores_grad_mode(self):
        w = Tensor(W_A)
        with pytest.raises(ShapeError):
            with no_grad():
                out = affine(Tensor(Z), w, Tensor(np.zeros(2))).tanh()
                Tensor(Z) + Tensor(T[:2])
        assert not out.requires_grad and out._prev == () and out._backward is None
        assert Tensor(Z).requires_grad  # grad mode is back on after the error
        assert affine(Tensor(Z), w, Tensor(np.zeros(2)))._prev

    @pytest.mark.parametrize("name", sorted(OPERANDS))
    def test_constant_operand_gets_no_gradient_and_changes_no_other(self, name):
        build, arrays = OPERANDS[name]
        ref = [Tensor(a) for a in arrays]
        total(build(*ref)).backward()
        for i in range(len(arrays)):
            with no_grad():
                const = Tensor(arrays[i])
            operands = [const if j == i else Tensor(a) for j, a in enumerate(arrays)]
            out = build(*operands)
            assert all(t is not const for t in out._prev)
            total(out).backward()
            assert const.grad is None
            for j, (t, r) in enumerate(zip(operands, ref)):
                if j != i:
                    assert np.array_equal(t.grad, r.grad), (i, j)
