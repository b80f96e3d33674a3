import contextlib
import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalarnet import model as model_module
from scalarnet.attention import FeatureGroupSpec, KernelAttentionParams
from scalarnet.calibration import CalibrationParams, self_calibrate, variational_encode_decode
from scalarnet.data import Dataset, standardize, synth_nonlinear, take
from scalarnet.errors import ConfigError, DataError, NumericError
from scalarnet.head import HeadParams, feature_importance, head_forward
from scalarnet.layers import Affine, Mlp2, named_tensors
from scalarnet.losses import LossConfig, composite_loss, kl_weight, loss
from scalarnet.model import ModelConfig, ScalarModel, bind
from scalarnet.tensor import Rng, Tensor, no_grad
from scalarnet.train import (
    EVAL_ALIGN,
    EVAL_ROWS,
    Adam,
    _FixedDraws,
    Checkpoint,
    evaluate,
    gradcheck,
    importance_scores,
    predict,
    train,
    train_step,
)

GROUPS = [[0, 4], [4, 8]]


def tiny_dataset(n=64, noise=0.05, seed=1):
    spec = FeatureGroupSpec(GROUPS)
    return synth_nonlinear(n, spec, noise, seed=seed)


def quick_cfg(**kw):
    base = dict(
        groups=GROUPS,
        max_epochs=30,
        batch_size=16,
        learning_rate=3e-3,
        patience=10,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestGradcheck:
    def test_default_passes(self):
        report = gradcheck(seed=0)
        assert report["max_rel_error"] < 1e-4, report["worst_param"]

    def test_beta0_zero_latent_path_still_gets_gradient(self):
        from scalarnet.losses import composite_loss

        cfg = ModelConfig(groups=[[0, 3], [3, 6]], k=2, d=2, components=(4, 3, 2),
                          loss=LossConfig(beta0=0.0), seed=0)
        model = ScalarModel(cfg, 6)
        rng = Rng(5)
        x, y = rng.normal((4, 6)), rng.normal(4)
        y_hat, trace = model.forward(x, "train", rng)
        total, _ = composite_loss(y, y_hat, trace.latent, 0, 10, cfg.loss)
        total.backward()
        named = model.named_parameters()
        for key in ("var.phi_mu.w", "var.phi_sigma.w"):
            assert np.abs(named[key].grad).max() > 0, key

    def test_zero_initialized_residual_layers_finite(self):
        cfg = ModelConfig(groups=[[0, 3], [3, 6]], k=2, d=2, components=(4, 3, 2), seed=0)
        model = ScalarModel(cfg, 6)
        for name, t in model.named_parameters().items():
            if name.startswith(("cal.phi_t", "var.phi_d")) or ".phi_p." in name:
                t.data[...] = 0.0
        from scalarnet.losses import composite_loss

        rng = Rng(6)
        x, y = rng.normal((4, 6)), rng.normal(4)
        y_hat, trace = model.forward(x, "train", rng)
        total, _ = composite_loss(y, y_hat, trace.latent, 0, 10, cfg.loss)
        total.backward()
        for name, t in model.named_parameters().items():
            assert np.isfinite(t.grad).all(), name

    @pytest.mark.parametrize("widths,batch,variational", [
        ((6, 6), 32, True),  # the train_small benchmark workload
        ((6,) * 8, 128, True),  # train_wide
        ((1, 6, 6, 3, 1), 32, True),  # mixed-width records, one- and two-group
        ((3,) * 16, 1, True),  # 16 stacked groups, a one-row batch
        ((6, 6), 32, False),  # no variational block
    ])
    def test_directional_derivative_at_training_shapes(self, widths, batch, variational):
        """g·v against the central difference of the loss along random unit
        directions v of `model.flat`, with the dropout mask and latent noise
        frozen (Baydin et al. 2018)."""
        bounds = np.cumsum([0, *widths]).tolist()
        p = bounds[-1]
        cfg = ModelConfig(groups=list(zip(bounds[:-1], bounds[1:])), seed=0,
                          use_variational=variational)
        model = ScalarModel(cfg, p)
        r = np.random.default_rng(p + batch)
        model.flat += r.normal(size=model.flat.size) * 0.1  # off the zero phi_p
        theta = model.flat.copy()
        x, y = r.normal(size=(batch, p)), r.normal(size=batch)
        noise = _FixedDraws((r.random((batch, p)) < 0.8) * 1.0, r.normal(size=(batch, model.d)))

        def loss_at(step):
            model.flat[:] = theta + step
            y_hat, trace = model.forward(x, "train", noise)
            return composite_loss(y, y_hat, trace.latent, 5, 10, cfg.loss)[0]

        (leaf,) = loss_at(0.0).backward()  # the model's one leaf, every record's
        assert leaf.data is model.flat and leaf.grad is model.grad_flat
        g, h, worst = model.grad_flat.copy(), 1e-5, 0.0
        for _ in range(8):
            v = r.normal(size=theta.size)
            v /= np.linalg.norm(v)
            num = (float(loss_at(h * v).data) - float(loss_at(-h * v).data)) / (2 * h)
            worst = max(worst, abs(g @ v - num) / max(abs(g @ v), abs(num), 1e-6))
        assert worst < 1e-6


def loss_graph_histogram(root) -> Counter:
    """Op histogram of the non-leaf nodes reachable from `root` through the
    parent links."""
    seen, stack, hist = {id(root)}, [root], Counter()
    while stack:
        node = stack.pop()
        if node.op != "leaf":
            hist[node.op] += 1
        for parent in node._prev:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return hist


class TestAdam:
    def test_flat_buffer_matches_per_tensor_update(self):
        model = ScalarModel(quick_cfg(), 8)
        named = model.named_parameters()
        ref = {k: t.data.copy() for k, t in named.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        lr, b1, b2, eps, clip = 3e-3, 0.9, 0.999, 1e-8, 5.0
        opt = Adam(model, lr)
        rng = np.random.default_rng(0)
        clipped = 0
        for t in range(1, 6):
            grads = {k: rng.normal(size=a.shape) * 3.0 for k, a in ref.items()}
            for k, p in named.items():
                p.grad[...] = grads[k]  # written through the views of grad_flat
            # per-tensor reference: the update rule written one tensor at a time
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > clip:
                clipped += 1
                grads = {k: g * (clip / total) for k, g in grads.items()}
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                ref[k] = ref[k] - lr * (m[k] / (1.0 - b1**t)) / (
                    np.sqrt(v[k] / (1.0 - b2**t)) + eps
                )
            opt.step(clip)
        assert clipped == 5
        for k, p in named.items():
            np.testing.assert_allclose(p.data, ref[k], rtol=1e-12, atol=0.0)
            assert np.shares_memory(p.data, model.flat), k

    # 1e200 is finite, but the squared norm overflows: NumericError, not a warning
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_nonfinite_gradient_raises_and_changes_nothing(self, bad):
        model = ScalarModel(quick_cfg(), 8)
        opt = Adam(model, 3e-3)
        data, noise = Rng(1), Rng(2)
        train_step(model, opt, data.normal((16, 8)), data.normal(16), 0, noise)
        before = [a.copy() for a in (model.flat, opt.m, opt.v)]
        model.grad_flat[7] = bad
        with pytest.raises(NumericError, match="non-finite gradient norm"):
            opt.step(5.0)
        assert opt.t == 1
        for a, b in zip((model.flat, opt.m, opt.v), before):
            assert a.tobytes() == b.tobytes()

    def test_a_model_built_without_grad_mode_cannot_train_but_evaluates(self):
        """A model built inside no_grad() has a constant leaf: Adam
        names the cause instead of a first step failing inside backward."""
        with no_grad():
            model = ScalarModel(quick_cfg(), 8)
        with pytest.raises(ConfigError, match=r"no_grad\(\)"):
            Adam(model, 3e-3)
        x = Rng(1).normal((5, 8))
        y_hat, _ = model.forward(x, "eval")
        assert np.array_equal(y_hat.data, ScalarModel(quick_cfg(), 8).forward(x, "eval")[0].data)


def batch_loss(model, x, y, rng):
    """The train-mode composite loss of one batch at epoch 0 of 10."""
    y_hat, trace = model.forward(x, "train", rng)
    total, _ = composite_loss(y, y_hat, trace.latent, 0, 10,
                              model.cfg.loss)
    return total


class TestFlatBuffers:
    """The model owns one flat parameter buffer and one flat gradient buffer;
    one graph leaf holds both, every stage record's, and every parameter's
    data and gradient view them."""

    @staticmethod
    def assert_views(model):
        named = model.named_parameters()
        assert sum(t.data.size for t in named.values()) == model.flat.size
        for k, t in named.items():
            assert np.shares_memory(t.data, model.flat), k
            assert np.shares_memory(t.grad, model.grad_flat), k
        tiers = [*model.group_params, model.global_params]
        stages = [*tiers, model.cal_params, model.head_params]
        if model.cfg.use_variational:
            stages.append(model.var_params)
        for stage in stages:  # one leaf
            assert stage.leaf.data is model.flat and stage.leaf.grad is model.grad_flat
        for prm in tiers:  # each group's named tensors are rows of these stacks
            for t in named_tensors(prm, "stack").values():
                assert np.shares_memory(t.data, model.flat)
                assert np.shares_memory(t.grad, model.grad_flat)

    def test_views_survive_training_steps(self):
        model = ScalarModel(quick_cfg(), 8)
        opt = Adam(model, 3e-3)
        data, noise = Rng(1), Rng(2)
        for _ in range(2):
            train_step(model, opt, data.normal((16, 8)), data.normal(16), 0, noise)
        self.assert_views(model)

    def test_each_backward_gives_only_its_own_gradient(self):
        data = Rng(1)
        xa, ya = data.normal((16, 8)), data.normal(16)
        xb, yb = data.normal((9, 8)), data.normal(9)
        model = ScalarModel(quick_cfg(), 8)
        batch_loss(model, xa, ya, Rng(2)).backward()
        batch_loss(model, xb, yb, Rng(3)).backward()
        fresh = ScalarModel(quick_cfg(), 8)
        batch_loss(fresh, xb, yb, Rng(3)).backward()
        assert np.array_equal(model.grad_flat, fresh.grad_flat)
        named = model.named_parameters()
        for k, t in fresh.named_parameters().items():
            assert np.array_equal(named[k].grad, t.grad), k

    def test_parameters_the_latest_backward_missed_hold_zero(self):
        """A stale gradient from an earlier backward does not survive: the KL
        term alone never reaches the decoder, the global tier or the head, so
        after a full step their gradients are exactly zero."""
        model = ScalarModel(quick_cfg(), 8)
        opt = Adam(model, 3e-3)
        data, noise = Rng(1), Rng(2)
        x, y = data.normal((16, 8)), data.normal(16)
        train_step(model, opt, x, y, 0, noise)  # reaches every parameter
        _, trace = model.forward(x, "train", noise)
        kl, *_ = loss(Tensor(np.zeros(16)), np.zeros(16), trace.latent, 1.0, 1.0, 1.0)
        kl.backward()
        named = model.named_parameters()
        missed = [k for k in named if k.startswith(("var.phi_d.", "global.", "head."))]
        assert len(missed) == 4 + 10 + 11
        for k in missed:
            assert not named[k].grad.any(), k
        for k in ("var.phi_e.w", "cal.phi_t.l1.w", "group0.phi_k.l1.w"):
            assert named[k].grad.any(), k

    def test_checkpoint_model_views_its_flat_buffer(self, acceptance_ckpt):
        """A record per width (its groups' ten fields, each stacked over the
        groups), then cal, var, the global tier and head, each in name order."""
        model = acceptance_ckpt.build_model()
        self.assert_views(model)
        params, names = acceptance_ckpt.params, list(model.named_parameters())
        widths = {}
        for g, (s, e) in enumerate(model.cfg.spec.groups):
            widths.setdefault(e - s, []).append(g)
        expected = [np.ravel([params[f"group{g}.{n}"] for g in members])
                    for members in widths.values() for n in KA]
        expected += [np.ravel(params[k]) for k in names if not k.startswith("group")]
        assert np.array_equal(model.flat, np.concatenate(expected))

    def test_the_model_lays_its_records_out_once(self, monkeypatch):
        """A record is not laid out until something lays it out: the model,
        with one `bind` call over every record it uses, or a test."""
        calls = []
        monkeypatch.setattr(model_module, "bind", lambda records: calls.append(records)
                            or bind(records))
        model = ScalarModel(quick_cfg(use_variational=False), 8)
        assert calls == [[*model.group_params, model.cal_params, model.global_params,
                          model.head_params]]
        records = [CalibrationParams.init(Rng(0), 8), HeadParams.init(Rng(0), 8, (4, 3, 2))]
        for record in (model.var_params, *records):  # the variational record goes unused
            assert not hasattr(record, "leaf")
            assert all(t.grad is None for t in named_tensors(record, "r").values())
        bind(records)
        assert records[0].leaf is records[1].leaf
        for record in records:
            for t in named_tensors(record, "r").values():
                assert np.shares_memory(t.grad, record.leaf.grad)

    def test_a_tensor_is_laid_out_once(self):
        (prm,) = KernelAttentionParams.init(Rng(0), [(0, 3), (3, 6)], 2)
        with pytest.raises(ValueError, match="once"):  # the same record given twice
            bind([prm, prm])
        bind([prm])  # nothing was laid out above
        cal = CalibrationParams.init(Rng(1), 4)
        bind([cal])
        shares = CalibrationParams(phi_t=cal.phi_t, phi_c=Mlp2.init(Rng(2), 4, 8, 2))
        with pytest.raises(ValueError, match="once"):  # a tensor of a laid-out record
            bind([shares])
        with pytest.raises(ValueError, match="once"):
            bind([CalibrationParams.init(Rng(3), 4)] * 2)


MLP = ["l1.w", "l1.b", "l2.w", "l2.b"]
KA = [
    "phi_k.l1.w", "phi_k.l1.b", "phi_k.l2.w", "phi_k.l2.b",
    "phi_w.l1.w", "phi_w.l1.b", "phi_w.l2.w", "phi_w.l2.b",
    "phi_p.w", "phi_p.b",
]
CAL = [f"phi_t.{n}" for n in MLP] + [f"phi_c.{n}" for n in MLP]
VAR = [
    "phi_e.w", "phi_e.b", "phi_mu.w", "phi_mu.b", "phi_sigma.w", "phi_sigma.b",
] + [f"phi_d.{n}" for n in MLP]
HEAD = ["w1", "w2", "w3"] + [f"phi_alpha.{n}" for n in MLP] + [f"phi_y.{n}" for n in MLP]


class TestParameterNames:
    """Names are the checkpoint keys, in a pinned order."""

    @pytest.mark.parametrize("use_variational", [True, False])
    def test_names_and_order_are_pinned(self, use_variational):
        cfg = ModelConfig(groups=[[0, 3], [3, 6]], k=2, d=2, components=(4, 3, 2),
                          use_variational=use_variational, seed=0)
        expected = (
            [f"group0.{n}" for n in KA]
            + [f"group1.{n}" for n in KA]
            + [f"cal.{n}" for n in CAL]
            + ([f"var.{n}" for n in VAR] if use_variational else [])
            + [f"global.{n}" for n in KA]
            + [f"head.{n}" for n in HEAD]
        )
        assert list(ScalarModel(cfg, 6).named_parameters()) == expected

    def test_train_names_epoch_and_batch_of_nonfinite_gradient(self, monkeypatch):
        backward = Tensor.backward

        def poisoned(self):
            leaves = backward(self)
            leaves[0].grad[0] = np.inf
            return leaves

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(NumericError, match=r"epoch 0, batch 0: non-finite gradient norm"):
            train(standardize(tiny_dataset()), quick_cfg())

    def test_train_names_epoch_and_batch_of_overflowing_backward(self, monkeypatch):
        """A finite forward (loss ~1e202) whose backward overflows: the
        gradient norm is refused, naming epoch and batch, with no warning."""
        init = HeadParams.init

        def huge(rng, p, components):
            head = init(rng, p, components)
            for t in (head.w1, head.w2, head.w3):
                t.data = t.data * 1e200
            head.phi_y.l1.w.data = np.full_like(head.phi_y.l1.w.data, 1e-300)
            head.phi_y.l2.w.data = np.full_like(head.phi_y.l2.w.data, 1e200)
            return head

        monkeypatch.setattr(HeadParams, "init", staticmethod(huge))
        groups = [[0, 3], [3, 6]]
        ds = standardize(synth_nonlinear(40, FeatureGroupSpec(groups), 0.05, seed=1))
        cfg = ModelConfig(groups=groups, k=2, use_variational=False, batch_size=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=r"epoch 0, batch 0: non-finite gradient norm"):
                train(ds, cfg)

    def test_train_names_epoch_of_failing_validation(self):
        """A validation row that overflows the grouped tier: the error names
        the epoch and the validation pass, with no warning."""
        groups = [[0, 6], [6, 12]]
        ds = standardize(synth_nonlinear(200, FeatureGroupSpec(groups), 0.1, seed=1))
        cfg = ModelConfig(groups=groups, max_epochs=2, patience=2, seed=0)
        ds.x[np.random.default_rng(cfg.seed + 3).permutation(ds.n)[0]] = 1.5e308  # a validation row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"epoch 0, validation: non-finite output "
                                                   r"in op 'kernel_attention'"):
                train(ds, cfg)


class TestForwardNoise:
    """`forward`'s rng is the only source of noise, and only in train mode."""

    def test_mode_and_rng_are_checked(self):
        model = ScalarModel(quick_cfg(), 8)
        x = np.zeros((2, 8))
        with pytest.raises(ConfigError, match="unknown mode"):
            model.forward(x, "sample", Rng(0))
        with pytest.raises(ConfigError, match="needs an rng"):
            model.forward(x, "train")

    def test_eval_ignores_rng(self):
        model = ScalarModel(quick_cfg(), 8)
        x = Rng(1).normal((4, 8))
        rng = Rng(2)
        a, _ = model.forward(x, "eval", rng)
        b, _ = model.forward(x, "eval")
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(rng.uniform(3), Rng(2).uniform(3))  # nothing drawn


class TestForwardInput:
    @pytest.mark.parametrize("shape", [(8,), (2, 8, 1), (2, 7), (2, 9)])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_input_must_be_batch_by_p(self, shape, mode):
        model = ScalarModel(quick_cfg(), 8)
        with pytest.raises(ConfigError, match=r"\(batch, 8\)"):
            model.forward(np.zeros(shape), mode, Rng(0))


class TestGraphSize:
    def test_acceptance_loss_graph_is_one_node_per_layer(self):
        from scalarnet.losses import composite_loss

        cfg = ModelConfig(groups=[[0, 6], [6, 12]], k=4, batch_size=32, seed=0)
        model = ScalarModel(cfg, 12)
        rng = Rng(1)
        x, y = rng.normal((32, 12)), rng.normal(32)
        y_hat, trace = model.forward(x, "train", rng)
        total, _ = composite_loss(y, y_hat, trace.latent, 0, 10, cfg.loss)
        # one node per stage: 22 before the stage ops, 84 before the first fused
        # ops, 200 before layers
        stages = {"kernel_attention": 2, "calibration": 1, "head": 1, "loss": 1}
        assert loss_graph_histogram(total) == {**stages, "encode": 1, "decode": 1}
        model = ScalarModel(ModelConfig(**{**cfg.to_dict(), "use_variational": False}), 12)
        y_hat, trace = model.forward(x, "train", rng)
        total, _ = composite_loss(y, y_hat, trace.latent, 0, 10, cfg.loss)
        assert loss_graph_histogram(total) == stages  # without the variational block

    @pytest.mark.parametrize("use_variational,calls", [(True, (23, 9)), (False, (18, 8))])
    def test_stages_apply_their_layers(self, monkeypatch, use_variational, calls):
        """Every stage runs its forward through `Affine.__call__` and
        `Mlp2.__call__`; an Mlp2's two layers count as Affine calls too."""
        counts = Counter()
        for cls in (Affine, Mlp2):
            def counted(self, x, op, _call=cls.__call__, _name=cls.__name__):
                counts[_name] += 1
                return _call(self, x, op)

            monkeypatch.setattr(cls, "__call__", counted)
        cfg = ModelConfig(groups=[[0, 6], [6, 12]], use_variational=use_variational, seed=0)
        model, x = ScalarModel(cfg, 12), Rng(1).normal((8, 12))
        for mode, rng in (("train", Rng(2)), ("eval", None)):
            counts.clear()
            model.forward(x, mode, rng)
            assert (counts["Affine"], counts["Mlp2"]) == calls, mode


class TestTraining:
    # two 4-wide groups stack into one record of the grouped tier; widths
    # (1, 6, 6, 3, 1) into three
    @pytest.mark.parametrize("widths,epochs", [((4, 4), 10), ((1, 6, 6, 3, 1), 4)],
                             ids=["one_record", "three_records"])
    def test_two_runs_bit_identical(self, widths, epochs):
        bounds = np.cumsum((0,) + widths).tolist()
        groups = [[s, e] for s, e in zip(bounds[:-1], bounds[1:])]
        ds = standardize(synth_nonlinear(64, FeatureGroupSpec(groups), 0.05, seed=1))
        cfg = quick_cfg(groups=groups, max_epochs=epochs)
        ck1, h1 = train(ds, cfg)
        ck2, h2 = train(ds, cfg)
        assert h1 == h2
        assert ck1.params == ck2.params

    def test_checkpoint_roundtrip_bit_identical(self, tmp_path):
        ds_raw = tiny_dataset()
        ck, _ = train(standardize(ds_raw), quick_cfg(max_epochs=8))
        before = predict(ck, ds_raw)
        path = tmp_path / "model.json"
        ck.save(path)
        loaded = Checkpoint.load(path)
        after = predict(loaded, ds_raw)
        assert np.array_equal(before, after)

    def test_early_stopping_returns_best(self):
        ds = standardize(tiny_dataset())
        ck, history = train(ds, quick_cfg(max_epochs=40, patience=3))
        assert ck.best_val_loss == min(h["val_loss"] for h in history)

    def test_checkpoint_holds_best_epoch_parameters(self):
        from scalarnet.losses import composite_loss

        ds = standardize(tiny_dataset())
        cfg = quick_cfg(max_epochs=40, patience=3)
        ck, history = train(ds, cfg)
        assert ck.epoch < len(history) - 1  # later, worse epochs were undone
        n_val = max(1, int(round(ds.n * cfg.val_fraction)))
        val = np.random.default_rng(cfg.seed + 3).permutation(ds.n)[:n_val]
        y_hat, trace = ck.build_model().forward(ds.x[val], "eval")
        total, _ = composite_loss(ds.y[val], y_hat, trace.latent,
                                  ck.epoch, cfg.max_epochs, cfg.loss)
        assert float(total.data) == ck.best_val_loss

    def test_eval_deterministic_and_permutation_invariant(self):
        ds_raw = tiny_dataset()
        ck, _ = train(standardize(ds_raw), quick_cfg(max_epochs=8))
        m1 = evaluate(ck, ds_raw)
        m2 = evaluate(ck, ds_raw)
        assert m1 == m2
        perm = np.random.default_rng(0).permutation(ds_raw.n)
        from scalarnet.data import take

        m3 = evaluate(ck, take(ds_raw, perm))
        for key in ("mse", "rmse", "mae", "r2", "ci"):
            assert m3[key] == pytest.approx(m1[key], abs=1e-12)

    def test_requires_standardized_dataset(self):
        with pytest.raises(ConfigError, match="standardized"):
            train(tiny_dataset(), quick_cfg())

    def test_loss_eventually_decreasing_on_easy_problem(self):
        # noiseless, pure-MSE objective: smoothed loss must trend down
        ds = standardize(tiny_dataset(n=128, noise=0.0, seed=3))
        cfg = quick_cfg(
            max_epochs=60,
            patience=10_000,
            loss=LossConfig(omega_mse=1.0, beta0=0.0),
        )
        _, history = train(ds, cfg)
        losses = [h["train_loss"] for h in history]
        smooth = [np.mean(losses[i : i + 10]) for i in range(0, len(losses) - 10, 10)]
        assert smooth[-1] < smooth[0]

    def test_dimension_mismatch_on_evaluate(self):
        ds_raw = tiny_dataset()
        ck, _ = train(standardize(ds_raw), quick_cfg(max_epochs=5))
        other = synth_nonlinear(10, FeatureGroupSpec([(0, 3), (3, 6)]), 0.1, seed=0)
        with pytest.raises(ConfigError, match="features"):
            evaluate(ck, other)

    def test_variational_toggle_isolates_parameters(self):
        ds = standardize(tiny_dataset())
        ck_with, _ = train(ds, quick_cfg(max_epochs=3))
        ck_without, _ = train(ds, quick_cfg(max_epochs=3, use_variational=False))
        with_keys = set(ck_with.params)
        without_keys = set(ck_without.params)
        assert without_keys < with_keys
        assert all(k.startswith("var.") for k in with_keys - without_keys)


class TestModelConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ModelConfig.from_dict({"groups": GROUPS, "learning_rte": 0.1})

    def test_unknown_loss_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss config keys"):
            ModelConfig.from_dict({"groups": GROUPS, "loss": {"omega": 1.0}})

    def test_roundtrip_through_dict(self):
        cfg = quick_cfg()
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ModelConfig(groups=GROUPS, learning_rate=-1.0)
        with pytest.raises(ConfigError):
            ModelConfig(groups=GROUPS, k=0)
        with pytest.raises(ConfigError):
            ModelConfig(groups=[[0, 2], [3, 5]])

    def test_nan_rate_and_clip_rejected(self):
        for name in ("learning_rate", "grad_clip_norm"):
            with pytest.raises(ConfigError):
                ModelConfig(groups=GROUPS, **{name: float("nan")})


ACCEPTANCE_GROUPS = [[0, 6], [6, 12]]


@pytest.fixture(scope="module")
def acceptance_ckpt():
    """A briefly trained checkpoint of the acceptance config (12 features in
    two groups of 6, k = 4)."""
    ds = synth_nonlinear(256, FeatureGroupSpec(ACCEPTANCE_GROUPS), 0.1, seed=3)
    cfg = ModelConfig(groups=ACCEPTANCE_GROUPS, max_epochs=3, learning_rate=3e-3, seed=0)
    return train(standardize(ds), cfg)[0]


def with_params(ckpt, edit):
    """A copy of `ckpt` whose params dict `edit` has changed."""
    params = dict(ckpt.params)
    edit(params)
    return dataclasses.replace(ckpt, params=params)


class TestCheckpointParameters:
    """`build_model` is where a parameter's shape enters the program: the
    stage ops trust the shapes `*.init` gives, so a checkpoint's parameters
    are checked against them on load."""

    # one matrix of each stage: grouped attention, calibration, variational,
    # global attention and head
    @pytest.mark.parametrize("name", ["group1.phi_p.w", "cal.phi_c.l2.w", "var.phi_mu.w",
                                      "global.phi_k.l2.w", "head.phi_y.l1.w"])
    def test_wrong_shape_names_parameter_and_both_shapes(self, acceptance_ckpt, name):
        rows, cols = np.asarray(acceptance_ckpt.params[name]).shape
        bad = with_params(acceptance_ckpt,
                          lambda ps: ps.update({name: np.zeros((rows, cols + 1)).tolist()}))
        with pytest.raises(ConfigError, match=rf"{name!r} has shape \({rows}, {cols + 1}\), "
                                              rf"expected \({rows}, {cols}\)"):
            bad.build_model()

    def test_missing_parameter(self, acceptance_ckpt):
        bad = with_params(acceptance_ckpt, lambda ps: ps.pop("head.w2"))
        with pytest.raises(ConfigError, match="missing parameter 'head.w2'"):
            bad.build_model()

    def test_unexpected_parameter(self, acceptance_ckpt):
        bad = with_params(acceptance_ckpt, lambda ps: ps.update({"head.w4": [[0.0]]}))
        with pytest.raises(ConfigError, match=r"unexpected parameters: \['head.w4'\]"):
            bad.build_model()


def eval_rows(n, seed=5):
    return synth_nonlinear(n, FeatureGroupSpec(ACCEPTANCE_GROUPS), 0.1, seed=seed)


WIDE_GROUPS = [[6 * g, 6 * g + 6] for g in range(8)]


@pytest.fixture(scope="module")
def wide_ckpt():
    """A one-epoch checkpoint on 48 features in eight groups of 6, k = 4: its
    k·p = 192 cells a row give 1024-row eval chunks."""
    ds = synth_nonlinear(128, FeatureGroupSpec(WIDE_GROUPS), 0.1, seed=3)
    return train(standardize(ds), ModelConfig(groups=WIDE_GROUPS, max_epochs=1, seed=0))[0]


def wide_eval_rows(n, seed=5):
    return synth_nonlinear(n, FeatureGroupSpec(WIDE_GROUPS), 0.1, seed=seed)


class TestChunkedEval:
    """predict and importance_scores run in row chunks of at most EVAL_ROWS
    without a graph, and give the bits of one full-batch forward."""

    @pytest.mark.parametrize("n", [1, 7, 1023, 1024, 1025, 4095, 4096, 4097, 2 * 4096 + 7])
    def test_bit_equal_to_one_full_batch_forward_with_grad_on(
            self, acceptance_ckpt, n, monkeypatch):
        ds_raw = eval_rows(n)
        scaler = acceptance_ckpt.get_scaler()
        with monkeypatch.context() as m:
            m.setattr(model_module, "no_grad", contextlib.nullcontext)
            y_hat, trace = acceptance_ckpt.build_model().forward(
                (ds_raw.x - scaler.x_mean) / scaler.x_std, "eval")
        assert y_hat._prev  # the reference built its graph
        expected = y_hat.data * scaler.y_std + scaler.y_mean
        assert np.array_equal(predict(acceptance_ckpt, ds_raw), expected)
        if n > 1:
            raw, normalized = importance_scores(acceptance_ckpt, ds_raw)
            ref_raw, ref_normalized = feature_importance([(trace.global_trace.k_hat,
                                                          trace.global_trace.w)])
            assert np.array_equal(raw, ref_raw)
            assert np.array_equal(normalized, ref_normalized)

    @pytest.mark.parametrize("n", [1, 4096, 4097, 8192, 8193, 3 * 4096 + 1, 20_000])
    def test_chunks_are_near_equal_and_cover_every_row(self, acceptance_ckpt, n,
                                                       monkeypatch):
        sizes = []
        forward = ScalarModel.forward

        def spy(model, x, mode="train", rng=None):
            sizes.append(len(x))
            return forward(model, x, mode, rng)

        monkeypatch.setattr(ScalarModel, "forward", spy)
        assert predict(acceptance_ckpt, eval_rows(n)).shape == (n,)
        chunks = -(-n // EVAL_ROWS)
        assert len(sizes) == chunks and sum(sizes) == n
        assert max(sizes) <= EVAL_ROWS and min(sizes) > n // chunks - EVAL_ALIGN
        assert all(s % EVAL_ALIGN == 0 for s in sizes[:-1])  # aligned starts

    @pytest.mark.parametrize("n", [2, 1024, 1025, 4000, 4097])
    @pytest.mark.parametrize("score", [predict, importance_scores])
    def test_wide_chunks_are_aligned_and_cover_every_row(self, wide_ckpt, n, score,
                                                         monkeypatch):
        """48 features, k = 4: chunks of at most EVAL_CELLS / 192 = 1024 rows."""
        sizes = []
        forward = ScalarModel.forward

        def spy(model, x, mode="train", rng=None):
            sizes.append(len(x))
            return forward(model, x, mode, rng)

        monkeypatch.setattr(ScalarModel, "forward", spy)
        score(wide_ckpt, wide_eval_rows(n))
        assert len(sizes) == -(-n // 1024) and sum(sizes) == n
        assert max(sizes) <= 1024
        assert all(s % EVAL_ALIGN == 0 for s in sizes[:-1])  # aligned starts

    def test_wide_config_matches_full_batch_to_rounding(self, wide_ckpt):
        """On 48 features OpenBLAS picks other gemm kernels for a chunk's row
        count than for the full batch, so chunks agree to rounding only."""
        ds_raw = wide_eval_rows(4097)
        scaler = wide_ckpt.get_scaler()
        y_hat, trace = wide_ckpt.build_model().forward(
            (ds_raw.x - scaler.x_mean) / scaler.x_std, "eval")
        np.testing.assert_allclose(predict(wide_ckpt, ds_raw),
                                   y_hat.data * scaler.y_std + scaler.y_mean,
                                   rtol=1e-9, atol=1e-12)
        raw, normalized = importance_scores(wide_ckpt, ds_raw)
        ref_raw, ref_normalized = feature_importance([(trace.global_trace.k_hat,
                                                      trace.global_trace.w)])
        np.testing.assert_allclose(raw, ref_raw, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(normalized, ref_normalized, rtol=1e-9, atol=1e-12)

    def test_memory_per_row_is_bounded(self, acceptance_ckpt):
        """Traced peak below 2 KB per row on 20k rows; a kept graph costs
        ~5.8 KB per row."""
        ds_raw = eval_rows(20_000)
        for score in (predict, importance_scores):
            tracemalloc.start()
            try:
                score(acceptance_ckpt, ds_raw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / ds_raw.n < 2048, (score.__name__, peak / ds_raw.n)

    def test_importance_memory_is_flat_in_n(self, acceptance_ckpt):
        """importance_scores reduces each chunk as it comes: its traced peak
        on 40k rows is within 3 MB of that on 10k (~1 KB above it: chunks of
        at most 1024 rows at both sizes). Keeping k̂ and w for every row adds
        ~14 MB."""
        peaks = {}
        for n in (10_000, 40_000):
            ds_raw = eval_rows(n)
            tracemalloc.start()
            try:
                importance_scores(acceptance_ckpt, ds_raw)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40_000] - peaks[10_000] < 3e6, peaks

    def test_twelve_feature_eval_peak_is_bounded(self, acceptance_ckpt):
        """1024-row chunks keep the traced peak of predict and of
        importance_scores on 20k rows of the acceptance config below 4 MB
        (~2.6 and ~3.0 MB; ~9.6 and ~11.5 MB in 4096-row chunks)."""
        ds_raw = eval_rows(20_000)
        for score in (predict, importance_scores):
            tracemalloc.start()
            try:
                score(acceptance_ckpt, ds_raw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, (score.__name__, peak)

    def test_predict_on_zero_rows_is_empty(self, acceptance_ckpt):
        y_hat = predict(acceptance_ckpt, take(eval_rows(8), np.arange(0)))
        assert y_hat.shape == (0,)

    def test_evaluate_on_zero_rows_raises_data_error(self, acceptance_ckpt):
        with pytest.raises(DataError, match="at least 2 samples"):
            evaluate(acceptance_ckpt, take(eval_rows(8), np.arange(0)))

    def test_importance_on_zero_rows_raises_data_error(self, acceptance_ckpt):
        with pytest.raises(DataError, match="empty trace set"):
            importance_scores(acceptance_ckpt, take(eval_rows(8), np.arange(0)))

    def test_wide_memory_per_row_is_bounded(self, wide_ckpt):
        """Traced peak of predict on 4000 rows of 48 features below 3 KB per
        row (~2.1 KB in 1024-row chunks, ~8.1 KB in one 4000-row chunk)."""
        ds_raw = wide_eval_rows(4000)
        tracemalloc.start()
        try:
            predict(wide_ckpt, ds_raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ds_raw.n < 3072, peak / ds_raw.n

    def test_mixed_width_memory_per_row_is_bounded(self):
        """Traced peak of predict on 4000 rows of widths 12, 6, 12, 6, 12 at
        k = 4, whose grouped tier runs two width records, below 3 KB per row
        (~2.1 KB): what a record keeps for its backward is freed in eval."""
        spec = FeatureGroupSpec([[0, 12], [12, 18], [18, 30], [30, 36], [36, 48]])
        ds = synth_nonlinear(128, spec, 0.1, seed=3)
        ckpt = train(standardize(ds), ModelConfig(groups=spec.groups, max_epochs=1, seed=0))[0]
        ds_raw = synth_nonlinear(4000, spec, 0.1, seed=5)
        tracemalloc.start()
        try:
            predict(ckpt, ds_raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ds_raw.n < 3072, peak / ds_raw.n


@pytest.mark.parametrize("changes", [
    {},
    {"use_variational": False},  # no μ/log σ blocks to join
    {"loss": LossConfig(beta0=0.0)},  # blocks joined, the KL term weighted 0
], ids=["variational", "no_variational", "beta0_zero"])
def test_twelve_feature_validation_in_chunks_equals_one_forward(monkeypatch, changes):
    """On the acceptance config, validating 4536 rows in 1024-row chunks
    gives the history and checkpoint of one 4536-row validation forward."""
    ds = standardize(eval_rows(5040, seed=3))
    cfg = ModelConfig(groups=ACCEPTANCE_GROUPS, max_epochs=2, val_fraction=0.9, seed=0,
                      **changes)
    forward = ScalarModel.forward
    runs = []

    def spy(model, x, mode="train", rng=None):
        if mode == "eval":
            runs[-1].append(len(x))
        return forward(model, x, mode, rng)

    monkeypatch.setattr(ScalarModel, "forward", spy)
    results = []
    for rows in (EVAL_ROWS, 8192):
        monkeypatch.setattr("scalarnet.train.EVAL_ROWS", rows)
        monkeypatch.setattr("scalarnet.train.EVAL_CELLS", rows * 192)
        runs.append([])
        results.append(train(ds, cfg))
    assert runs == [[960, 896, 896, 896, 888] * 2, [4536] * 2]  # two epochs each
    (chunked, chunked_history), (whole, whole_history) = results
    assert chunked_history == whole_history
    assert chunked == whole


def test_train_validation_memory_per_row_is_bounded():
    """train() validates in eval chunks: on 8000 rows of 48 features with
    val_fraction 0.9 (7200 validation rows, 1024-row chunks), one epoch's
    traced peak stays below 3 KB per validation row (~1.9 KB; ~7.9 KB with
    the whole validation set in one forward)."""
    ds = standardize(wide_eval_rows(8000))
    cfg = ModelConfig(groups=WIDE_GROUPS, max_epochs=1, val_fraction=0.9, seed=0)
    tracemalloc.start()
    try:
        train(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 7200 < 3072, peak / 7200


def ref_mlp2(x, net):
    """The two-layer tanh net tanh(x @ w1 + b1) @ w2 + b2 of the Mlp2 net."""
    w1, b1, w2, b2 = net.l1.w.data, net.l1.b.data, net.l2.w.data, net.l2.b.data
    return np.tanh(x @ w1 + b1) @ w2 + b2


def ref_sigmoid(a):
    """The replaced `calibrate` op's stable sigmoid, one branch per sign."""
    c = np.empty_like(a)
    pos = a >= 0
    c[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    c[~pos] = e / (1.0 + e)
    return c


class TestStageOpsOverConfigs:
    """Over the edges of the config space (width-1 groups, k = 1, d = 1,
    p = 3, one-row batches, with and without the variational block, beta0 =
    0) each stage op's forward is bit-equal to the op chain it replaced,
    written out below in numpy, and each config trains or raises ConfigError."""

    @given(widths=st.lists(st.integers(1, 3), min_size=1, max_size=3), k=st.integers(1, 2),
           d=st.integers(1, 2), batch=st.integers(2, 5), use_variational=st.booleans(),
           beta0=st.sampled_from([0.0, 1e-3]), seed=st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_stage_ops_equal_the_op_chain_and_configs_train(self, widths, k, d, batch,
                                                            use_variational, beta0, seed):
        bounds = np.cumsum([0] + widths).tolist()
        groups = [[s, e] for s, e in zip(bounds[:-1], bounds[1:])]
        p = bounds[-1]
        cfg = ModelConfig(groups=groups, k=k, d=d, batch_size=batch, max_epochs=2, seed=seed,
                          use_variational=use_variational, loss=LossConfig(beta0=beta0))
        # n rows whose training part ends in a batch of one row
        n = next(n for n in range(2 * batch + 2, 10 * batch)
                 if (n - max(1, round(n * cfg.val_fraction))) % batch == 1)
        data = np.random.default_rng(seed)
        ds = standardize(Dataset(x=data.normal(size=(n, p)), y=data.normal(size=n),
                                 feature_names=[f"f{j}" for j in range(p)],
                                 spec=FeatureGroupSpec(groups)))
        try:
            model = ScalarModel(cfg, p)
        except ConfigError:  # p < 3 leaves no decreasing head widths
            with pytest.raises(ConfigError):
                train(ds, cfg)
            return
        b = int(data.integers(1, batch + 1))
        z, g, y = data.normal(size=(b, p)), data.normal(size=(b, p)), data.normal(size=b)
        with no_grad():
            zt, gt = Tensor(z), Tensor(g)

        cal = model.cal_params
        t, c = ref_mlp2(z, cal.phi_t), ref_sigmoid(ref_mlp2(z, cal.phi_c))
        delta, gamma = c[:, 0:1] * (0.4 - 0.0) + 0.0, c[:, 1:2] * (1.0 - 0.5) + 0.5
        mask = Rng(seed).bernoulli(1.0 - delta, z.shape)
        s, delta_op, gamma_op = self_calibrate(zt, cal, Rng(seed))
        assert np.array_equal(delta_op, delta) and np.array_equal(gamma_op, gamma)
        assert np.array_equal(s.data, z + gamma * (t * mask) / (1.0 - delta))
        assert np.array_equal(self_calibrate(zt, cal, None)[0].data, z + gamma * t)

        latent = None
        if use_variational:
            var, sv = model.var_params, s.data
            h = np.tanh(sv @ var.phi_e.w.data + var.phi_e.b.data)
            mu = h @ var.phi_mu.w.data + var.phi_mu.b.data
            log_sigma = np.clip(h @ var.phi_sigma.w.data + var.phi_sigma.b.data, -10.0, 10.0)
            draw = mu + Rng(seed).normal(mu.shape) * np.exp(log_sigma)
            v, latent = variational_encode_decode(s, var, Rng(seed))
            assert np.array_equal(latent.data, np.stack([mu, log_sigma]))
            assert np.array_equal(v.data, sv + ref_mlp2(draw, var.phi_d))
            v_eval, _ = variational_encode_decode(s, var, None)
            assert np.array_equal(v_eval.data, sv + ref_mlp2(mu, var.phi_d))

        hp = model.head_params
        logits = ref_mlp2(g, hp.phi_alpha)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        blocks = np.concatenate([alpha[:, i : i + 1] * (g @ w.data)
                                 for i, w in enumerate((hp.w1, hp.w2, hp.w3))], axis=1)
        y_hat, alpha_op = head_forward(gt, hp)
        assert np.array_equal(alpha_op, alpha)
        assert np.array_equal(y_hat.data, ref_mlp2(blocks, hp.phi_y).reshape(-1))

        lc = cfg.loss
        r = y_hat.data - y
        a = np.abs(r)
        q = np.clip(a, 0.0, lc.huber_delta)
        total = (r * r).mean() * lc.omega_mse + (q * a - q * q * 0.5).mean() * (1 - lc.omega_mse)
        if latent is not None and beta0 > 0:
            ls2 = log_sigma * 2.0
            kl = max((mu * mu + np.exp(ls2) - ls2 - 1.0).sum() * (0.5 / b), 0.0)
            total = total + kl * (kl_weight(1, 2, lc.warmup_fraction) * beta0)
        assert composite_loss(y, y_hat, latent, 1, 2, lc)[0].data == total

        _, history = train(ds, cfg)
        assert len(history) == 2 and all(np.isfinite(h["train_loss"]) for h in history)


class TestTierBindings:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_forward_calls_each_tier_through_its_own_name(self, mode, monkeypatch):
        """The benchmark tracer times each attention tier by patching its name
        in scalarnet.model. Both names bind kernel_attention, so a forward that
        called the op directly would read 0 for both tiers' times."""
        calls = {}
        for name in ("grouped_attention_forward", "kernel_attention_forward"):
            def counted(x, records, name=name, op=getattr(model_module, name)):
                calls.setdefault(name, []).append(records)
                return op(x, records)

            monkeypatch.setattr(model_module, name, counted)
        model = ScalarModel(quick_cfg(), 8)
        model.forward(Rng(1).normal((5, 8)), mode, Rng(2))
        assert calls == {"grouped_attention_forward": [model.group_params],
                         "kernel_attention_forward": [[model.global_params]]}


class TestGraphScope:
    def test_eval_forward_builds_no_graph(self):
        """On one width record, and on widths 1, 6, 6, 3, 1 at k = 2, whose
        grouped tier runs three."""
        for cfg, p in ((quick_cfg(), 8),
                       (quick_cfg(groups=[[0, 1], [1, 7], [7, 13], [13, 16], [16, 17]],
                                  k=2), 17)):
            model = ScalarModel(cfg, p)
            y_hat, trace = model.forward(Rng(1).normal((5, p)), "eval")
            for t in (y_hat, trace.latent, trace.z):
                assert t._prev == () and t._backward is None and not t.requires_grad
            total, _ = composite_loss(np.zeros(5), y_hat, trace.latent,
                                      0, 10, cfg.loss)  # the validation loss in train()
            assert total._prev == () and not total.requires_grad

    def test_input_is_constant_and_parameter_gradients_unchanged(self, monkeypatch):
        """Against the graph in which the input needs a gradient too, as every
        leaf did before constants existed: the same parameter gradients, bit
        for bit, and none for the input."""
        cfg = ModelConfig(groups=ACCEPTANCE_GROUPS, k=4, seed=0)
        x, y = Rng(1).normal((32, 12)), Rng(2).normal(32)
        inputs = []
        grouped = model_module.grouped_attention_forward

        def capture(xt, records):
            inputs.append(xt)
            return grouped(xt, records)

        monkeypatch.setattr(model_module, "grouped_attention_forward", capture)

        def parameter_grads():
            model = ScalarModel(cfg, 12)
            y_hat, trace = model.forward(x, "train", Rng(3))
            total, _ = composite_loss(y, y_hat, trace.latent, 0, 10, cfg.loss)
            total.backward()
            return {k: t.grad for k, t in model.named_parameters().items()}

        grads = parameter_grads()
        assert not inputs[-1].requires_grad and inputs[-1].grad is None
        monkeypatch.setattr(model_module, "no_grad", contextlib.nullcontext)
        ref = parameter_grads()
        assert inputs[-1].grad is not None
        assert grads.keys() == ref.keys()
        for k in grads:
            assert np.array_equal(grads[k], ref[k]), k
