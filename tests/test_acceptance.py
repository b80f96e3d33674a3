"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

The heavier criteria (capacity, directional, ablation) train real models and
take a few minutes combined; everything else is sub-second.
"""

import math
import time

import numpy as np
import pytest

from scalarnet.attention import FeatureGroupSpec, KernelAttentionParams, kernel_attention
from scalarnet.baselines import pls_fit, pls_predict, ridge_fit, select_components
from scalarnet.data import split, standardize, synth_nonlinear, take
from scalarnet.head import HeadParams, feature_importance, head_forward
from scalarnet.layers import named_tensors
from scalarnet.losses import concordance_index, kl_weight, loss, metrics
from scalarnet.model import ModelConfig, ScalarModel, bind
from scalarnet.tensor import Rng, Tensor
from scalarnet.train import Checkpoint, gradcheck, predict, train


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {tag}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_gradient_correctness():
    t0 = time.perf_counter()
    errs = [gradcheck(seed=s)["max_rel_error"] for s in (0, 1, 2)]
    elapsed = time.perf_counter() - t0
    ok = max(errs) < 1e-4 and elapsed < 30.0
    report(1, "gradient correctness", ok,
           f"max rel err {max(errs):.2e} over 3 seeds, {elapsed:.1f}s")


def test_02_structural_invariants():
    t0 = time.perf_counter()
    cfg = ModelConfig(groups=[[0, 5], [5, 9], [9, 12]], k=3, seed=4)
    model = ScalarModel(cfg, 12)
    x = Rng(17).normal((8, 12))
    problems = []
    for mode in ("train", "eval"):
        _, trace = model.forward(x, mode, Rng(3))
        for tr in trace.group_traces + [trace.global_trace]:
            norms = np.linalg.norm(tr.k_hat, axis=2)
            if np.abs(norms - 1.0).max() > 1e-10:
                problems.append(f"kernel norm off by {np.abs(norms - 1.0).max():.1e}")
            if np.abs(tr.w.sum(axis=1) - 1.0).max() > 1e-12:
                problems.append("kernel weights not a simplex")
        if np.abs(trace.alpha.sum(axis=1) - 1.0).max() > 1e-12:
            problems.append("alpha not a simplex")
        if trace.delta.min() < 0.0 or trace.delta.max() > 0.4:
            problems.append(f"delta outside [0, 0.4]: {trace.delta}")
        if trace.gamma.min() < 0.5 or trace.gamma.max() > 1.0:
            problems.append(f"gamma outside [0.5, 1.0]: {trace.gamma}")

    # KL nonnegative on random inputs, zero exactly at the origin: the KL
    # term of the loss op on a perfect prediction, mu and log sigma stacked
    def kl_term(mu, log_sigma):
        latent = Tensor(np.stack([mu, log_sigma]))
        return loss(Tensor(np.zeros(6)), np.zeros(6), latent, 1.0, 1.0, 1.0)[3]

    rng = Rng(8)
    kl = kl_term(rng.normal((6, 4)), rng.normal((6, 4)))
    if kl < 0.0:
        problems.append("KL negative")
    kl0 = kl_term(np.zeros((6, 4)), np.zeros((6, 4)))
    if kl0 != 0.0:
        problems.append("KL nonzero at origin")

    # with every residual branch zeroed the eval-mode representation entering
    # the head equals the input bit for bit
    fresh = ScalarModel(ModelConfig(groups=[[0, 5], [5, 9], [9, 12]], seed=0), 12)
    for name, t in fresh.named_parameters().items():
        if name.startswith(("cal.phi_t", "var.phi_d")) or ".phi_p." in name:
            t.data[...] = 0.0
    _, tr0 = fresh.forward(x, "eval")
    if not np.array_equal(tr0.z.data, x):
        problems.append("residual identity broken at zero residual branches")
    elapsed = time.perf_counter() - t0
    report(2, "structural invariants", not problems and elapsed < 10.0,
           "; ".join(problems) or f"{elapsed:.1f}s")


def laid_out(record):
    """`record`, laid out alone in fresh buffers as a model lays out its own."""
    bind([record])
    return record


def _attention_loop(x, params):
    """The one-group record `params` on x, one scalar at a time."""
    b, p = x.shape
    k = params.phi_w.l2.b.data.shape[-1]

    def affine(v, layer):
        w, bias = layer.w.data[0], layer.b.data[0]
        return [bias[j] + sum(v[i] * w[i, j] for i in range(len(v)))
                for j in range(w.shape[1])]

    def mlp2(v, net):
        return affine([math.tanh(t) for t in affine(v, net.l1)], net.l2)

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
        w = [t / sum(exps) for t in exps]
        a = [sum(w[j] * xi[f] * k_hat[j][f] for j in range(k)) for f in range(p)]
        proj = affine(a, params.phi_p)
        for f in range(p):
            z[i, f] = proj[f] + xi[f]
    return z


def _head_loop(g, params):
    b, p = g.shape

    def affine(v, layer):
        w, bias = layer.w.data, layer.b.data
        return [bias[j] + sum(v[i] * w[i, j] for i in range(len(v)))
                for j in range(w.shape[1])]

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
            blocks.extend(
                alpha[a_idx] * sum(gi[r] * wj[r, c] for r in range(p))
                for c in range(wj.shape[1])
            )
        out[i] = mlp2(blocks, params.phi_y)[0]
    return out


def test_03_loop_oracle_equivalence():
    rng = Rng(21)
    (att,) = KernelAttentionParams.init(rng, [(0, 4)], 2)
    for t in named_tensors(att.phi_p, "p").values():  # randomize the zero-init layer
        t.data = rng.normal(t.data.shape) * 0.3
    x = rng.normal((3, 4))
    att_err = np.abs(
        kernel_attention(Tensor(x), [laid_out(att)])[0].data - _attention_loop(x, att)
    ).max()

    head = laid_out(HeadParams.init(rng, 8, (4, 3, 2)))
    g = rng.normal((5, 8))
    y_vec, _ = head_forward(Tensor(g), head)
    head_err = np.abs(y_vec.data - _head_loop(g, head)).max()
    ok = att_err < 1e-10 and head_err < 1e-10
    report(3, "loop-oracle equivalence", ok,
           f"attention {att_err:.1e}, head {head_err:.1e}")


def test_04_metric_oracles():
    def ci_brute(y, y_hat):
        num, den = 0.0, 0
        for i in range(len(y)):
            for j in range(len(y)):
                if y[i] > y[j]:
                    den += 1
                    num += 1.0 if y_hat[i] > y_hat[j] else (
                        0.5 if y_hat[i] == y_hat[j] else 0.0)
        return num / den

    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 8, n).astype(float)
        if (y == y[0]).all():
            y[0] += 1.0
        y_hat = np.round(rng.normal(size=n), 1)
        if concordance_index(y, y_hat) != ci_brute(y, y_hat):
            mismatches += 1
    m = metrics([1, 2, 3], [1, 2, 4])
    hand_ok = (m["r2"] == 0.5 and m["mse"] == pytest.approx(1 / 3, abs=1e-15)
               and m["mae"] == pytest.approx(1 / 3, abs=1e-15))
    report(4, "metric oracles", mismatches == 0 and hand_ok,
           f"{mismatches}/100 CI mismatches, hand R2 {m['r2']}")


def test_05_baseline_correctness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(5):
        x = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        for a in (1, 2, 3):
            got = pls_predict(pls_fit(x, y, a), x)

            # SVD-route PLS1 oracle
            xm, xs = x.mean(0), x.std(0)
            e, f = (x - xm) / xs, y - y.mean()
            ws, ps, qs = [], [], []
            for _ in range(a):
                u_svd, _, _ = np.linalg.svd((e.T @ f)[:, None], full_matrices=False)
                w = u_svd[:, 0]
                t = e @ w
                p_load = e.T @ t / (t @ t)
                q = (t @ f) / (t @ t)
                e = e - np.outer(t, p_load)
                f = f - q * t
                ws.append(w); ps.append(p_load); qs.append(q)
            coef = np.column_stack(ws) @ np.linalg.inv(
                np.column_stack(ps).T @ np.column_stack(ws)) @ np.asarray(qs)
            oracle = ((x - xm) / xs) @ coef + y.mean()
            worst = max(worst, np.abs(got - oracle).max())

    x1 = rng.normal(size=(30, 1))
    y1 = 2.0 * x1[:, 0] + rng.normal(size=30) * 0.1
    slope, intercept = np.polyfit(x1[:, 0], y1, 1)
    ls_err = np.abs(pls_predict(pls_fit(x1, y1, 1), x1)
                    - (slope * x1[:, 0] + intercept)).max()

    xr = rng.normal(size=(20, 3))
    yr = rng.normal(size=20)
    w_ols, *_ = np.linalg.lstsq(xr - xr.mean(0), yr - yr.mean(), rcond=None)
    ols_err = np.abs(ridge_fit(xr, yr, 0.0).weights - w_ols).max()
    ok = worst < 1e-6 and ls_err < 1e-8 and ols_err < 1e-10
    report(5, "baseline correctness", ok,
           f"svd {worst:.1e}, ls {ls_err:.1e}, ols {ols_err:.1e}")


def test_06_capacity():
    # pure capacity question, so no validation carve-out and no early stop:
    # run the optimizer directly over all 64 rows and score the final model
    from scalarnet.data import destandardize_predictions
    from scalarnet.losses import LossConfig
    from scalarnet.train import Adam, train_step

    t0 = time.perf_counter()
    spec = FeatureGroupSpec([(0, 4), (4, 8)])
    ds_raw = synth_nonlinear(64, spec, 0.05, seed=2)
    ds = standardize(ds_raw)
    cfg = ModelConfig(
        groups=[[0, 4], [4, 8]],
        learning_rate=3e-3,
        batch_size=16,
        max_epochs=500,
        seed=0,
        loss=LossConfig(beta0=0.0),
    )
    model = ScalarModel(cfg, 8)
    opt = Adam(model, cfg.learning_rate)
    noise = Rng(cfg.seed + 1)
    order = np.random.default_rng(cfg.seed + 2)
    for epoch in range(cfg.max_epochs):
        perm = order.permutation(ds.n)
        for b0 in range(0, ds.n, cfg.batch_size):
            idx = perm[b0 : b0 + cfg.batch_size]
            train_step(model, opt, ds.x[idx], ds.y[idx], epoch, noise)
    y_hat, _ = model.forward(ds.x, "eval")
    r2 = metrics(ds_raw.y, destandardize_predictions(y_hat.data, ds.scaler))["r2"]
    elapsed = time.perf_counter() - t0
    report(6, "capacity (train R2 > 0.99)", r2 > 0.99 and elapsed < 120.0,
           f"R2 {r2:.4f}, {elapsed:.0f}s")


BENCH_SPEC = FeatureGroupSpec([(0, 6), (6, 12)])
BENCH_GROUPS = [[0, 6], [6, 12]]


def bench_cfg(seed, **kw):
    base = dict(
        groups=BENCH_GROUPS,
        learning_rate=3e-3,
        batch_size=32,
        max_epochs=300,
        patience=40,
        seed=seed,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_07_directional_vs_pls():
    t0 = time.perf_counter()
    ds = synth_nonlinear(1000, BENCH_SPEC, 0.1, seed=7)
    plan = split(ds, 0.2, seed=0)
    tr_raw, te_raw = take(ds, plan.train), take(ds, plan.test)

    n_comp = select_components(tr_raw.x, tr_raw.y, seed=0)
    pls_r2 = metrics(te_raw.y, pls_predict(pls_fit(tr_raw.x, tr_raw.y, n_comp),
                                           te_raw.x))["r2"]

    tr_std = standardize(tr_raw)
    r2s = []
    for seed in range(5):
        ckpt, _ = train(tr_std, bench_cfg(seed))
        r2s.append(metrics(te_raw.y, predict(ckpt, te_raw))["r2"])
    med = float(np.median(r2s))
    elapsed = time.perf_counter() - t0
    ok = med >= pls_r2 + 0.05 and elapsed < 900.0
    report(7, "directional superiority over PLS", ok,
           f"median R2 {med:.3f} vs PLS {pls_r2:.3f} ({n_comp} comps), {elapsed:.0f}s")


def test_08_variational_ablation():
    from scalarnet.train import ablation_data_fraction

    ds = synth_nonlinear(1000, BENCH_SPEC, 0.1, seed=7)
    lo_var, lo_abl, hi_var, hi_abl = [], [], [], []
    for seed in range(5):
        row_lo = ablation_data_fraction(ds, bench_cfg(seed, batch_size=16), [0.1])[0]
        row_hi = ablation_data_fraction(ds, bench_cfg(seed), [1.0])[0]
        lo_var.append(row_lo["r2_variational"])
        lo_abl.append(row_lo["r2_ablated"])
        hi_var.append(row_hi["r2_variational"])
        hi_abl.append(row_hi["r2_ablated"])
    lo_gap = float(np.median(lo_var) - np.median(lo_abl))
    hi_gap = float(np.median(hi_var) - np.median(hi_abl))
    ok = lo_gap >= 0.0 and abs(hi_gap) <= 0.05
    report(8, "variational ablation direction", ok,
           f"10% gap {lo_gap:+.3f} (need >= 0), 100% gap {hi_gap:+.3f} (|.| <= 0.05)")


def test_09_kl_warmup_schedule():
    ok = (kl_weight(5, 100) == 0.5
          and all(kl_weight(e, 100) == 1.0 for e in range(10, 101))
          and kl_weight(0, 100) == 0.0)
    report(9, "KL warmup schedule", ok,
           f"w(5)={kl_weight(5, 100)}, w(10)={kl_weight(10, 100)}")


def test_10_determinism_and_persistence(tmp_path):
    ds_raw = synth_nonlinear(80, FeatureGroupSpec([(0, 4), (4, 8)]), 0.1, seed=3)
    ds = standardize(ds_raw)
    cfg = ModelConfig(groups=[[0, 4], [4, 8]], max_epochs=12, batch_size=16, seed=1)
    ck1, h1 = train(ds, cfg)
    ck2, h2 = train(ds, cfg)
    identical = h1 == h2 and ck1.params == ck2.params

    path = tmp_path / "ck.json"
    ck1.save(path)
    roundtrip = np.array_equal(predict(ck1, ds_raw),
                               predict(Checkpoint.load(path), ds_raw))
    report(10, "determinism and persistence", identical and roundtrip,
           f"history identical: {identical}, roundtrip bit-exact: {roundtrip}")


def test_11_importance_contract():
    rng = Rng(9)
    b, k, p = 12, 3, 7
    logits = rng.normal((b, k))
    w = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    k_hat = rng.normal((b, k, p))
    raw, normalized = feature_importance([(k_hat, w)])

    loop = np.zeros(p)
    for j in range(p):
        acc = 0.0
        for i in range(b):
            acc += abs(sum(w[i, l] * k_hat[i, l, j] for l in range(k)))
        loop[j] = acc / b
    lo = loop.min()
    loop_norm = (loop - lo) / (loop.max() - lo)
    oracle_err = np.abs(normalized - loop_norm).max()

    _, dup = feature_importance([(np.concatenate([k_hat, k_hat]),
                                 np.concatenate([w, w]))])
    dup_err = np.abs(dup - normalized).max()
    ok = (normalized.min() == 0.0 and normalized.max() == 1.0
          and np.all((normalized >= 0) & (normalized <= 1))
          and dup_err < 1e-12 and oracle_err < 1e-12)
    report(11, "importance contract", ok,
           f"range [{normalized.min()}, {normalized.max()}], "
           f"dup {dup_err:.1e}, oracle {oracle_err:.1e}")
