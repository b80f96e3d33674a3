import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalarnet.errors import ConfigError, DataError
from scalarnet.losses import (
    LossConfig,
    binwise_rmse,
    composite_loss,
    concordance_index,
    huber,
    kl_weight,
    metrics,
)
from scalarnet.tensor import Tensor


class TestHuber:
    def test_quadratic_branch(self):
        out = huber(Tensor(np.array([0.5])), delta=1.0)
        assert out.data.item() == pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        out = huber(Tensor(np.array([2.0])), delta=1.0)
        assert out.data.item() == pytest.approx(1.5, abs=1e-15)

    @given(st.floats(-10, 10), st.floats(0.1, 5))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_half_square(self, r, delta):
        h = huber(Tensor(np.array([r])), delta).data.item()
        assert h <= 0.5 * r * r + 1e-12
        if abs(r) <= delta:
            assert h == pytest.approx(0.5 * r * r, abs=1e-12)


class TestKlWeight:
    def test_schedule_values(self):
        assert kl_weight(5, 100) == pytest.approx(0.5)
        assert kl_weight(10, 100) == 1.0
        assert kl_weight(73, 100) == 1.0
        assert kl_weight(0, 100) == 0.0

    def test_nondecreasing_and_saturating(self):
        ws = [kl_weight(e, 200) for e in range(201)]
        assert all(b >= a for a, b in zip(ws, ws[1:]))
        assert all(w == 1.0 for e, w in enumerate(ws) if e >= 20)


class TestCompositeLoss:
    def test_pure_mse_config(self):
        cfg = LossConfig(omega_mse=1.0, beta0=0.0)
        y = np.array([1.0, 2.0, 3.0])
        y_hat = Tensor(np.array([1.5, 2.0, 2.0]))
        total, parts = composite_loss(y, y_hat, None, None, 0, 100, cfg)
        expected = float(((y_hat.data - y) ** 2).mean())
        assert float(total.data) == pytest.approx(expected, abs=1e-15)
        assert parts["kl"] == 0.0

    def test_kl_weighted_in(self):
        cfg = LossConfig(omega_mse=1.0, beta0=2.0)
        y = np.zeros(2)
        y_hat = Tensor(np.zeros(2))
        mu = Tensor(np.array([[1.0], [1.0]]))
        ls = Tensor(np.zeros((2, 1)))
        total, parts = composite_loss(y, y_hat, mu, ls, 5, 100, cfg)
        # kl = 0.5 per sample, weight 0.5, beta0 2.0
        assert float(total.data) == pytest.approx(0.5 * 2.0 * 0.5, abs=1e-15)
        assert parts["kl_weight"] == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            composite_loss(
                np.zeros(3), Tensor(np.zeros(2)), None, None, 0, 10, LossConfig()
            )


class TestMetrics:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 4.0])
        m = metrics(y, y)
        assert m["rmse"] == 0.0 and m["mae"] == 0.0 and m["r2"] == 1.0

    def test_mean_predictor_r2_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        m = metrics(y, np.full(4, y.mean()))
        assert m["r2"] == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_example(self):
        m = metrics([1, 2, 3], [1, 2, 4])
        assert m["mse"] == pytest.approx(1 / 3, abs=1e-15)
        assert m["rmse"] == pytest.approx(0.5774, abs=1e-4)
        assert m["mae"] == pytest.approx(1 / 3, abs=1e-15)
        assert m["r2"] == pytest.approx(0.5, abs=1e-15)

    def test_constant_target_errors(self):
        with pytest.raises(DataError, match="zero variance"):
            metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def ci_oracle(y, y_hat):
    """Independent brute-force pair enumeration."""
    num, den = 0.0, 0
    n = len(y)
    for i in range(n):
        for j in range(n):
            if y[i] > y[j]:
                den += 1
                if y_hat[i] > y_hat[j]:
                    num += 1.0
                elif y_hat[i] == y_hat[j]:
                    num += 0.5
    return num / den


class TestConcordanceIndex:
    def test_perfect_ranking(self):
        assert concordance_index([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_ranking(self):
        assert concordance_index([1, 2, 3, 4], [4, 3, 2, 1]) == 0.0

    def test_hand_example(self):
        assert concordance_index([1, 2, 3], [1, 3, 2]) == pytest.approx(2 / 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            y = rng.integers(0, 10, n).astype(float)  # force ties in y
            y_hat = np.round(rng.normal(size=n), 1)  # and occasionally in y_hat
            if (y == y[0]).all():
                continue
            assert concordance_index(y, y_hat) == pytest.approx(
                ci_oracle(y, y_hat), abs=1e-14
            )

    def test_antisymmetry_without_ties(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=20)
        y_hat = rng.normal(size=20)
        assert concordance_index(y, y_hat) + concordance_index(y, -y_hat) == pytest.approx(1.0)

    def test_all_equal_targets_error(self):
        with pytest.raises(DataError, match="comparable"):
            concordance_index([1.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_error(self, bad):
        with pytest.raises(DataError, match="finite"):
            concordance_index([1.0, 2.0, 3.0], [bad, 1.0, 2.0])
        with pytest.raises(DataError, match="finite"):
            concordance_index([1.0, bad, 3.0], [0.0, 1.0, 2.0])

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_equals_oracle_under_heavy_ties(self, pairs):
        y, y_hat = (np.array(v, dtype=float) for v in zip(*pairs))
        if (y == y[0]).all():
            with pytest.raises(DataError, match="comparable"):
                concordance_index(y, y_hat)
        else:
            assert concordance_index(y, y_hat) == ci_oracle(y, y_hat)

    def test_equals_numpy_brute_force_n2000(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 200, 2000).astype(float)
        y_hat = np.round(y + rng.normal(scale=30.0, size=2000))
        dy, dp = y[:, None] - y[None, :], y_hat[:, None] - y_hat[None, :]
        score = ((dp > 0) + 0.5 * (dp == 0))[dy > 0]
        assert concordance_index(y, y_hat) == score.sum() / score.size

    def test_100k_rows_in_bounded_memory(self):
        y = np.random.default_rng(4).normal(size=100_000)
        tracemalloc.start()
        try:
            values = [concordance_index(y, y_hat) for y_hat in (y, -y, np.zeros_like(y))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values == [1.0, 0.0, 0.5]
        assert peak <= 32 * 2**20  # an n x n float64 array would be 80 GB


class TestBinwiseRmse:
    def test_single_bin_equals_global(self):
        y = np.array([0.0, 1.0, 2.0, 5.0])
        y_hat = y + np.array([1.0, -1.0, 0.5, 0.0])
        bins = binwise_rmse(y, y_hat, 1)
        assert len(bins) == 1
        assert bins[0]["rmse"] == pytest.approx(metrics(y, y_hat)["rmse"])
        assert bins[0]["count"] == 4

    def test_empty_bins_no_nan(self):
        y = np.array([0.0, 0.1, 0.2, 10.0])
        bins = binwise_rmse(y, y, 5)
        empty = [b for b in bins if b["count"] == 0]
        assert empty and all(b["rmse"] is None for b in empty)

    def test_constant_offset(self):
        y = np.linspace(0, 10, 200)
        bins = binwise_rmse(y, y + 1.0, 5)
        assert sum(b["count"] for b in bins) == 200
        for b in bins:
            assert b["rmse"] == pytest.approx(1.0, abs=1e-12)
