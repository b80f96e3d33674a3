import json
import math
import struct
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalarnet.attention import FeatureGroupSpec
from scalarnet.baselines import pls_fit, pls_predict, ridge_fit, ridge_predict, select_components
from scalarnet.data import (
    Dataset,
    destandardize_predictions,
    load_csv,
    split,
    standardize,
    synth_nonlinear,
    take,
    write_csv,
)
from scalarnet.errors import ConfigError, DataError
from scalarnet.losses import metrics


def write(path, text):
    path.write_text(text, encoding="utf-8")


def load_text(tmp_path, text):
    """`text` written as d.csv beside a one-group groups file, then loaded
    with target y."""
    write(tmp_path / "d.csv", text)
    write(tmp_path / "g.json", "[[0, 2]]")
    return load_csv(tmp_path / "d.csv", "y", tmp_path / "g.json")


# the text each malformed file's DataError carries after "<path>: "
BAD_FILES = {
    "empty": ("", "empty file"),
    "header_only": ("a,b,y\n", "no data rows"),
    "missing_target": ("a,b,c\n1,2,3\n", "no column named 'y'"),
    "short_row": ("a,b,y\n1,2,3\n4,5\n", "row 3 has 2 cells, expected 3"),
    "long_row": ("a,b,y\n1,2,3\n4,5,6\n7,8,9,10\n", "row 4 has 4 cells, expected 3"),
    "every_row_short": ("a,b,y\n1,2\n3,4\n", "row 2 has 2 cells, expected 3"),
    "bad_cell_quoted": ('a,b,y\n1,2,3\n4,"oops",6\n', "non-numeric cell at row 3, column 'b'"),
    "bad_cell_after_bom": ("\ufeffa,b,y\nx,2,3\n", "non-numeric cell at row 2, column 'a'"),
    "empty_cell": ("a,b,y\n1,,3\n", "non-numeric cell at row 2, column 'b'"),
    "nan": ("a,b,y\n1,2,3\n4,nan,6\n", "non-finite values present"),
    "overflow": ("a,b,y\n1,2,1e400\n", "non-finite values present"),
}

GOOD_FILES = {
    "quoted_cells": ('a,"b",y\n"1","-2.5e1",3\n4,5,"6"\n', [[1, -25], [4, 5]], [3, 6]),
    "crlf": ("a,b,y\r\n1,2,3\r\n4,5,6\r\n", [[1, 2], [4, 5]], [3, 6]),
    "cr_only": ("a,b,y\r1,2,3\r4,5,6\r", [[1, 2], [4, 5]], [3, 6]),
    "single_row": ("a,b,y\n1,2,3", [[1, 2]], [3]),
    "spaces_around_cells": ("a,b,y\n 1 ,2, 3\n", [[1, 2]], [3]),
}


def bits_of(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


FINITE_FLOAT64 = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(0, 2**64 - 1)
    .map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
    .filter(math.isfinite),
)


class TestLoadCsv:
    def test_minimal_file(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        groups_path = tmp_path / "g.json"
        write(csv_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        write(groups_path, "[[0, 2]]")
        ds = load_csv(csv_path, "y", groups_path)
        assert ds.n == 3 and ds.p == 2
        assert ds.spec.n_groups == 1
        np.testing.assert_array_equal(ds.y, [3, 6, 9])
        assert ds.feature_names == ["a", "b"]

    def test_missing_groups_file_defaults_to_one_group(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        write(csv_path, "a,b,y\n1,2,3\n")
        ds = load_csv(csv_path, "y")
        assert ds.spec.groups == ((0, 2),)

    def test_gap_in_groups_rejected(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        groups_path = tmp_path / "g.json"
        write(csv_path, "a,b,c,y\n1,2,3,4\n")
        write(groups_path, "[[0, 1], [2, 3]]")
        with pytest.raises(ConfigError):
            load_csv(csv_path, "y", groups_path)

    def test_non_numeric_cell_located(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        write(csv_path, "a,b,y\n1,2,3\n1,oops,3\n")
        with pytest.raises(DataError, match="row 3.*'b'"):
            load_csv(csv_path, "y")

    def test_missing_target(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        write(csv_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="no column"):
            load_csv(csv_path, "target")

    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_malformed_file_error_text(self, tmp_path, case):
        text, message = BAD_FILES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" too
            with pytest.raises(DataError) as exc:
                load_text(tmp_path, text)
        assert str(exc.value) == f"{tmp_path / 'd.csv'}: {message}"

    @pytest.mark.parametrize("case", sorted(GOOD_FILES))
    def test_well_formed_file_values(self, tmp_path, case):
        text, x, y = GOOD_FILES[case]
        ds = load_text(tmp_path, text)
        assert ds.feature_names == ["a", "b"]
        assert ds.x.dtype == ds.y.dtype == np.float64
        np.testing.assert_array_equal(ds.x, x)
        np.testing.assert_array_equal(ds.y, y)

    @pytest.mark.parametrize("header", ["y,a,b", "a,y,b", "a,b,y"])
    def test_x_and_y_own_their_memory(self, tmp_path, header):
        ds = load_text(tmp_path, header + "\n1,2,3\n4,5,6\n")
        assert ds.x.flags.owndata and ds.y.flags.owndata
        assert ds.x.flags.c_contiguous and ds.y.flags.c_contiguous

    def test_blank_lines_skipped(self, tmp_path):
        ds = load_text(tmp_path, "a,b,y\n\n1,2,3\r\n\r\n4,5,6\n\n")
        np.testing.assert_array_equal(ds.x, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(ds.y, [3, 6])

    def test_row_numbers_count_blank_lines(self, tmp_path):
        with pytest.raises(DataError, match="row 4 has 2 cells"):
            load_text(tmp_path, "a,b,y\n1,2,3\n\n4,5\n")

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661", 1.0)])  # ARABIC-INDIC ONE
    def test_numbers_only_python_reads_rejected(self, tmp_path, cell, value):
        assert float(cell) == value
        with pytest.raises(DataError, match=f"could not convert string '{cell}'"):
            load_text(tmp_path, f"a,b,y\n1,2,3\n1,{cell},3\n")

    @pytest.mark.parametrize("cell", ["1_0", "\u0661"])
    def test_numbers_only_python_reads_named_by_file_row(self, tmp_path, cell):
        # numpy's own message would say row 1, column 2: it counts data rows
        # from 0 and leaves blank lines out
        with pytest.raises(DataError, match=f"could not convert string '{cell}' "
                                            f"to float64 at row 4, column 'b'$"):
            load_text(tmp_path, f"a,b,y\n1,2,3\n\n1,{cell},3\n")

    @given(values=st.lists(FINITE_FLOAT64, min_size=1, max_size=12),
           fmt=st.sampled_from([repr, "%.17g".__mod__, "%.6e".__mod__]))
    @settings(max_examples=100, deadline=None)
    def test_cells_read_as_float_bit_for_bit(self, values, fmt):
        cells = [fmt(v) for v in values]
        with tempfile.TemporaryDirectory() as tmp:
            ds = load_text(Path(tmp), "a,b,y\n" + "".join(
                f"{c},{c},{c}\n" for c in cells))
        expected = [bits_of(float(c)) for c in cells]
        for column in (ds.x[:, 0], ds.x[:, 1], ds.y):
            assert [bits_of(v) for v in column.tolist()] == expected

    @pytest.mark.parametrize("header", ["y,a,b", "a,y,b"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        # Excel's "CSV UTF-8" and PowerShell's Out-File begin the file with a BOM
        csv_path = tmp_path / "d.csv"
        groups_path = tmp_path / "g.json"
        write(csv_path, "\ufeff" + header + "\n3,1,2\n6,4,5\n")
        write(groups_path, "\ufeff[[0, 2]]")
        ds = load_csv(csv_path, "y", groups_path)
        assert ds.feature_names == [c for c in header.split(",") if c != "y"]
        assert ds.x.shape == (2, 2) and ds.spec.groups == ((0, 2),)

    def test_roundtrip_value_identical(self, tmp_path):
        spec = FeatureGroupSpec([(0, 2), (2, 5)])
        ds = synth_nonlinear(20, spec, 0.3, seed=3)
        out = tmp_path / "rt.csv"
        write_csv(ds, out)
        back = load_csv(out, "y")
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)


class TestWriteCsv:
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
    def test_bytes_are_each_rows_reprs(self, tmp_path, n):
        """Each row is its values' reprs joined by commas and ended by CRLF,
        across the 1024-row blocks, for signed zeros, subnormals and huge
        values too."""
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
        y = rng.normal(size=n)
        x.flat[:3] = -0.0, 5e-324, 1e300
        y[-1] = -1e300
        write_csv(Dataset(x=x, y=y, feature_names=["a", "b", "c"],
                          spec=FeatureGroupSpec([(0, 3)])), tmp_path / "d.csv")
        expected = "a,b,c,y\r\n" + "".join(
            ",".join(map(repr, row)) + "\r\n" for row in np.column_stack([x, y]).tolist())
        assert (tmp_path / "d.csv").read_bytes() == expected.encode("utf-8")

    def test_memory_per_row_is_bounded(self, tmp_path):
        """Traced peak below 128 B per row on 20k rows of 12 features (~31 B:
        one 1024-row block of float objects); a float list of the whole table
        costs ~580 B per row."""
        ds = synth_nonlinear(20_000, FeatureGroupSpec([(0, 6), (6, 12)]), 0.1, seed=0)
        tracemalloc.start()
        try:
            write_csv(ds, tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ds.n < 128, peak / ds.n


class TestStandardize:
    def test_hand_computed_column(self):
        ds = Dataset(
            x=np.array([[1.0], [2.0], [3.0]]),
            y=np.array([0.0, 1.0, 2.0]),
            feature_names=["a"],
            spec=FeatureGroupSpec([(0, 1)]),
        )
        out = standardize(ds)
        assert out.scaler.x_mean[0] == pytest.approx(2.0)
        assert out.scaler.x_std[0] == pytest.approx(0.8165, abs=1e-4)
        np.testing.assert_allclose(out.x[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_column_no_division_by_zero(self):
        ds = Dataset(
            x=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
            y=np.array([1.0, 2.0, 3.0]),
            feature_names=["a", "b"],
            spec=FeatureGroupSpec([(0, 2)]),
        )
        out = standardize(ds)
        np.testing.assert_array_equal(out.x[:, 0], 0.0)
        assert out.scaler.x_std[0] == 1.0

    def test_y_roundtrip(self):
        spec = FeatureGroupSpec([(0, 2), (2, 4)])
        ds = synth_nonlinear(50, spec, 0.2, seed=1)
        std = standardize(ds)
        back = destandardize_predictions(std.y, std.scaler)
        np.testing.assert_allclose(back, ds.y, atol=1e-12)

    def test_standardized_moments(self):
        spec = FeatureGroupSpec([(0, 3), (3, 6)])
        ds = standardize(synth_nonlinear(100, spec, 0.1, seed=2))
        np.testing.assert_allclose(ds.x.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(ds.x.std(axis=0), 1.0, atol=1e-10)


class TestSynth:
    def test_deterministic(self):
        spec = FeatureGroupSpec([(0, 3), (3, 6)])
        a = synth_nonlinear(30, spec, 0.0, seed=9)
        b = synth_nonlinear(30, spec, 0.0, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_no_signal_case(self):
        spec = FeatureGroupSpec([(0, 3), (3, 6)])
        # noise is the last draw, so the same draw without noise leaves only it
        ds = synth_nonlinear(300, spec, 1.0, seed=4)
        ds = replace(ds, y=ds.y - synth_nonlinear(300, spec, 0.0, seed=4).y)
        plan = split(ds, 0.3, seed=0)
        tr, te = take(ds, plan.train), take(ds, plan.test)
        model = ridge_fit(tr.x, tr.y, 1.0)
        r2 = metrics(te.y, ridge_predict(model, te.x))["r2"]
        assert abs(r2) < 0.15

    def test_needs_two_groups(self):
        with pytest.raises(ConfigError):
            synth_nonlinear(10, FeatureGroupSpec([(0, 4)]), 0.1, seed=0)

    def test_linear_pls_has_headroom(self):
        # linear PLS must be clearly suboptimal vs a regression on the true
        # nonlinear features
        spec = FeatureGroupSpec([(0, 6), (6, 12)])
        ds = synth_nonlinear(400, spec, 0.05, seed=11)
        plan = split(ds, 0.25, seed=1)
        tr, te = take(ds, plan.train), take(ds, plan.test)
        n = select_components(tr.x, tr.y, seed=0)
        pls_r2 = metrics(te.y, pls_predict(pls_fit(tr.x, tr.y, n), te.x))["r2"]
        assert pls_r2 < 0.75

        # oracle: rebuild the generating features from the seeded stream
        from scalarnet.tensor import Rng

        rng = Rng(11)
        _ = rng.normal((400, 12))
        feats = []
        for s, e in spec.groups:
            b = rng.normal(e - s)
            b *= 1.5 / np.linalg.norm(b)
            rng.uniform()
            feats.append(np.tanh(ds.x[:, s:e] @ b))
        u = rng.normal(6)
        u /= np.linalg.norm(u)
        v = rng.normal(6)
        v /= np.linalg.norm(v)
        feats.append((ds.x[:, 0:6] @ u) * (ds.x[:, 6:12] @ v))
        f = np.column_stack(feats)
        model = ridge_fit(f[plan.train], tr.y, 1e-8)
        oracle_r2 = metrics(te.y, ridge_predict(model, f[plan.test]))["r2"]
        assert oracle_r2 > 0.95


class TestSplit:
    def test_exact_counts(self):
        spec = FeatureGroupSpec([(0, 2), (2, 4)])
        ds = synth_nonlinear(10, spec, 0.1, seed=0)
        plan = split(ds, 0.2, seed=5)
        assert len(plan.train) == 8 and len(plan.test) == 2

    def test_deterministic(self):
        spec = FeatureGroupSpec([(0, 2), (2, 4)])
        ds = synth_nonlinear(50, spec, 0.1, seed=0)
        a = split(ds, 0.3, seed=7)
        b = split(ds, 0.3, seed=7)
        assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)

    def test_partition_of_all_rows(self):
        spec = FeatureGroupSpec([(0, 2), (2, 4)])
        ds = synth_nonlinear(33, spec, 0.1, seed=0)
        plan = split(ds, 0.25, seed=3)
        joined = np.sort(np.concatenate([plan.train, plan.test]))
        assert np.array_equal(joined, np.arange(33))
