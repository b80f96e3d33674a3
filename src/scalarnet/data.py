"""Dataset ingestion, standardization, synthetic benchmark generation, and
the seeded train/test split.

CSV files carry a header row and numeric cells only; the feature-group file
is JSON listing half-open [start, end) column intervals.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attention import FeatureGroupSpec
from .errors import ConfigError, DataError, check_cells
from .tensor import Rng

CSV_BLOCK_ROWS = 1024  # rows write_csv formats at a time


@dataclass
class Scaler:
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float


@dataclass
class Dataset:
    x: np.ndarray  # (n, p)
    y: np.ndarray  # (n,)
    feature_names: list
    spec: FeatureGroupSpec
    scaler: Scaler = None  # set once standardized

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass
class SplitPlan:
    train: np.ndarray
    test: np.ndarray


@contextlib.contextmanager
def open_text(path, error):
    """`path` opened as UTF-8 text past any BOM; non-UTF-8 bytes raise `error` naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path, error):
    """The value in the JSON file `path`, read by `open_text`; a file that is
    not JSON, nests too deeply or holds an integer too long for Python to
    parse raises `error` naming it."""
    with open_text(path, error) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{path}: not readable as JSON ({exc})") from None


def load_groups(path) -> FeatureGroupSpec:
    return FeatureGroupSpec(read_json(path, ConfigError))


def load_csv(path, target_column: str, groups_path=None) -> Dataset:
    """Read a numeric CSV with a header row; the target column is removed
    from X. Without a groups file a single group [0, p) is assumed.

    The body is parsed in one `np.loadtxt` pass, which skips blank lines and
    reads quoted cells. Its cells are converted by the parser `float()` uses,
    but only ASCII decimal and exponent notation is accepted. The file is read
    again row by row only when that pass fails, to name the bad row or cell."""
    path = Path(path)
    with open_text(path, DataError) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if target_column not in header:
            raise DataError(f"{path}: no column named {target_column!r}")
        # loadtxt warns on a body without data, so look for a line first
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            raise DataError(f"{path}: no data rows")
        try:
            mat = np.loadtxt(itertools.chain([first], fh), dtype=np.float64,
                             delimiter=",", quotechar='"', comments=None, ndmin=2)
            problem = (None if mat.shape[1] == len(header)
                       else f"rows of {mat.shape[1]} cells, expected {len(header)}")
        except UnicodeDecodeError:
            raise  # open_text names the file
        except ValueError as exc:
            problem = str(exc)
    if problem is not None:
        _raise_bad_row(path, header, problem)
    if not np.all(np.isfinite(mat)):
        raise DataError(f"{path}: non-finite values present")
    t_idx = header.index(target_column)
    y = mat[:, t_idx].copy()  # a view would keep all of mat alive
    x = np.delete(mat, t_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != t_idx]
    p = x.shape[1]
    if groups_path is None:
        spec = FeatureGroupSpec([(0, p)])
    else:
        spec = load_groups(groups_path)
        spec.validate_width(p)
    return Dataset(x=x, y=y, feature_names=names, spec=spec)


def _raise_bad_row(path, header, problem: str) -> None:
    """Read `path` again with `csv.reader` and raise a DataError naming its
    first row whose width is not the header's, or its first cell that is not
    an ASCII number, by file row (the header is row 1) and column name; or
    else `problem`, what `load_csv`'s parse found. Blank rows are skipped, as
    `np.loadtxt` skips them, but counted."""
    with open_text(path, DataError) as fh:
        reader = csv.reader(fh)
        next(reader)
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {r} has {len(row)} cells, "
                                f"expected {len(header)}")
            for c, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell at row {r}, "
                        f"column {header[c]!r}"
                    ) from None
                if not cell.isascii() or "_" in cell:  # float() reads it, numpy not
                    raise DataError(
                        f"{path}: could not convert string '{cell}' to float64 "
                        f"at row {r}, column {header[c]!r}"
                    )
    raise DataError(f"{path}: {problem}")


def write_csv(ds: Dataset, path) -> None:
    """`ds` as a CSV with header `feature_names + ["y"]`; each value is
    written as its float repr, which never needs quoting. Rows are formatted
    a block at a time, so memory does not grow with n."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(ds.feature_names) + ["y"])
        for a in range(0, ds.n, CSV_BLOCK_ROWS):
            rows = slice(a, a + CSV_BLOCK_ROWS)
            block = np.column_stack([ds.x[rows], ds.y[rows]]).astype(np.float64, copy=False)
            for row in block.tolist():
                fh.write(",".join(map(repr, row)) + "\r\n")


def standardize(ds: Dataset) -> Dataset:
    """Z-score X per column and y (population std); constant columns map to 0
    with std recorded as 1."""
    x_mean = ds.x.mean(axis=0)
    x_std = ds.x.std(axis=0)
    x_std = np.where(x_std == 0.0, 1.0, x_std)
    y_mean = float(ds.y.mean())
    y_std = float(ds.y.std()) or 1.0
    return replace(
        ds,
        x=(ds.x - x_mean) / x_std,
        y=(ds.y - y_mean) / y_std,
        scaler=Scaler(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std),
    )


def destandardize_predictions(y_std, scaler: Scaler) -> np.ndarray:
    return np.asarray(y_std, dtype=np.float64) * scaler.y_std + scaler.y_mean


def synth_nonlinear(
    n: int, spec: FeatureGroupSpec, noise_sigma: float, seed: int
) -> Dataset:
    """Synthetic benchmark: standard-normal X, within-group tanh ridges plus
    one cross-group product interaction, plus Gaussian noise.

    y = sum_g a_g * tanh(X^(g) b_g) + c * (X^(1) u)(X^(2) v) + noise.
    Coefficients are drawn once from the seed, so generation is deterministic.
    """
    if spec.n_groups < 2:
        raise ConfigError("synthetic generator needs at least 2 feature groups")
    rng = Rng(seed)
    p = spec.n_features
    check_cells(f"{n} rows of {p} features", n * p)
    x = rng.normal((n, p))
    y = np.zeros(n)
    for s, e in spec.groups:
        b = rng.normal(e - s)
        b *= 1.5 / np.linalg.norm(b)
        a = 0.8 + 0.4 * rng.uniform()
        y += a * np.tanh(x[:, s:e] @ b)
    (s1, e1), (s2, e2) = spec.groups[0], spec.groups[1]
    u = rng.normal(e1 - s1)
    u /= np.linalg.norm(u)
    v = rng.normal(e2 - s2)
    v /= np.linalg.norm(v)
    y += (x[:, s1:e1] @ u) * (x[:, s2:e2] @ v)
    y += noise_sigma * rng.normal(n)
    names = [f"f{j}" for j in range(p)]
    return Dataset(x=x, y=y, feature_names=names, spec=spec)


def split(ds: Dataset, test_fraction: float, seed: int = 0) -> SplitPlan:
    """Seeded shuffle split into sorted train and test row indices."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = ds.n
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n - n_test < 1:
        raise ConfigError(f"test_fraction={test_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return SplitPlan(train=train, test=test)


def take(ds: Dataset, idx) -> Dataset:
    return replace(ds, x=ds.x[idx], y=ds.y[idx])
