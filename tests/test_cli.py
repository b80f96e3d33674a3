import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalarnet import cli
from scalarnet.attention import FeatureGroupSpec
from scalarnet.cli import main
from scalarnet.data import Dataset, load_csv, standardize, synth_nonlinear, write_csv
from scalarnet.errors import NumericError
from scalarnet.model import ModelConfig
from scalarnet.train import train


@pytest.fixture
def workspace(tmp_path):
    """Small dataset + groups file + quick training config on disk."""
    spec = FeatureGroupSpec([(0, 4), (4, 8)])
    ds = synth_nonlinear(64, spec, 0.1, seed=2)
    data_path = tmp_path / "data.csv"
    write_csv(ds, data_path)
    groups_path = tmp_path / "groups.json"
    groups_path.write_text("[[0, 4], [4, 8]]", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "max_epochs": 5,
                "batch_size": 16,
                "learning_rate": 3e-3,
                "patience": 5,
            }
        ),
        encoding="utf-8",
    )
    return tmp_path, data_path, groups_path, config_path


def run(argv):
    return main([str(a) for a in argv])


class TestTrainEval:
    def test_full_cycle(self, workspace, capsys):
        tmp, data_path, groups_path, config_path = workspace
        ckpt_path = tmp / "model.json"
        rc = run(
            ["train", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--config", config_path, "--out", ckpt_path]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["epochs_run"] == 5
        assert ckpt_path.exists()
        blob = json.loads(ckpt_path.read_text(encoding="utf-8"))
        assert blob["format_version"] == 1
        assert "params" in blob and "scaler" in blob and "config" in blob

        rc = run(
            ["eval", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--ckpt", ckpt_path]
        )
        assert rc == 0
        m = json.loads(capsys.readouterr().out)
        for key in ("mse", "rmse", "mae", "r2", "ci", "bins"):
            assert key in m
        assert len(m["bins"]) == 5

    def test_importance_csv_format(self, workspace, capsys):
        tmp, data_path, groups_path, config_path = workspace
        ckpt_path = tmp / "model.json"
        run(["train", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--config", config_path, "--out", ckpt_path])
        capsys.readouterr()
        out_path = tmp / "imp.csv"
        rc = run(
            ["importance", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--ckpt", ckpt_path, "--out", out_path]
        )
        assert rc == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature_index", "feature_name", "importance"]
        assert len(rows) == 9
        vals = [float(r[2]) for r in rows[1:]]
        assert vals == sorted(vals, reverse=True)
        assert vals[0] == 1.0 and vals[-1] == 0.0

    def test_byte_order_marks_accepted(self, workspace, capsys):
        # Excel's "CSV UTF-8" and PowerShell's Out-File begin the file with a BOM
        tmp, data_path, groups_path, config_path = workspace
        for path in (data_path, groups_path, config_path):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        common = ["--data", data_path, "--target", "y", "--groups", groups_path]
        ckpt = _trained_checkpoint(tmp, common, config_path)
        assert run(["importance", *common, "--ckpt", ckpt, "--out", tmp / "imp.csv"]) == 0
        rows = csv.reader((tmp / "imp.csv").read_text(encoding="utf-8").splitlines())
        names = {row[1] for row in rows}
        header = data_path.read_text(encoding="utf-8-sig").splitlines()[0].split(",")
        assert names == {"feature_name", *header} - {"y"}

    def test_missing_config_file(self, workspace, capsys):
        tmp, data_path, groups_path, _ = workspace
        rc = run(
            ["train", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--config", tmp / "nope.json", "--out", tmp / "m.json"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, workspace, capsys):
        tmp, data_path, groups_path, _ = workspace
        bad = tmp / "bad.json"
        bad.write_text('{"max_epochz": 5}', encoding="utf-8")
        rc = run(
            ["train", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--config", bad, "--out", tmp / "m.json"]
        )
        assert rc == 2
        assert "max_epochz" in capsys.readouterr().err

    def test_commands_that_use_no_groups_file_do_not_warn(self, workspace, capsys):
        """eval and importance use the checkpoint's groups and baseline uses
        none, so without --groups they run without the single-group warning
        (pyproject turns a scalarnet UserWarning into an error)."""
        tmp, data_path, groups_path, config_path = workspace
        ckpt = _trained_checkpoint(
            tmp, ["--data", data_path, "--target", "y", "--groups", groups_path], config_path)
        common = ["--data", data_path, "--target", "y"]
        assert run(["eval", *common, "--ckpt", ckpt]) == 0
        assert run(["importance", *common, "--ckpt", ckpt, "--out", tmp / "imp.csv"]) == 0
        assert run(["baseline", *common, "--method", "ridge"]) == 0

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_config_names_the_groups_or_one_group_is_warned(self, workspace, command):
        """Without --groups the config's groups are used unwarned, and with
        neither train and ablate warn that they assume one group."""
        tmp, data_path, _, config_path = workspace
        argv = [command, "--data", data_path, "--target", "y"]
        argv += ["--out", tmp / "m.json"] if command == "train" else ["--fractions", "1.0"]
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        named = _write(tmp / "named.json", json.dumps({**raw, "groups": [[0, 2], [2, 8]]}))
        assert run([*argv, "--config", named]) == 0
        if command == "train":
            ckpt = json.loads((tmp / "m.json").read_text(encoding="utf-8"))
            assert ckpt["config"]["groups"] == [[0, 2], [2, 8]]
        with pytest.warns(UserWarning, match=r"no groups in the config or --groups; "
                                             r"assuming a single group \[0, 8\)"):
            assert run([*argv, "--config", config_path]) == 0

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_config_groups_must_equal_the_groups_file(self, workspace, capsys, command):
        tmp, data_path, groups_path, config_path = workspace
        out = tmp / "m.json"
        argv = [command, "--data", data_path, "--target", "y", "--groups", groups_path]
        argv += ["--out", out] if command == "train" else ["--fractions", "1.0"]
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        one = _write(tmp / "one.json", json.dumps({**raw, "groups": [[0, 8]]}))
        capsys.readouterr()
        assert run([*argv, "--config", one]) == 2
        err = capsys.readouterr().err
        assert "[[0, 8]]" in err and "[[0, 4], [4, 8]]" in err and str(groups_path) in err
        assert not out.exists()
        same = _write(tmp / "same.json", json.dumps({**raw, "groups": [[0, 4], [4, 8]]}))
        assert run([*argv, "--config", same]) == 0

    def test_malformed_json_config(self, workspace, capsys):
        tmp, data_path, groups_path, _ = workspace
        bad = tmp / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = run(
            ["train", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--config", bad, "--out", tmp / "m.json"]
        )
        assert rc == 2


class TestBaselineSynthGradcheck:
    def test_baseline_pls(self, workspace, capsys):
        _, data_path, groups_path, _ = workspace
        rc = run(
            ["baseline", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--method", "pls"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "r2" in out and "n_components" in out

    def test_baseline_pls_constant_column(self, tmp_path, capsys):
        # CV must skip the counts above the rank of X instead of failing
        rc = run(["baseline", *_constant_column_data(tmp_path), "--method", "pls"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n_components"] <= 5

    def test_baseline_pls_count_above_rank_exits_3(self, tmp_path, capsys):
        rc = run(["baseline", *_constant_column_data(tmp_path), "--method", "pls",
                  "--components", "6"])
        assert rc == 3
        assert "singular at 6 components" in capsys.readouterr().err

    def test_baseline_ridge_with_lambda(self, workspace, capsys):
        _, data_path, groups_path, _ = workspace
        rc = run(
            ["baseline", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--method", "ridge", "--lambda", "0.5"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda"] == 0.5

    def test_synth_writes_loadable_csv(self, tmp_path, capsys):
        groups_path = tmp_path / "g.json"
        groups_path.write_text("[[0, 3], [3, 6]]", encoding="utf-8")
        out_path = tmp_path / "synth.csv"
        rc = run(
            ["synth", "--n", "25", "--groups", groups_path, "--noise", "0.2",
             "--seed", "4", "--out", out_path]
        )
        assert rc == 0
        from scalarnet.data import load_csv

        ds = load_csv(out_path, "y", groups_path)
        assert ds.n == 25 and ds.p == 6

    def test_synth_deterministic_across_invocations(self, tmp_path, capsys):
        groups_path = tmp_path / "g.json"
        groups_path.write_text("[[0, 3], [3, 6]]", encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["synth", "--n", "10", "--groups", groups_path, "--seed", "7",
                 "--out", out])
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")

    def test_module_entry_point(self, tmp_path):
        """`python -m scalarnet.cli` runs `main` and exits with its code."""
        groups_path = _write(tmp_path / "g.json", "[[0, 2], [2, 4]]")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}

        def synth(n):
            return subprocess.run(
                [sys.executable, "-m", "scalarnet.cli", "synth", "--n", n, "--groups",
                 groups_path, "--out", tmp_path / "s.csv"],
                env=env, capture_output=True, text=True, timeout=120)

        ok = synth("5")
        assert ok.returncode == 0, ok.stderr
        assert len((tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()) == 6
        bad = synth("0")
        assert bad.returncode == 2
        assert bad.stderr.count("error:") == 1 and bad.stderr.count("\n") == 1

    def test_gradcheck_command(self, capsys):
        rc = run(["gradcheck", "--seed", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_rel_error"] < 1e-4

    def test_ablate_command(self, workspace, capsys):
        tmp, data_path, groups_path, config_path = workspace
        rc = run(
            ["ablate", "--data", data_path, "--target", "y", "--groups",
             groups_path, "--config", config_path, "--fractions", "1.0"]
        )
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["fraction"] == 1.0
        assert "r2_variational" in rows[0] and "r2_ablated" in rows[0]


def _trained_checkpoint(tmp, common, config_path):
    ckpt = tmp / "model.json"
    assert run(["train", *common, "--config", config_path, "--out", ckpt]) == 0
    return ckpt


def _narrow_data(tmp):
    """A 6-feature CSV, for an 8-feature checkpoint. It has no groups file:
    one would fail the groups check before the width check."""
    write_csv(synth_nonlinear(20, FeatureGroupSpec([(0, 3), (3, 6)]), 0.1, seed=0),
              tmp / "narrow.csv")
    return ["--data", tmp / "narrow.csv", "--target", "y"]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _write_bytes(path, blob):
    path.write_bytes(blob)
    return path


def _constant_column_data(tmp):
    """A 200x6 CSV whose third feature is constant, so X has rank 5."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 6))
    x[:, 2] = 1.5
    y = x[:, 0] - 2 * x[:, 1] + 0.1 * rng.normal(size=200)
    names = [f"f{j}" for j in range(6)]
    write_csv(Dataset(x=x, y=y, feature_names=names, spec=FeatureGroupSpec([(0, 6)])),
              tmp / "const.csv")
    return ["--data", tmp / "const.csv", "--target", "y"]


def _bad_config(**entry):
    """`train` with the workspace's config plus one malformed entry."""
    def argv(tmp, common, config):
        raw = {**json.loads(config.read_text(encoding="utf-8")), **entry}
        return ["train", *common, "--config", _write(tmp / "bad.json", json.dumps(raw)),
                "--out", tmp / "m.json"]
    return argv


def _bad_checkpoint(edit):
    """`eval` with a freshly trained checkpoint whose JSON `edit` has changed."""
    def argv(tmp, common, config):
        path = _trained_checkpoint(tmp, common, config)
        raw = json.loads(path.read_text(encoding="utf-8"))
        edit(raw)
        return ["eval", *common, "--ckpt", _write(path, json.dumps(raw))]
    return argv


def _bad_importance_checkpoint(edit):
    """`importance` with a freshly trained checkpoint whose JSON `edit` has changed."""
    def argv(tmp, common, config):
        return ["importance", *_bad_checkpoint(edit)(tmp, common, config)[1:],
                "--out", tmp / "imp.csv"]
    return argv


def _bad_groups(text):
    """`baseline` with a malformed groups file."""
    return lambda tmp, common, config: [
        "baseline", *common[:4], "--groups", _write(tmp / "g.json", text), "--method", "pls"]


def _groups_differ(command):
    """`eval` or `importance` on a checkpoint trained on the workspace's
    groups [[0, 4], [4, 8]], with a groups file that names [[0, 8]]."""
    def argv(tmp, common, config):
        out = ["--out", tmp / "imp.csv"] if command == "importance" else []
        return [command, *common[:4], "--groups", _write(tmp / "g.json", "[[0, 8]]"),
                "--ckpt", _trained_checkpoint(tmp, common, config), *out]
    return argv


def _synth(*extra):
    """`synth` of 10 rows with the workspace's groups, then `extra` options."""
    return lambda tmp, common, config: [
        "synth", "--n", "10", "--groups", common[5], "--out", tmp / "s.csv", *extra]


BAD_INPUTS = {
    "baseline_zero_components": lambda tmp, common, config: [
        "baseline", *common, "--method", "pls", "--components", "0"],
    "checkpoint_json_list": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _write(tmp / "c.json", "[1, 2]")],
    "checkpoint_missing_field": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _write(tmp / "c.json", '{"format_version": 1}')],
    "checkpoint_config_missing_groups": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _write(tmp / "c.json", json.dumps(
            {"format_version": 1, "config": {}, "params": {},
             "scaler": {"x_mean": [0.0] * 8, "x_std": [1.0] * 8, "y_mean": 0.0,
                        "y_std": 1.0}, "best_val_loss": 0.0, "epoch": 0}))],
    "checkpoint_param_string": _bad_checkpoint(
        lambda raw: raw["params"].update({"head.w1": "abc"})),
    "checkpoint_param_ragged": _bad_checkpoint(
        lambda raw: raw["params"].update({"head.w1": [[1.0, 2.0], [3.0]]})),
    "checkpoint_params_number": _bad_checkpoint(lambda raw: raw.update(params=5)),
    "checkpoint_config_number": _bad_checkpoint(lambda raw: raw.update(config=5)),
    "checkpoint_scaler_list": _bad_checkpoint(lambda raw: raw.update(scaler=[1.0, 2.0])),
    "checkpoint_scaler_empty": _bad_checkpoint(lambda raw: raw.update(scaler={})),
    "checkpoint_y_std_string": _bad_checkpoint(lambda raw: raw["scaler"].update(y_std="a")),
    "checkpoint_x_std_zero": _bad_checkpoint(
        lambda raw: raw["scaler"].update(x_std=[0.0] * 8)),
    "checkpoint_best_val_loss_string": _bad_checkpoint(
        lambda raw: raw.update(best_val_loss="x")),
    "checkpoint_best_val_loss_bool": _bad_checkpoint(
        lambda raw: raw.update(best_val_loss=True)),
    "checkpoint_epoch_negative": _bad_checkpoint(lambda raw: raw.update(epoch=-1)),
    "checkpoint_epoch_float": _bad_checkpoint(lambda raw: raw.update(epoch=2.0)),
    "config_json_list": lambda tmp, common, config: [
        "train", *common, "--config", _write(tmp / "l.json", "[]"), "--out", tmp / "m.json"],
    "ablate_non_numeric_fraction": lambda tmp, common, config: [
        "ablate", *common, "--config", config, "--fractions", "0.5,abc"],
    "importance_width_mismatch": lambda tmp, common, config: [
        "importance", *_narrow_data(tmp), "--ckpt",
        _trained_checkpoint(tmp, common, config), "--out", tmp / "imp.csv"],
    "eval_groups_differ_from_checkpoint": _groups_differ("eval"),
    "importance_groups_differ_from_checkpoint": _groups_differ("importance"),
    "config_k_string": _bad_config(k="4"),
    "config_learning_rate_string": _bad_config(learning_rate="fast"),
    "config_groups_string": _bad_config(groups="abc"),
    "config_two_components": _bad_config(components=[3, 2]),
    "config_loss_list": _bad_config(loss=[1]),
    "config_use_variational_string": _bad_config(use_variational="no"),
    "config_learning_rate_nan": _bad_config(learning_rate=float("nan")),
    "config_grad_clip_infinity": _bad_config(grad_clip_norm=float("inf")),
    "loss_huber_delta_nan": _bad_config(loss={"huber_delta": float("nan")}),
    "loss_warmup_fraction_zero": _bad_config(loss={"warmup_fraction": 0}),
    "loss_warmup_fraction_negative": _bad_config(loss={"warmup_fraction": -1.0}),
    "baseline_ridge_lambda_nan": lambda tmp, common, config: [
        "baseline", *common, "--method", "ridge", "--lambda", "nan"],
    "train_negative_seed": lambda tmp, common, config: [
        "train", *common, "--config", config, "--out", tmp / "m.json", "--seed", "-1"],
    "config_negative_seed": _bad_config(seed=-5),
    "baseline_negative_seed": lambda tmp, common, config: [
        "baseline", *common, "--method", "pls", "--seed", "-2"],
    "gradcheck_negative_seed": lambda tmp, common, config: ["gradcheck", "--seed", "-1"],
    "synth_negative_seed": _synth("--seed", "-3"),
    "synth_negative_rows": _synth("--n", "-5"),
    "synth_zero_rows": _synth("--n", "0"),
    "synth_nan_noise": _synth("--noise", "nan"),
    "groups_not_pairs": _bad_groups("[1, 2]"),
    "groups_non_integer_end": _bad_groups('[[0, "x"]]'),
    "groups_object": _bad_groups('{"a": 1}'),
    "train_out_directory": lambda tmp, common, config: [
        "train", *common, "--config", config, "--out", tmp],
    "train_config_directory": lambda tmp, common, config: [
        "train", *common, "--config", tmp, "--out", tmp / "m.json"],
    "importance_out_directory": lambda tmp, common, config: [
        "importance", *common, "--ckpt", _trained_checkpoint(tmp, common, config),
        "--out", tmp],
    "checkpoint_not_utf8": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _write_bytes(tmp / "c.json", b"\xff\xfe{}")],
    "eval_data_not_utf8": lambda tmp, common, config: [
        "eval", "--data", _write_bytes(tmp / "d.csv", b"f0,y\n\xff,1\n"), *common[2:],
        "--ckpt", _trained_checkpoint(tmp, common, config)],
    "baseline_data_not_utf8": lambda tmp, common, config: [
        "baseline", "--data", _write_bytes(tmp / "d.csv", b"\xe9,y\n1,2\n"), *common[2:],
        "--method", "ridge"],
    "config_not_utf8": lambda tmp, common, config: [
        "train", *common, "--config", _write_bytes(tmp / "c.json", b'{"k": "\xff"}'),
        "--out", tmp / "m.json"],
    "groups_not_utf8": lambda tmp, common, config: [
        "baseline", *common[:4], "--groups", _write_bytes(tmp / "g.json", b"[[0,\xff]]"),
        "--method", "ridge"],
    "checkpoint_not_json": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _write(tmp / "c.json", "")],
    "config_not_json": lambda tmp, common, config: [
        "train", *common, "--config", _write(tmp / "c.json", "{not json"),
        "--out", tmp / "m.json"],
    "groups_not_json": _bad_groups("[[0, 4], [4, 8]"),
    "checkpoint_nested_too_deeply": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _write(tmp / "c.json", "[" * 100000)],
    "config_nested_too_deeply": lambda tmp, common, config: [
        "train", *common, "--config", _write(tmp / "c.json", "[" * 100000),
        "--out", tmp / "m.json"],
    "groups_nested_too_deeply": _bad_groups("[" * 100000),
    "config_integer_too_long": lambda tmp, common, config: [
        "train", *common, "--config", _write(tmp / "c.json", '{"k": ' + "1" * 5000 + "}"),
        "--out", tmp / "m.json"],
    # each size's first array is far above 2**47 bytes, the x86-64 user
    # address space, so no allocation is attempted that could partly succeed
    "config_k_too_large": _bad_config(k=10**13),
    "synth_rows_too_large": _synth("--n", str(10**15)),
    "eval_bins_too_large": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _trained_checkpoint(tmp, common, config),
        "--bins", str(10**15)],
    # each size's array holds more than 2**63 bytes, which numpy cannot describe
    "config_k_beyond_array_limit": _bad_config(k=2**62),
    "config_k_beyond_int64": _bad_config(k=10**30),
    "config_d_beyond_array_limit": _bad_config(d=2**62),
    "checkpoint_k_beyond_array_limit": _bad_checkpoint(lambda raw: raw["config"].update(k=2**62)),
    "checkpoint_d_beyond_array_limit": _bad_checkpoint(lambda raw: raw["config"].update(d=2**62)),
    "importance_checkpoint_k_beyond_array_limit": _bad_importance_checkpoint(
        lambda raw: raw["config"].update(k=2**62)),
    "importance_checkpoint_d_beyond_array_limit": _bad_importance_checkpoint(
        lambda raw: raw["config"].update(d=2**62)),
    "synth_rows_beyond_array_limit": _synth("--n", str(2**62)),
    "synth_groups_beyond_array_limit": lambda tmp, common, config: [
        "synth", "--n", "10", "--groups", _write(tmp / "g.json", f"[[0, 4], [4, {2**62}]]"),
        "--out", tmp / "s.csv"],
    "eval_bins_beyond_array_limit": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _trained_checkpoint(tmp, common, config),
        "--bins", str(2**62)],
    "eval_bins_beyond_int64": lambda tmp, common, config: [
        "eval", *common, "--ckpt", _trained_checkpoint(tmp, common, config),
        "--bins", str(2**63)],
    "checkpoint_param_numeric_string": _bad_checkpoint(
        lambda raw: raw["params"].update(
            {"head.w1": [["0.5"] * len(row) for row in raw["params"]["head.w1"]]})),
    "checkpoint_x_std_bool": _bad_checkpoint(
        lambda raw: raw["scaler"].update(x_std=[True] * 8)),
    "checkpoint_x_std_bool_beside_numbers": _bad_checkpoint(
        lambda raw: raw["scaler"].update(x_std=[True] + [1.0] * 7)),
    "checkpoint_param_bool_beside_numbers": _bad_checkpoint(
        lambda raw: raw["params"].update(
            {"head.w1": [[True, *row[1:]] for row in raw["params"]["head.w1"]]})),
    "checkpoint_y_std_integer_too_large": _bad_checkpoint(
        lambda raw: raw["scaler"].update(y_std=10**400)),
}
# the file each *_not_utf8, *_not_json, *_nested_too_deeply and *_too_long
# case writes, which its error must name
NAMED_FILE = {"checkpoint_not_utf8": "c.json", "config_not_utf8": "c.json",
              "eval_data_not_utf8": "d.csv", "baseline_data_not_utf8": "d.csv",
              "groups_not_utf8": "g.json", "checkpoint_not_json": "c.json",
              "config_not_json": "c.json", "groups_not_json": "g.json",
              "checkpoint_nested_too_deeply": "c.json", "config_nested_too_deeply": "c.json",
              "groups_nested_too_deeply": "g.json", "config_integer_too_long": "c.json"}


def _work_started(*args, **kwargs):
    raise AssertionError("the work started before the output was checked")


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(case, workspace, capsys, monkeypatch):
    tmp, data_path, groups_path, config_path = workspace
    common = ["--data", data_path, "--target", "y", "--groups", groups_path]
    argv = BAD_INPUTS[case](tmp, common, config_path)
    if case.endswith("_out_directory"):  # --out is checked before training or scoring
        monkeypatch.setattr(cli, "train", _work_started)
        monkeypatch.setattr(cli, "importance_scores", _work_started)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    existed = out is not None and out.exists()
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if out is not None:  # the command removed the --out its check created
        assert out.exists() == existed
    if case in NAMED_FILE:
        assert str(tmp / NAMED_FILE[case]) in err


def test_two_feature_train_names_the_feature_bound(tmp_path, capsys):
    """No component widths fit p = 2 (c1 <= p and c1 > c2 > c3 >= 1), so the
    error states the bound and does not advise setting them explicitly."""
    write_csv(synth_nonlinear(20, FeatureGroupSpec([(0, 1), (1, 2)]), 0.1, seed=0),
              tmp_path / "d.csv")
    argv = ["train", "--data", tmp_path / "d.csv", "--target", "y",
            "--groups", _write(tmp_path / "g.json", "[[0, 1], [1, 2]]"),
            "--config", _write(tmp_path / "c.json", "{}"), "--out", tmp_path / "m.json"]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "p >= 3" in err and "explicitly" not in err


# commands that fail numerically after their --out was checked
NUMERIC_FAILURES = {
    "train": _bad_config(learning_rate=1e308),
    "importance": lambda tmp, common, config: [
        "importance", "--data", _write(tmp / "big.csv", "f0,f1,f2,f3,f4,f5,f6,f7,y\n"
                                       + "1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1\n" * 3),
        *common[2:], "--ckpt", _trained_checkpoint(tmp, common, config), "--out", tmp / "imp.csv"],
}


@pytest.mark.parametrize("command", sorted(NUMERIC_FAILURES))
def test_numeric_failure_leaves_no_out_file(command, workspace, capsys):
    """A failed command removes the --out file that its check created, and
    leaves one that already existed as it was."""
    tmp, data_path, groups_path, config_path = workspace
    common = ["--data", data_path, "--target", "y", "--groups", groups_path]
    argv = NUMERIC_FAILURES[command](tmp, common, config_path)
    out = Path(argv[argv.index("--out") + 1])
    assert not out.exists()
    assert run(argv) == 3
    assert not out.exists()
    out.write_text("kept", encoding="utf-8")
    assert run(argv) == 3
    assert out.read_text(encoding="utf-8") == "kept"


def test_numeric_failure_is_one_line_without_warnings(workspace, capsys):
    # an overflowing step fails in the first batch; numpy's overflow and
    # invalid-value warnings stay silent, so stderr holds only the message
    tmp, data_path, groups_path, config_path = workspace
    common = ["--data", data_path, "--target", "y", "--groups", groups_path]
    argv = _bad_config(learning_rate=1e300)(tmp, common, config_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_stage_overflow_names_stage_epoch_and_batch(workspace, capsys):
    """A step size of 1e300 overflows the second batch inside the calibration
    stage; train() and the CLI name the stage, the epoch and the batch."""
    tmp, data_path, groups_path, config_path = workspace
    message = r"epoch 0, batch 1: non-finite output in op 'calibration'"
    ds = standardize(load_csv(data_path, "y", groups_path))
    cfg = ModelConfig(groups=[[0, 4], [4, 8]], max_epochs=5, batch_size=16, learning_rate=1e300)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=message):
        train(ds, cfg)
    common = ["--data", data_path, "--target", "y", "--groups", groups_path]
    argv = _bad_config(learning_rate=1e300)(tmp, common, config_path)
    capsys.readouterr()
    assert run(argv) == 3
    assert re.search(message, capsys.readouterr().err)


# The generated input contract: one field of a valid input file takes a value
# from MENU, and each subcommand that reads the file runs through `cli.main`.
DELETED = object()  # the mutation that deletes the field
MENU = [2**62, 2**63, 10**30, -1, -(2**62), True, False, "x", [1, 2], None, DELETED]
VALID_CONFIG = {"max_epochs": 1, "batch_size": 16, "patience": 1, "k": 2, "d": 2,
                "components": [4, 3, 2], "learning_rate": 3e-3, "grad_clip_norm": 5.0,
                "val_fraction": 0.25, "use_variational": True, "seed": 0,
                "loss": {"omega_mse": 0.7, "huber_delta": 1.0, "beta0": 1e-3,
                         "warmup_fraction": 0.1}}
# a field path in each input file; max_epochs is left out, as any count it
# accepts is a valid run, only a longer one
CONTRACT_FIELDS = {
    "config": [(key,) for key in VALID_CONFIG if key != "max_epochs"]
    + [("components", 0), ("loss", "huber_delta"), ("loss", "warmup_fraction")],
    "groups": [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)],
    "checkpoint": [(key,) for key in ("format_version", "config", "params", "scaler",
                                      "best_val_loss", "epoch")]
    + [("config", key) for key in ("groups", "k", "d", "components", "use_variational")]
    + [("scaler", "x_std"), ("scaler", "x_std", 0), ("scaler", "y_mean"),
       ("params", "head.w1"), ("params", "head.w1", 0, 0)],
    "csv": [(0, 0), (0, -1), (1, 0), (1, -1), (5, 3)],  # (row, cell); row 0 is the header
}
CONTRACT_COMMANDS = {  # each subcommand that reads an input file, and the files it reads
    "train": ("csv", "groups", "config"),
    "ablate": ("csv", "groups", "config"),
    "eval": ("csv", "groups", "checkpoint"),
    "importance": ("csv", "groups", "checkpoint"),
    "baseline": ("csv", "groups"),
    "synth": ("groups",),
}
CONTRACT_CASES = [(command, kind, path) for command, kinds in CONTRACT_COMMANDS.items()
                  for kind in kinds for path in CONTRACT_FIELDS[kind]]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """kind -> a valid input file's contents: JSON values, or the CSV's rows."""
    tmp = tmp_path_factory.mktemp("valid")
    write_csv(synth_nonlinear(48, FeatureGroupSpec([(0, 4), (4, 8)]), 0.1, seed=2),
              tmp / "data.csv")
    inputs = {"config": VALID_CONFIG, "groups": [[0, 4], [4, 8]]}
    _write_inputs(tmp, inputs)
    with open(tmp / "data.csv", newline="", encoding="utf-8") as fh:
        inputs["csv"] = list(csv.reader(fh))
    assert run(_contract_argv("train", tmp)) == 0
    inputs["checkpoint"] = json.loads((tmp / "out").read_text(encoding="utf-8"))
    return inputs


def _write_inputs(tmp, inputs):
    names = {"config": "config.json", "groups": "groups.json", "checkpoint": "ckpt.json"}
    for kind, value in inputs.items():
        if kind == "csv":
            with open(tmp / "data.csv", "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(value)
        else:
            _write(tmp / names[kind], json.dumps(value))


def _contract_argv(command, tmp):
    common = ["--data", tmp / "data.csv", "--target", "y", "--groups", tmp / "groups.json"]
    return {
        "train": ["train", *common, "--config", tmp / "config.json", "--out", tmp / "out"],
        "ablate": ["ablate", *common, "--config", tmp / "config.json", "--fractions", "1.0"],
        "eval": ["eval", *common, "--ckpt", tmp / "ckpt.json"],
        "importance": ["importance", *common, "--ckpt", tmp / "ckpt.json", "--out", tmp / "out"],
        "baseline": ["baseline", *common, "--method", "pls"],
        "synth": ["synth", "--n", "10", "--groups", tmp / "groups.json", "--out", tmp / "out"],
    }[command]


def _mutated(value, path, new):
    """A copy of the JSON value or CSV rows `value` whose field at `path` is
    `new`, or is deleted when `new` is DELETED."""
    value = parent = json.loads(json.dumps(value))
    *parents, last = path
    for key in parents:
        parent = parent[key]
    if new is DELETED:
        del parent[last]
    else:
        parent[last] = new
    return value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CONTRACT_CASES), new=st.sampled_from(MENU))
def test_mutated_input_exits_0_2_or_3(valid_inputs, case, new):
    """Every subcommand that reads a config, groups file, checkpoint or CSV,
    with one field of it mutated, exits 0, 2 or 3. A failure prints one line
    on stderr and leaves no --out it created. gradcheck reads no input file."""
    command, kind, path = case
    if kind == "csv" and new is not DELETED and not isinstance(new, str):
        new = json.dumps(new)  # a CSV cell holds text
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        _write_inputs(tmp, {**valid_inputs, kind: _mutated(valid_inputs[kind], path, new)})
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(_contract_argv(command, tmp))
        assert rc in (0, 2, 3)
        if rc:  # the CLI prints each warning on stderr too
            assert err.getvalue().count("\n") + len(caught) == 1, err.getvalue()
            assert not (tmp / "out").exists()
