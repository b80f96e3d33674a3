import csv
import json
import warnings

import numpy as np
import pytest

from scalarnet.attention import FeatureGroupSpec
from scalarnet.cli import main
from scalarnet.data import Dataset, synth_nonlinear, write_csv


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
    """A 6-feature CSV and groups file, for an 8-feature checkpoint."""
    write_csv(synth_nonlinear(20, FeatureGroupSpec([(0, 3), (3, 6)]), 0.1, seed=0),
              tmp / "narrow.csv")
    (tmp / "narrow.json").write_text("[[0, 3], [3, 6]]", encoding="utf-8")
    return ["--data", tmp / "narrow.csv", "--target", "y", "--groups", tmp / "narrow.json"]


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


def _bad_groups(text):
    """`baseline` with a malformed groups file."""
    return lambda tmp, common, config: [
        "baseline", *common[:4], "--groups", _write(tmp / "g.json", text), "--method", "pls"]


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
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(case, workspace, capsys):
    tmp, data_path, groups_path, config_path = workspace
    common = ["--data", data_path, "--target", "y", "--groups", groups_path]
    argv = BAD_INPUTS[case](tmp, common, config_path)
    capsys.readouterr()
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


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
