"""Command-line interface.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import warnings

import numpy as np

from . import baselines, data
from .errors import ConfigError, DataError, NumericError
from .losses import concordance_index, metrics
from .model import ModelConfig
from .train import (
    Checkpoint,
    ablation_data_fraction,
    evaluate,
    gradcheck,
    importance_scores,
    train,
)


def _check_groups(args, ds, groups, source) -> None:
    """A `--groups` file, if given, must name `groups`, those the model runs with."""
    given = [list(g) for g in ds.spec.groups]
    if args.groups is not None and groups != given:
        raise ConfigError(f"{source} names groups {groups}, "
                          f"but --groups {args.groups} names {given}")


def _load_config(args, ds, seed=None) -> ModelConfig:
    """The config of `train` and `ablate`. Its groups are the config's, which
    `--groups` must then equal, or else those `load_csv` gave `ds`: the
    `--groups` file's, or one group [0, p), with a warning."""
    raw = data.read_json(args.config, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: config is not a JSON object")
    if "groups" not in raw:
        if args.groups is None:
            warnings.warn(f"no groups in the config or --groups; "
                          f"assuming a single group [0, {ds.p})")
        raw["groups"] = [list(g) for g in ds.spec.groups]
    _check_groups(args, ds, raw["groups"], args.config)
    if seed is not None:
        raw["seed"] = seed
    return ModelConfig.from_dict(raw)


@contextlib.contextmanager
def _output(path):
    """Check that `path` is writable before the work that writes it; if the
    work fails, remove the file again when this check created it."""
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if not existed:
            os.remove(path)
        raise


def cmd_train(args):
    ds = data.load_csv(args.data, args.target, args.groups)
    cfg = _load_config(args, ds, args.seed)
    with _output(args.out):
        ckpt, history = train(data.standardize(ds), cfg)
        ckpt.save(args.out)
    last = history[-1]
    print(
        json.dumps(
            {
                "epochs_run": len(history),
                "best_epoch": ckpt.epoch,
                "best_val_loss": ckpt.best_val_loss,
                "final_train_loss": last["train_loss"],
            }
        )
    )


def cmd_eval(args):
    ckpt = Checkpoint.load(args.ckpt)
    ds = data.load_csv(args.data, args.target, args.groups)
    _check_groups(args, ds, ModelConfig.from_dict(ckpt.config).groups, args.ckpt)
    print(json.dumps(evaluate(ckpt, ds, n_bins=args.bins)))


def cmd_importance(args):
    ckpt = Checkpoint.load(args.ckpt)
    ds = data.load_csv(args.data, args.target, args.groups)
    _check_groups(args, ds, ModelConfig.from_dict(ckpt.config).groups, args.ckpt)
    with _output(args.out):
        _, normalized = importance_scores(ckpt, ds)
        order = sorted(range(ds.p), key=lambda j: -normalized[j])
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature_index", "feature_name", "importance"])
            for j in order:
                writer.writerow([j, ds.feature_names[j], repr(float(normalized[j]))])
    print(f"wrote {ds.p} importance rows to {args.out}")


def cmd_baseline(args):
    ds = data.load_csv(args.data, args.target, args.groups)
    plan = data.split(ds, test_fraction=0.2, seed=args.seed)
    tr, te = data.take(ds, plan.train), data.take(ds, plan.test)
    if args.method == "pls":
        n_comp = args.components
        if n_comp is None:
            n_comp = baselines.select_components(tr.x, tr.y, seed=args.seed)
        model = baselines.pls_fit(tr.x, tr.y, n_comp)
        y_hat = baselines.pls_predict(model, te.x)
        extra = {"n_components": n_comp}
    else:
        model = baselines.ridge_fit(tr.x, tr.y, args.lam)
        y_hat = baselines.ridge_predict(model, te.x)
        extra = {"lambda": args.lam}
    out = metrics(te.y, y_hat)
    out["ci"] = concordance_index(te.y, y_hat)
    out.update(extra)
    print(json.dumps(out))


def cmd_synth(args):
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise ConfigError(f"--noise must be finite and >= 0, got {args.noise}")
    spec = data.load_groups(args.groups)
    ds = data.synth_nonlinear(args.n, spec, args.noise, args.seed)
    data.write_csv(ds, args.out)
    print(f"wrote {ds.n}x{ds.p} dataset to {args.out}")


def cmd_ablate(args):
    ds = data.load_csv(args.data, args.target, args.groups)
    cfg = _load_config(args, ds)
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
    except ValueError:
        raise ConfigError(f"--fractions must be comma-separated numbers, "
                          f"got {args.fractions!r}") from None
    rows = ablation_data_fraction(ds, cfg, fractions)
    print(json.dumps(rows))


def cmd_gradcheck(args):
    report = gradcheck(seed=args.seed)
    print(json.dumps(report))
    if report["max_rel_error"] > 1e-4:
        raise NumericError(
            f"gradient check failed: max relative error "
            f"{report['max_rel_error']:.3e} at {report['worst_param']}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scalarnet")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ckpt=False):
        p.add_argument("--data", required=True)
        p.add_argument("--target", required=True)
        p.add_argument("--groups", default=None)
        if ckpt:
            p.add_argument("--ckpt", required=True)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p, ckpt=True)
    p.add_argument("--bins", type=int, default=5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("importance", help="export feature importance CSV")
    common(p, ckpt=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("baseline", help="run a classical baseline")
    common(p)
    p.add_argument("--method", choices=["pls", "ridge"], required=True)
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ablate", help="data-fraction ablation of the variational block")
    common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--fractions", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        # NumericError reports a numeric failure in one line; numpy's
        # overflow and invalid-value warnings would only repeat it
        with np.errstate(all="ignore"):
            args.func(args)
    # an unreadable or unwritable path (a missing file, a directory) is a
    # usage error too; a file that is not UTF-8 text or not JSON raises one
    # naming it; so is a size (rows, kernels, bins) too large to allocate,
    # one too large for numpy to describe included (errors.check_cells)
    except (ConfigError, DataError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
