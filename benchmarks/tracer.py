"""Span tracer for the traced benchmark run.

It wraps scalarnet's callables where the pipeline looks them up (a module
attribute or a class attribute), records spans only inside an operation the
benchmark opened, and turns the spans into per-layer metrics. Nothing under
src/ is changed: `install()` patches attributes in this process and
`uninstall()` restores them.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

SPAN, COUNT, STAGE, FORWARD = "span", "count", "stage", "forward"


def _bindings():
    """(owner, attribute, layer name, kind) for every traced callable.

    A callable imported by name into another module is patched in the module
    that calls it, because that is the binding the call goes through.
    """
    m = {
        name: importlib.import_module(f"scalarnet.{name}")
        for name in ("tensor", "layers", "model", "train", "losses", "cli",
                     "data", "baselines")
    }
    model, train, cli = m["model"], m["train"], m["cli"]
    return [
        (m["tensor"].Tensor, "backward", "tensor.backward", SPAN),
        (m["layers"].Affine, "__call__", "layers.affine", COUNT),
        (m["layers"].Mlp2, "__call__", "layers.mlp2", COUNT),
        (model.ScalarModel, "forward", "model.forward", FORWARD),
        (model, "grouped_attention_forward", "attention.grouped", STAGE),
        (model, "kernel_attention_forward", "attention.global", STAGE),
        (model, "self_calibrate", "calibration.self_calibrate", STAGE),
        (model, "variational_encode_decode", "calibration.variational", STAGE),
        (model, "head_forward", "head.fwd", STAGE),
        (train, "composite_loss", "losses.composite", SPAN),
        (train.Adam, "step", "train.adam", SPAN),
        (m["losses"], "concordance_index", "losses.concordance", SPAN),
        (cli, "concordance_index", "losses.concordance", SPAN),
        (train, "metrics", "losses.metrics", SPAN),
        (cli, "metrics", "losses.metrics", SPAN),
        (train, "binwise_rmse", "losses.binwise", SPAN),
        (m["baselines"], "select_components", "baselines.select_components", SPAN),
        (m["baselines"], "pls_fit", "baselines.pls_fit", COUNT),
        (m["data"], "load_csv", "data.load_csv", SPAN),
        (train, "feature_importance", "head.feature_importance", SPAN),
        (train.Checkpoint, "load", "train.checkpoint_load", SPAN),
    ]


def _graph_histogram(root) -> Counter:
    """Op histogram of the non-leaf nodes reachable from `root` through the
    graph's parent links."""
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


class Tracer:
    """Records (name, start, end, parent) spans while an operation is open."""

    def __init__(self):
        self.spans = []  # index = span id; (name, start, end, parent id)
        self.stack = []  # open span ids
        self.counts = Counter()  # (layer name, phase) -> calls
        self.graphs = []  # op histogram of each training step's loss graph
        self.param_counts = None  # (tensors, scalars) seen by Adam.step
        self.phase = None  # mode of the last ScalarModel.forward call
        self._saved = []

    # ---- spans -----------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append((name, time.perf_counter(), None, parent))
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.stack.pop()
        name, t0, _, parent = self.spans[sid]
        self.spans[sid] = (name, t0, time.perf_counter(), parent)

    @contextlib.contextmanager
    def op(self, name):
        """One timed operation: the root of its spans."""
        self.phase = None
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, name, kind):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            if kind == COUNT:
                tracer.counts[(name, tracer.phase)] += 1
                return fn(*args, **kwargs)
            if kind == STAGE and tracer.phase != "train":
                return fn(*args, **kwargs)
            label = name
            if kind == FORWARD:
                mode = args[2] if len(args) > 2 else kwargs.get("mode", "train")
                tracer.phase = mode
                label = f"{name}:{mode}"
            elif name == "losses.composite":
                label = f"{name}:{tracer.phase}"
            elif name == "tensor.backward":
                sid = tracer._open("trace.graph_count")
                tracer.graphs.append(_graph_histogram(args[0]))
                tracer._close(sid)
            elif name == "train.adam" and tracer.param_counts is None:
                params = args[0].params
                tracer.param_counts = (
                    len(params), sum(int(p.data.size) for p in params.values())
                )
            sid = tracer._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return traced

    def install(self):
        for owner, attr, name, kind in _bindings():
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, kind))
            else:
                patched = self._wrap(raw, name, kind)
            setattr(owner, attr, patched)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")

    # ---- per-layer metrics -----------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [t1 - t0 - child[sid] for sid, (_, t0, t1, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict:
        """Per-layer metrics, keyed as in BENCHMARK.json. Layers that did not
        run in this workload read 0."""
        selfs = self.self_times()
        total, calls = defaultdict(float), Counter()
        for (name, *_), st in zip(self.spans, selfs):
            total[name] += st
            calls[name] += 1

        def mean(name):
            return total[name] / calls[name] if calls[name] else 0.0

        steps = calls["train.adam"]

        def per_step(value):
            return value / steps if steps else 0.0

        def ms_per_step(name):
            return per_step(total[name] * 1e3)

        hist = Counter()
        for g in self.graphs:
            hist.update(g)
        step_ms = self.step_durations_ms()
        epochs = calls["losses.composite:eval"]
        tensors, scalars = self.param_counts or (0, 0)
        cli_ops = ("op:eval", "op:baseline", "op:importance")
        cli_calls = sum(calls[n] for n in cli_ops)
        out = {
            "tensor.nodes_per_step": per_step(sum(hist.values())),
            "tensor.backward_ms_per_step": ms_per_step("tensor.backward"),
            "layers.affine_calls_per_step": per_step(self.counts[("layers.affine", "train")]),
            "layers.mlp2_calls_per_step": per_step(self.counts[("layers.mlp2", "train")]),
            "attention.grouped_fwd_ms_per_step": ms_per_step("attention.grouped"),
            "attention.global_fwd_ms_per_step": ms_per_step("attention.global"),
            "calibration.self_calibrate_ms_per_step": ms_per_step("calibration.self_calibrate"),
            "calibration.variational_ms_per_step": ms_per_step("calibration.variational"),
            "head.fwd_ms_per_step": ms_per_step("head.fwd"),
            "losses.composite_ms_per_step": ms_per_step("losses.composite:train"),
            "model.forward_train_ms_per_step": ms_per_step("model.forward:train"),
            "train.adam_ms_per_step": ms_per_step("train.adam"),
            "train.self_ms_per_step": ms_per_step("op:train"),
            "train.step_ms_p50": float(np.percentile(step_ms, 50)) if step_ms else 0.0,
            "train.step_ms_p99": float(np.percentile(step_ms, 99)) if step_ms else 0.0,
            "train.val_ms_per_epoch": (
                (total["model.forward:eval"] + total["losses.composite:eval"]) * 1e3 / epochs
                if epochs else 0.0
            ),
            "train.param_tensors": tensors,
            "train.params": scalars,
            "losses.concordance_s": mean("losses.concordance"),
            "losses.metrics_ms": mean("losses.metrics") * 1e3,
            "losses.binwise_ms": mean("losses.binwise") * 1e3,
            "baselines.select_components_s": mean("baselines.select_components"),
            "baselines.pls_fit_calls": (
                self.counts[("baselines.pls_fit", None)] / calls["op:baseline"]
                if calls["op:baseline"] else 0.0
            ),
            "data.load_csv_s": mean("data.load_csv"),
            "model.forward_eval_s": mean("model.forward:eval"),
            "head.feature_importance_ms": mean("head.feature_importance") * 1e3,
            "train.checkpoint_load_ms": mean("train.checkpoint_load") * 1e3,
            "cli.self_ms": 1e3 * sum(total[n] for n in cli_ops) / cli_calls if cli_calls else 0.0,
            "cli.baseline_s": self.inclusive_mean("op:baseline"),
        }
        for op in ("add", "mul", "cols", "matmul", "l2_normalize", "tanh",
                   "softmax", "concat", "sub"):
            out[f"tensor.op.{op}_per_step"] = per_step(hist[op])
        return out

    def inclusive_mean(self, name) -> float:
        d = [t1 - t0 for n, t0, t1, _ in self.spans if n == name]
        return sum(d) / len(d) if d else 0.0

    def step_durations_ms(self):
        """A training step runs from the start of a train-mode forward to the
        end of the Adam step after it, less the tracer's own graph counting."""
        out, start, counting = [], None, 0.0
        for name, t0, t1, _ in self.spans:
            if name == "model.forward:train":
                start, counting = t0, 0.0
            elif name == "trace.graph_count" and start is not None:
                counting += t1 - t0
            elif name == "train.adam" and start is not None:
                out.append((t1 - start - counting) * 1e3)
                start = None
        return out

    def graph_counts_constant(self) -> bool:
        return all(g == self.graphs[0] for g in self.graphs)
