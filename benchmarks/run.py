"""scalarnet benchmark: four closed-loop workloads, one client, one process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark imports scalarnet from the
checkout's src/, makes every input from --seed, measures for --seconds,
checks every output and prints, as its last stdout line, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 reports its per-layer metrics
from a run that spends half its time untraced and half traced. The line
before it is a JSON report with the environment and the raw timings.
See benchmarks/README.md.
"""

import os

# Pinned before numpy loads, identically on every commit: single-threaded
# BLAS is faster and steadier for this program's small matrices.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

SPEC12 = [[0, 6], [6, 12]]
SPEC48 = [[6 * g, 6 * g + 6] for g in range(8)]
# Held-out rows behind test_r2. A 200-row test set moved R^2 by ~4% between
# seeds; 4000 rows bring that to ~2%.
TEST_ROWS = 4000
# name: (groups, training rows, batch size, epochs per timed call, epochs of
# the call behind test_r2). patience = epochs, so early stopping never
# changes the work done. Timed calls are short so that the reference kernel
# run between them tracks the machine's speed (see REFERENCE_SECONDS); R^2
# needs more epochs to settle.
TRAIN = {
    "train_small": (SPEC12, 800, 32, 2, 10),
    "train_wide": (SPEC48, 3200, 128, 1, 5),
}
# Rows of the scored CSV. Do not raise score_cli towards 100k rows before
# concordance_index stops allocating O(n^2): `scalarnet baseline` on a
# 100k-row file was OOM-killed at ~7.9 GB on an 8 GB machine.
SCORE_ROWS = {"score_cli": 5000, "importance_large": 25_000}
WORKLOADS = list(TRAIN) + list(SCORE_ROWS)


def load_scalarnet():
    """Import scalarnet from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "scalarnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no scalarnet package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("scalarnet")
    if Path(pkg.__file__).resolve().parent != src / "scalarnet":
        raise SystemExit(f"error: imported scalarnet from {pkg.__file__}")
    return {
        name: importlib.import_module(f"scalarnet.{name}")
        for name in ("attention", "cli", "data", "losses", "model", "train", "baselines")
    }


SN = None  # scalarnet modules, set in main()


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    return int(fn())
    except OSError:
        pass
    return None


def environment():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
    }


# On a 2-vCPU virtual machine shared with other tenants, vCPU speed changed by
# 15-60% from one second to the next, in CPU time as much as in wall time, so
# medians of raw times drifted 10-17% between runs. A fixed kernel timed right
# before and after each op tracks that speed, when the kernel uses the machine
# the way the op does. Each op names its kernel; its time is reported in
# reference seconds:
#     wall seconds * REFERENCE_SECONDS[kernel] / mean(kernel time around op)
# that is, seconds on a machine where the kernel takes its nominal time.
# Raw wall times are in the report line.
_REF = np.random.default_rng(0)
_REF_SMALL = (_REF.standard_normal((32, 12)), _REF.standard_normal((12, 16)),
              _REF.standard_normal(16))


def _numpy_calls():
    """Small-matrix numpy calls from a Python loop, like an autodiff step."""
    a, b, c = _REF_SMALL
    for _ in range(1000):
        h = np.tanh(a @ b + c)
        float((h * h).sum())


def _page_faults():
    """A 40 MB array: above malloc's mmap threshold, so every call maps and
    faults in fresh pages, like concordance_index's n x n arrays."""
    float(np.ones(5_000_000).sum())


KERNELS = {"numpy_calls": _numpy_calls, "page_faults": _page_faults}
REFERENCE_SECONDS = {"numpy_calls": 0.012, "page_faults": 0.016}


def time_kernels(kinds):
    out = {}
    for kind in sorted(kinds):
        t0 = time.perf_counter()
        KERNELS[kind]()
        out[kind] = time.perf_counter() - t0
    return out


def reference_time(dt, kind, before, after):
    return dt * REFERENCE_SECONDS[kind] * 2 / (before[kind] + after[kind])


class CheckFailed(Exception):
    pass


def check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def held_out_split(groups, train_rows, test_rows, seed):
    """One synthetic draw (so one target function) split into training rows
    and held-out rows."""
    data = SN["data"]
    ds = data.synth_nonlinear(
        train_rows + test_rows, SN["attention"].FeatureGroupSpec(groups), 0.1, seed
    )
    plan = data.split(ds, test_rows / (train_rows + test_rows), seed=seed)
    return data.take(ds, plan.train), data.take(ds, plan.test)


def train_config(name, seed, epochs):
    groups, _, batch, _, _ = TRAIN[name]
    return SN["model"].ModelConfig(
        groups=groups, learning_rate=3e-3, batch_size=batch,
        max_epochs=epochs, patience=epochs, seed=seed,
    )


def r2_of(ckpt, ds):
    gc.collect()  # the graph predict() keeps sets peak RSS; start it from a clean heap
    return SN["losses"].metrics(ds.y, SN["train"].predict(ckpt, ds))["r2"]


class TrainWorkload:
    """One op = one fixed-epoch train() call on the same inputs."""

    setup_repeats = 15  # set-up takes milliseconds; a median of 3 spread ~20%

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.first = None

    def setup(self):
        groups, rows, _, epochs, _ = TRAIN[self.name]
        train_raw, self.test_raw = held_out_split(groups, rows, TEST_ROWS, self.seed)
        self.train_std = SN["data"].standardize(train_raw)
        self.cfg = train_config(self.name, self.seed, epochs)

    def prepare(self):
        """test_r2: held-out R^2 of a longer train() call on the same inputs."""
        cfg = train_config(self.name, self.seed, TRAIN[self.name][4])
        ckpt, history = SN["train"].train(self.train_std, cfg)
        check(len(history) == cfg.max_epochs, f"ran {len(history)} epochs")
        self.test_r2 = r2_of(ckpt, self.test_raw)
        check(math.isfinite(self.test_r2), f"test R^2 {self.test_r2}")

    def cycle(self):
        op = lambda: SN["train"].train(self.train_std, self.cfg)  # noqa: E731
        return [("train", op, "numpy_calls")]

    def rows(self, op, out):
        return self.train_std.n * len(out[1])

    def check(self, op, out):
        ckpt, history = out
        check(len(history) == self.cfg.max_epochs,
              f"ran {len(history)} epochs, expected {self.cfg.max_epochs}")
        if self.first is None:
            self.first = (ckpt, history)
        check(history == self.first[1], "history differs from the first call")
        check(ckpt == self.first[0], "checkpoint differs from the first call")

    def probes(self):
        return {}


class ScoreWorkload:
    """Ops are scalarnet.cli.main calls on a CSV and a checkpoint made in
    set-up: `eval` then `baseline --method pls` (score_cli), or `importance`
    (importance_large)."""

    setup_repeats = 3

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        d = WORK / name
        d.mkdir(parents=True, exist_ok=True)
        self.csv, self.groups = str(d / "data.csv"), str(d / "groups.json")
        self.ckpt, self.out = str(d / "model.json"), str(d / "importance.csv")
        self.first_importance = None

    def setup(self):
        data, train = SN["data"], SN["train"]
        train_raw, self.file_ds = held_out_split(
            SPEC12, TRAIN["train_small"][1], SCORE_ROWS[self.name], self.seed
        )
        cfg = train_config("train_small", self.seed, TRAIN["train_small"][4])
        ckpt, _ = train.train(data.standardize(train_raw), cfg)
        ckpt.save(self.ckpt)
        data.write_csv(self.file_ds, self.csv)
        with open(self.groups, "w", encoding="utf-8") as fh:
            json.dump(SPEC12, fh)

    def argv(self, command):
        args = [command, "--data", self.csv, "--target", "y",
                "--groups", self.groups]
        if command == "baseline":
            return args + ["--method", "pls", "--seed", str(self.seed)]
        args += ["--ckpt", self.ckpt]
        return args + ["--out", self.out] if command == "importance" else args

    def prepare(self):
        """Reference results for the checks, computed outside the timed loop."""
        data, train, baselines = SN["data"], SN["train"], SN["baselines"]
        ckpt = train.Checkpoint.load(self.ckpt)
        first_rows = data.take(self.file_ds, np.arange(SCORE_ROWS["score_cli"]))
        self.test_r2 = r2_of(ckpt, first_rows)
        if self.name != "score_cli":
            return
        ds = data.load_csv(self.csv, "y", self.groups)
        self.y_hat = train.predict(ckpt, ds)
        self.eval_r2 = SN["losses"].metrics(ds.y, self.y_hat)["r2"]
        plan = data.split(ds, test_fraction=0.2, seed=self.seed)
        tr, te = data.take(ds, plan.train), data.take(ds, plan.test)
        n_comp = baselines.select_components(tr.x, tr.y, seed=self.seed)
        pls = baselines.pls_fit(tr.x, tr.y, n_comp)
        self.baseline_ref = (
            SN["losses"].metrics(te.y, baselines.pls_predict(pls, te.x))["r2"], n_comp
        )

    def cycle(self):
        # eval's time goes to concordance_index's n x n arrays; baseline and
        # importance are CSV parsing and small-array work.
        cmds = ([("eval", "page_faults"), ("baseline", "numpy_calls")]
                if self.name == "score_cli" else [("importance", "numpy_calls")])
        return [(c, lambda c=c: self.run_cli(c), kind) for c, kind in cmds]

    def run_cli(self, command):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = SN["cli"].main(self.argv(command))
        return code, buf.getvalue()

    def rows(self, op, out):
        return self.file_ds.n

    def check(self, op, out):
        code, stdout = out
        check(code == 0, f"{op} exited with code {code}")
        if op == "importance":
            self.check_importance()
            return
        res = json.loads(stdout)
        if op == "eval":
            check(res["r2"] == self.eval_r2,
                  f"eval r2 {res['r2']!r} != metrics(predict()) {self.eval_r2!r}")
            check(0.0 <= res["ci"] <= 1.0, f"ci {res['ci']} outside [0, 1]")
            check(sum(b["count"] for b in res["bins"]) == self.file_ds.n,
                  "bin counts do not cover every row")
        else:
            check((res["r2"], res["n_components"]) == self.baseline_ref,
                  f"baseline {res} != library PLS {self.baseline_ref}")

    def check_importance(self):
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        p = self.file_ds.p
        check(len(rows) == p, f"{len(rows)} importance rows, expected {p}")
        check(sorted(int(r[0]) for r in rows) == list(range(p)), "feature indices")
        vals = [float(r[2]) for r in rows]
        check(all(0.0 <= v <= 1.0 for v in vals), "importance outside [0, 1]")
        check(max(vals) == 1.0 and min(vals) == 0.0, "importance not min-max scaled")
        if self.first_importance is None:
            self.first_importance = rows
        check(rows == self.first_importance, "importance differs from the first call")

    def probes(self):
        """Peak traced memory of the O(n^2) / graph-holding layers."""
        if self.name == "score_cli":
            conc = SN["losses"].concordance_index
            y, yh, n = self.file_ds.y, self.y_hat, self.file_ds.n
            half = peak_bytes(lambda: conc(y[: n // 2], yh[: n // 2]))
            full = peak_bytes(lambda: conc(y, yh))
            return {
                "losses.concordance_peak_mb": full / 2**20,
                "losses.concordance_mem_exponent":
                    math.log(full / half) / math.log(n / (n // 2)),
            }
        ckpt = SN["train"].Checkpoint.load(self.ckpt)
        model, scaler = ckpt.build_model(), ckpt.get_scaler()
        x = (self.file_ds.x - scaler.x_mean) / scaler.x_std
        peak = peak_bytes(lambda: model.forward(x, "eval"))
        return {
            "model.forward_eval_peak_mb": peak / 2**20,
            "model.forward_eval_bytes_per_row": peak / self.file_ds.n,
        }


def peak_bytes(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_loop(wl, seconds, tracer, log):
    """Closed loop: repeat the workload's cycle of ops until `seconds` pass,
    timing the reference kernels after every op.

    Returns (wall seconds, reference seconds, rows) per cycle whose ops all
    passed."""
    cycles = []
    kinds = {kind for _, _, kind in wl.cycle()}
    ref_before = time_kernels(kinds)
    deadline = time.perf_counter() + seconds
    while True:
        wall = norm = 0.0
        rows, ok = 0, True
        for op, fn, kind in wl.cycle():
            gc.collect()
            ctx = tracer.op(f"op:{op}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with ctx:
                    out = fn()
                dt = time.perf_counter() - t0
                ref_after = time_kernels(kinds)
                wall += dt
                norm += reference_time(dt, kind, ref_before, ref_after)
                ref_before = ref_after
                wl.check(op, out)
                rows += wl.rows(op, out)
            except Exception as exc:  # a failed op is counted, not fatal
                ok = False
                log["failures"].append(f"{op}: {exc!r}")
                traceback.print_exc(file=sys.stderr)
                ref_before = time_kernels(kinds)
            log["attempted"] += 1
            log["failed"] += not ok
            if not ok:
                break
        if ok:
            cycles.append((wall, norm, rows))
        if time.perf_counter() >= deadline:
            return cycles


def timed_setups(wl):
    """Set the workload up several times; (wall, reference) seconds each."""
    out = []
    for _ in range(wl.setup_repeats):
        gc.collect()
        before = time_kernels(["numpy_calls"])
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        after = time_kernels(["numpy_calls"])
        out.append((dt, reference_time(dt, "numpy_calls", before, after)))
    return out


def median_of(cycles, i):
    return statistics.median(c[i] for c in cycles) if cycles else math.nan


def median_rate(cycles, i):
    return statistics.median(c[2] / c[i] for c in cycles) if cycles else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    global SN
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    SN = load_scalarnet()
    WORK.mkdir(exist_ok=True)
    wl = (TrainWorkload if args.workload in TRAIN else ScoreWorkload)(args.workload, args.seed)

    setups = timed_setups(wl)
    wl.prepare()

    log = {"attempted": 0, "failed": 0, "failures": []}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "setups": setups}
    if args.trace:
        untraced = run_loop(wl, args.seconds / 2, None, log)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(wl, args.seconds / 2, tracer, log)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics()
        values.update(dict.fromkeys(
            ("losses.concordance_peak_mb", "losses.concordance_mem_exponent",
             "model.forward_eval_peak_mb", "model.forward_eval_bytes_per_row"), 0.0))
        values.update(wl.probes())
        overhead = median_of(traced, 1) / median_of(untraced, 1) - 1.0
        values["trace.overhead_pct"] = 100.0 * overhead
        trace_path = WORK / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path)
        report.update(untraced_cycles=untraced, traced_cycles=traced,
                      steps=len(tracer.step_durations_ms()),
                      graph_counts_constant=tracer.graph_counts_constant(),
                      spans=len(tracer.spans), trace_file=str(trace_path.relative_to(ROOT)))
        if not tracer.graph_counts_constant():
            print("warning: graph op histogram differs between steps", file=sys.stderr)
        wanted = spec["per_layer"]
    else:
        cycles = run_loop(wl, args.seconds, None, log)
        values = {
            "setup_s": statistics.median(n for _, n in setups),
            "rows_per_s": median_rate(cycles, 1),
            "test_r2": wl.test_r2,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report.update(cycles=cycles, rows_per_wall_s=median_rate(cycles, 0),
                      setup_wall_s=statistics.median(w for w, _ in setups))
        wanted = spec["end_to_end"]

    report["failures"] = log["failures"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(report))
    print(json.dumps({
        "correct": log["failed"] == 0 and log["attempted"] > 0,
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
