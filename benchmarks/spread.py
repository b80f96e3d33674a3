"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 benchmarks/spread.py --workload NAME [--seeds 10] [--trace 0|1]

For --trace 0 it prints, per end-to-end metric, the median of the runs and
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound. For --trace 1 it
checks that every count metric reads the same in every run. Runs are made one
after another, each to completion, from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: {json.dumps(runs[-1])}", flush=True)

    ok = True
    if args.trace:
        for m in spec["per_layer"]:
            if m["unit"] == "count":
                values = {r[m["name"]] for r in runs}
                same = len(values) == 1
                ok &= same
                print(f"{m['name']:40s} {'repeats' if same else 'VARIES'} {sorted(values)}")
    else:
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            steady = share < m["bound"] / 3
            ok &= steady or m["name"] == "setup_s"
            print(f"{m['name']:14s} median {med:12.6g}  spread {share:7.4f}  "
                  f"bound {m['bound']:.2f}  {'steady' if steady else 'NOISY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
