#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs run.py once per seed and prints,
per metric, the median and the quartile spread as a share of the median
(statistics.quantiles, n=4), next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0|1]
                                [--seconds S] [--workload-seed N]

Run from the repository root. Exits 1 when any run fails or any spread
exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo, 0), int(hi or lo, 0) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--workload-seed", default="0xBE7C")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    values = {}
    ok = True
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
               "--workload-seed", args.workload_seed]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, p.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: " % seed + " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()))
        sys.stdout.flush()

    bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}
    print("%-40s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        spread = stats.quartile_spread(vals)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag, ok = "  OVER BOUND", False
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of bound"
        print("%-40s %12.5g %7.1f%% %8s%s" % (
            name, stats.median(vals), 100 * spread,
            "-" if bound is None else "%.0f%%" % (100 * bound), flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
