#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--workload-seed N]

Run from the repository root. Builds perfbench/ (which builds the uwp
library from src/) into .bench_build/ with CMake, runs the benchmark binary
for one workload, checks its outputs and prints every metric BENCHMARK.json
names: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The last line of standard output is the result object; the lines before it
are a readable report with sample counts, spreads and the run context.
Exits 1 when an output check fails and 2 when the build or the benchmark binary fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
BINARY_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator,
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build step %s exited %d" % (" ".join(cmd[:2]), p.returncode))
    return os.path.join(out, "uwp_perfbench")


def source_id():
    """git SHA when the tree is a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               text=True, timeout=10)
            if p.returncode == 0:
                return "git:" + p.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def run_binary(binary, args):
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--workload-seed=%d" % args.workload_seed, "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out after %d s" % BINARY_TIMEOUT_S)
    records = []
    for line in p.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            sys.stderr.write(p.stderr)
            fail("benchmark binary printed a non-JSON line: %r" % line[:200])
    sys.stderr.write(p.stderr)
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    checks = by_kind.get("check", [])
    if p.returncode != 0 and all(c["ok"] for c in checks):
        fail("benchmark binary exited %d" % p.returncode)
    return by_kind, checks


def end_to_end(by_kind):
    """Metric name -> (value, note) for a --trace 0 run."""
    setups = [r["seconds"] for r in by_kind["setup"]]
    repeats = by_kind["repeat"]
    rounds_ps = [r["rounds"] / r["wall_s"] for r in repeats]
    frames_ps = [r["frames"] / r["wall_s"] for r in repeats]
    latency = [x for r in repeats for x in r["latency_ms"]]
    # Every repeat runs the same rounds (the digest check holds them to
    # it), so the pooled latencies hold repeats[0]["rounds"] distinct ones.
    distinct = repeats[0]["rounds"]
    errors = repeats[0]["errors_m"]
    offered = sum(r["offered"] for r in repeats)
    localized = sum(r["localized"] for r in repeats)
    shed = sum(r["shed"] for r in repeats)
    broken = sum(r["nonfinite"] for r in repeats)

    def spread(values):
        return "median of %d, quartile spread %.1f%%" % (
            len(values), 100 * stats.quartile_spread(values))

    def pct(values, q, distinct=None):
        v, n, beyond = stats.percentile(values, q, distinct)
        if distinct is None:
            return v, "n=%d, %d beyond" % (n, beyond)
        return v, "n=%d pooled over %d repeats of %d rounds, %d distinct beyond" % (
            n, len(repeats), distinct, beyond)

    m = {
        "setup_s": (stats.median(setups), spread(setups)),
        "rounds_per_s": (stats.median(rounds_ps), spread(rounds_ps)),
        "frames_per_s": (stats.median(frames_ps), spread(frames_ps)),
        "round_p50_ms": pct(latency, 0.50, distinct),
        "round_p99_ms": pct(latency, 0.99, distinct),
        "round_p999_ms": pct(latency, 0.999, distinct),
        "error_p50_m": pct(errors, 0.50),
        "error_p90_m": pct(errors, 0.90),
        "localized_share": (localized / offered,
                            "%d of %d offered rounds" % (localized, offered)),
        "peak_rss_mb": (by_kind["rss"][0]["peak_mb"], "set-up and the warm-up run"),
    }
    report = {
        "failed_share": (offered - localized + broken) / offered,
        "shed_share": shed / offered,
    }
    return m, offered, broken, report


def per_layer(by_kind):
    """Metric name -> (value, note) for a --trace 1 run."""
    traced = by_kind["traced"]
    baseline = by_kind["traced_off"]
    m = {}
    for name in traced[0]["values"]:
        vals = [t["values"][name] for t in traced]
        m[name] = (stats.median(vals), "median of %d traced runs" % len(vals))
    for name, v in by_kind["deployed"][0]["values"].items():
        m[name] = (v, "deployed executor, wrapped transport")
    on = stats.median([t["wall_s"] for t in traced])
    off = stats.median([t["wall_s"] for t in baseline])
    m["trace.overhead_share"] = (on / off - 1.0, "%d traced vs %d spans-off runs"
                                 % (len(traced), len(baseline)))
    runs = traced + baseline
    return m, sum(t["rounds"] for t in runs), sum(t["nonfinite"] for t in runs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=lambda s: int(s, 0), required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=lambda s: int(s, 0), default=0xBE7C)
    args = ap.parse_args()

    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    binary = build()
    by_kind, checks = run_binary(binary, args)

    ctx = by_kind["context"][0]
    ctx.update({"source": source_id(), "nproc": os.cpu_count(),
                "build_type": BUILD_TYPE, "python": platform.python_version(),
                "run_seconds": args.seconds})
    print("context " + json.dumps(ctx, sort_keys=True))

    if args.trace:
        measured, attempted, broken = per_layer(by_kind)
        wanted = manifest["per_layer"]
    else:
        try:
            measured, attempted, broken, report = end_to_end(by_kind)
        except ValueError as e:  # a percentile the discipline refuses
            fail(str(e))
        wanted = manifest["end_to_end"]
        for k, v in sorted(report.items()):
            print("%-34s %.6g share (report only)" % (k, v))

    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in measured:
            fail("benchmark binary did not measure %s" % name)
        value, note = measured[name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print("%-34s %.6g %s  (%s)" % (name, value, spec["unit"], note))
    for c in checks:
        if not c["ok"]:
            print("CHECK FAILED %s %s" % (c["name"], c["detail"]))
    correct = bool(checks) and all(c["ok"] for c in checks)
    print("checks: %d run, %d failed" % (len(checks), sum(not c["ok"] for c in checks)))
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(broken), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
