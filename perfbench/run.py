#!/usr/bin/env python3
"""Replay benchmark of the JAWS simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and with it the simulator
from src/) into .bench_build/perfbench, runs one workload, prints every
metric by name with its unit, the modeled-result fingerprint, the checks and
the build environment, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. Exits non-zero without a result when the build fails, the
build is unoptimised or sanitized, or the replay does not finish.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

# Seed used when none is given, and a second one held back for confirming a
# claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 7
HOLDOUT_SEED = 20101115

BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    expected = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: replay exited with {proc.returncode}")
        return 1
    res = json.loads(lines[-1])

    env = res["env"]
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"replays {res['replays']}")
    print(f"env: nproc={env['nproc']} compiler={env['compiler']} "
          f"build_type={env['build_type']} flags='{env['cxx_flags'].strip()}'")
    fp = res["fingerprint"]
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for name, ok in res["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, why in res["checks_not_run"].items():
        print(f"check {name}: not run ({why})")

    metrics = {}
    missing = []
    for m in expected:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = got
        print(f"{m['name']:<32} {got['value']:>18.6f} {got['unit']}")
    for name in missing:
        print(f"metric {name}: MISSING")

    correct = bool(res["correct"]) and not missing and res["attempted"] >= 1
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
