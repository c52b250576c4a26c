#!/usr/bin/env python3
"""Re-derive the modeled-result fingerprints of the replay benchmark.

    scripts/perfbench_fingerprints.py OUT.json

Run from the repository root. Runs perfbench/run.py once per workload of
BENCHMARK.json (one replay each, at seed 7) and writes
{"seed": 7, "workloads": {name: fingerprint}} to OUT.json, where a
fingerprint is the makespan_us / atom_reads / cache_hits / sample_digest
object run.py prints. The modeled result is virtual-clock only, so it must
reproduce bit for bit on any host:

    scripts/compare_bench_json.py scripts/perfbench_fingerprints.json OUT.json

Exits non-zero when a replay fails or prints no fingerprint.
"""
import argparse
import json
import os
import subprocess
import sys

SEED = 7


def parse_value(text):
    return int(text) if text.lstrip("-").isdigit() else text


def fingerprint(root, workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith("fingerprint: "):
            fields = (item.split("=", 1) for item in line[len("fingerprint: "):].split())
            return {key: parse_value(value) for key, value in fields}
    raise RuntimeError(f"{workload}: run.py printed no fingerprint")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    result = {"seed": SEED, "workloads": {w: fingerprint(root, w) for w in workloads}}
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({len(workloads)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
