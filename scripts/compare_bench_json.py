#!/usr/bin/env python3
"""Compare a regenerated BENCH_*.json against the committed one.

    scripts/compare_bench_json.py COMMITTED GENERATED

Both files must have the same keys in the same order, the same number of
rows in the same order, equal strings, booleans and integers, and floats
within 1e-6 relative (libm may differ in the last bits across hosts). Meant
for the virtual-clock benches (tail_sweep, cluster_kernel), whose output
carries no host-time column. Exits 1 and lists every mismatch otherwise.
"""
import json
import sys

REL_TOL = 1e-6


def compare(path, a, b, errors):
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            errors.append(f"{path}: keys {list(a)} != {list(b)}")
            return
        for key in a:
            compare(f"{path}.{key}", a[key], b[key], errors)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            errors.append(f"{path}: {len(a)} rows != {len(b)} rows")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare(f"{path}[{i}]", x, y, errors)
    elif isinstance(a, float) and isinstance(b, float):
        if abs(a - b) > REL_TOL * max(abs(a), abs(b)):
            errors.append(f"{path}: {a!r} != {b!r} (rel tol {REL_TOL})")
    elif type(a) is not type(b) or a != b:
        errors.append(f"{path}: {a!r} != {b!r}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        committed = json.load(f)
    with open(argv[2]) as f:
        generated = json.load(f)
    errors = []
    compare("$", committed, generated, errors)
    for e in errors:
        print(f"mismatch {e}", file=sys.stderr)
    if errors:
        return 1
    rows = len(committed.get("rows", []))
    print(f"ok: {argv[2]} matches {argv[1]} ({rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
