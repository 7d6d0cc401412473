#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when it is unset. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; with
--workload all its metric names are prefixed with the workload name.
See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Everything whose change can change what the benchmark measures.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def source_hash():
    """SHA-256 over the sources, so a result names its code without git."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def output_of(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(ROOT, target, "release", "perfbench")

    rev = output_of(["git", "rev-parse", "HEAD"]) or "none"
    rustc = output_of(["rustc", "-V"]) or "unknown"
    common = ["--trace", args.trace, "--rev", rev, "--rustc", rustc,
              "--source-hash", source_hash()]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    if args.seconds is not None:
        common += ["--seconds", str(args.seconds)]

    if args.workload != "all":
        return subprocess.run([binary, "--workload", args.workload] + common,
                              cwd=ROOT).returncode

    names = output_of([binary, "--list"])
    if names is None:
        return 1
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names.split():
        run = subprocess.run([binary, "--workload", name] + common, cwd=ROOT,
                             capture_output=True, text=True)
        sys.stderr.write(run.stderr)
        lines = run.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if run.returncode != 0 or not lines:
            return run.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
