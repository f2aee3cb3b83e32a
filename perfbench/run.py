#!/usr/bin/env python3
"""Build and run one workload of the iriscast end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload in turn; its last line then sums
`attempted` and `failed` and names each metric `<workload>.<metric>`.
The benchmark crate (perfbench/Cargo.toml) is built from source with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build` at the checkout root), then run. The last line of standard output is the
result object: `correct`, `attempted`, `failed` and `metrics` (every
end-to-end metric with `--trace 0`, every per-layer metric with
`--trace 1`). Reports and span traces are written to `perfbench/out/`.
Any failure to build or run exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("snapshot_day", "live_wire", "backfill", "cosim_week")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# What the tree digest covers when the checkout carries no git metadata.
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench/Cargo.toml",
                "perfbench/src")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_rev():
    """The git revision, or a digest of the source tree when the
    checkout is not a git repository."""
    if (ROOT / ".git").exists():
        rev = command_output(["git", "rev-parse", "HEAD"])
        if rev:
            return rev
    digest = hashlib.sha256()
    for top in SOURCE_ROOTS:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file() and "target" not in p.parts)
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if not configured:
        return ROOT / ".bench_build"
    path = pathlib.Path(configured)
    return path if path.is_absolute() else ROOT / path


def main():
    args = parse_args()
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(target_dir())
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    binary = target_dir() / "release" / "iriscast-perfbench"
    fingerprint = ["--rustc", command_output(["rustc", "--version"]) or "unknown",
                   "--rev", source_rev()]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        cmd = [str(binary),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--out", str(HERE / "out")] + fingerprint
        try:
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=RUN_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: {workload} did not finish: {e}", file=sys.stderr)
            return 1
        sys.stderr.write(run.stderr)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.stderr.write(run.stdout)
            print(f"run.py: {workload} exited with {run.returncode}", file=sys.stderr)
            return run.returncode or 1
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print(f"run.py: {workload} printed a malformed result line", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[workload] = result
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
