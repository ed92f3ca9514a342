#!/usr/bin/env python3
"""Builds and runs the benchmark binary for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `perfbench` (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload in a
process of its own, and passes the binary's standard output through: the
last line is the result JSON, the line before it a detail block with the
host (cores, rustc, commit, source hash) and the seed. Build output goes
to standard error. Exits non-zero, printing no result, if the library
sources are missing, the build fails, the binary fails, or its metrics'
names and units differ from those BENCHMARK.json lists for the mode.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["clique-pushpull", "geo-flood", "reactor-delta-soak", "stream-rlc"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def source_hash():
    """SHA-256 over every source and manifest the binary is built from,
    so results from a checkout without git history still name the code."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", HERE / "Cargo.toml"]
    for top in (ROOT / "crates", HERE / "src"):
        files += [p for p in top.rglob("*") if p.suffix in (".rs", ".toml")]
    for p in sorted(set(files)):
        if p.is_file() and "target" not in p.relative_to(ROOT).parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        sys.exit(f"perfbench: no library sources next to {HERE.name}/; run from a full checkout")

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_HASH"] = source_hash()
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: {args.workload} failed ({run.returncode})")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"perfbench: malformed result line {lines[-1]!r}")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if args.trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        diff = sorted(set(want.items()) ^ set(got.items()))
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json in {diff}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
