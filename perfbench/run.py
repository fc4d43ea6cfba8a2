#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The release build goes to
$CARGO_TARGET_DIR (default `.bench_build` in the checkout); build output
goes to stderr, so the last stdout line is the benchmark's JSON result.
With `--trace 1` the recorded spans are written to
`<target dir>/perfbench-trace/<workload>-seed<n>.jsonl`.
Exits non-zero, printing no result, if the workspace sources are missing
or the build or run fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# The crates the benchmark builds against; without them there is nothing to measure.
SOURCES = [ROOT / "Cargo.toml", ROOT / "crates", ROOT / "shims"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout, stdout):
    """Runs cmd to completion; on timeout kills it and waits for it to end."""
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"timed out after {timeout}s: {' '.join(map(str, cmd))}", file=sys.stderr)
            return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in SOURCES if not p.exists()]
    if missing:
        print(f"workspace sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    if run(build, env, BUILD_TIMEOUT_S, sys.stderr) != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1

    binary = target / "release" / "aabft-perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        trace_out = target / "perfbench-trace" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-out", str(trace_out)]
    sys.stdout.flush()
    return run(cmd, env, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
