#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) built against the repository's crates by path, into
$CARGO_TARGET_DIR when set. The binary's last stdout line is the JSON
result; this wrapper checks that its metric names are exactly the ones
BENCHMARK.json declares for the mode, and exits non-zero if the build, the
run or that check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench")] + sys.argv[1:],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if run.returncode not in (0, 1):
        sys.stdout.write(lines[-1] + "\n")
        return run.returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "1"
    declared = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    reported = set(json.loads(lines[-1])["metrics"])
    if reported != declared:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, undeclared %s"
              % (sorted(declared - reported), sorted(reported - declared)), file=sys.stderr)
        return 4
    sys.stdout.write(lines[-1] + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
