#!/usr/bin/env python3
"""Build the benchmark and `wx` from this checkout, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to standard error, and the
last line of standard output is the benchmark's result object. A result
line that lacks a metric BENCHMARK.json declares for the run's mode, or
carries one it does not, is withheld and the run fails. Extra arguments
pass through to the benchmark binary (e.g. `--calibrate`). See
perfbench/README.md.
"""

import json
import os
import subprocess
import sys

# The crates the benchmark builds against; without them this is not a
# checkout of the repository and there is nothing to measure.
REQUIRED = [
    "Cargo.toml",
    "Cargo.lock",
    "crates/lab/Cargo.toml",
    "crates/serve/Cargo.toml",
    "perfbench/Cargo.toml",
]


def main() -> int:
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(
            "perfbench: run from the repository root; missing " + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "wx-serve", "--bin", "wx"],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        # Build output must not reach standard output, whose last line is
        # the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(target, "release", "perfbench")
    wx = os.path.join(target, "release", "wx")
    out = os.path.join(root, "perfbench", "out")
    cmd = [binary, "--wx", wx, "--out", out] + sys.argv[1:]
    if "--calibrate" in sys.argv:
        return subprocess.run(cmd, env=env).returncode
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        return done.returncode or 1
    # The binary has parsed the arguments, so `--trace` has its value.
    traced = sys.argv[sys.argv.index("--trace") + 1] == "1"
    problem = check_result(lines[-1], traced)
    if problem:
        sys.stderr.write(done.stdout)
        print("perfbench: result line withheld: " + problem, file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


def check_result(line: str, traced: bool) -> str:
    """Why the result line breaks BENCHMARK.json's contract, or ''."""
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    try:
        result = json.loads(line)
    except ValueError:
        return "not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "keys are " + ", ".join(sorted(result))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        return "attempted is not a whole number of at least 1"
    declared = manifest["per_layer" if traced else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    missing = sorted(set(wanted) - set(got))
    extra = sorted(set(got) - set(wanted))
    wrong_unit = sorted(n for n in wanted if n in got and got[n] != wanted[n])
    if missing or extra or wrong_unit:
        return "missing {}; undeclared {}; wrong unit {}".format(missing, extra, wrong_unit)
    return ""


if __name__ == "__main__":
    sys.exit(main())
