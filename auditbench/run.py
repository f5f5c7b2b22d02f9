#!/usr/bin/env python3
"""Builds the daemon and the benchmark client from source, then runs one
benchmark invocation.

    python3 auditbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the result
object; the line before it carries the run's metadata. Exits non-zero,
without a result, when either build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, *cargo_args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args]
    # Build output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"auditbench: build failed: {' '.join(cmd)}")


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("auditbench: no leakaudit workspace to build next to the benchmark")
    # The daemon exactly as the workspace builds it, and the client.
    build(env, "-p", "leakaudit-service", "--bin", "leakaudit-serve")
    build(env, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    bench = os.path.join(target, "release", "leakaudit-auditbench")
    server = os.path.join(target, "release", "leakaudit-serve")
    done = subprocess.run([bench, "--server", server, *sys.argv[1:]], cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
