#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload table6 --seed 1 --seconds 40 --trace 0

Every argument is passed to the Go benchmark (see perfbench/main.go).
The binary, the Go build cache and the run's scratch files go under
$CARGO_TARGET_DIR (default .bench_build) at the repository root, so a
run reads and writes nothing outside the checkout. The benchmark module
builds against the enclosing repository (`replace onchip => ../`), so
outside a full checkout the build fails and the script exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        # The go command's telemetry counters live under the user
        # config directory; keep them inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--workdir", os.path.join(out, "work")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
