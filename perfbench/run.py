#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig9-exact --seed 1 --seconds 25 --trace 0

The benchmark is the Go module in this directory (perfbench/go.mod), which
builds against the repository's own packages through a replace directive.
Every build output, the Go build cache, and the traced runs' CPU profiles
and span traces stay under .bench_build/ at the repository root. The last
line of standard output is the JSON result; notes go to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; the program to measure is missing",
              file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    args = sys.argv[1:]
    out = os.path.join(build, "perfbench")
    return subprocess.run([binary, "-out", out] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
