#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload replay-paper --seed 1 --seconds 15 --trace 0

The Go toolchain's caches and the binary go to .bench_build/ at the
repository root, so a run reads and writes nothing outside the checkout.
All arguments are passed to the benchmark binary (see perfbench/main.go).
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOENV="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(built.returncode or 1)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
