#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0

The Go program is built into .bench_build/ with its build cache kept
there too, so nothing outside the checkout is written. All arguments are
passed through to the program; its standard output ends with one JSON
result line. The exit code is the program's, or 2 when the build fails
(for example when the module under test is not next to this directory).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
