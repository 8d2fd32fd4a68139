#!/usr/bin/env python3
"""Build the host-time benchmark from source and run it.

Run from the repository root:

    python3 hostbench/run.py --workload kb-markers --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go
build cache, temporary files and the binary all live in .bench_build at
the repository root, so the benchmark reads and writes only inside the
checkout. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hostbench")


def go_env():
    dirs = {
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOPATH": os.path.join(BUILD, "go-path"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(dirs)
    # Build offline with the installed toolchain and no workspace or
    # ambient flags, so the build is the same wherever it runs.
    env.update({"GOTOOLCHAIN": "local", "GOPROXY": "off", "GOWORK": "off",
                "GOFLAGS": "", "GOENV": "off"})
    return env


def main():
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # Replace this process with the benchmark, so nothing is left to
    # outlive it or to stop separately.
    sys.stdout.flush()
    os.execve(BINARY, [BINARY] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
