#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bursty-mesh64 --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary stay under
.bench_build/ in the checkout; spans of a traced run go to .bench_out/.
Arguments are passed to the benchmark binary (see main.go). A failed
build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    args = [binary, *sys.argv[1:], "--commit", commit, "--out", os.path.join(ROOT, ".bench_out")]
    os.chdir(ROOT)
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
