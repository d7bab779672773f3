#!/usr/bin/env python3
"""Build the censorship-simulator benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-campaign --seed 2018 --seconds 10 --trace 0

The Go toolchain builds perfbench/ (a module of its own that points at the
checkout root through a replace directive) into .bench_build/, with the
build cache, temporary files and Go's config directories kept there too,
so the run reads and writes nothing outside the checkout. The arguments
are handed to the built binary unchanged; its exit code is ours.

Outside a full checkout (no go.mod at the root) the build fails and this
script exits with code 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s holds no go.mod; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    env = go_env()
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build: %s" % err, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode, file=sys.stderr)
        return 2
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process with the benchmark: no child is left behind.
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
