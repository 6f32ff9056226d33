#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program is built from the checkout's sources into .bench_build/
(Go's build cache, temporary files and module cache are kept there too, so
nothing outside the checkout is read or written beyond the Go toolchain
itself), then run with the same arguments. Its last line of standard output
is the JSON result. The exit code is the program's, or non-zero when the
build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run is meant to end within 180 s: at most 60 s of measurement plus
# one repetition and, when traced, the microbenchmarks. A program still
# running at 170 s is stopped.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    # XDG_CONFIG_HOME is where Go keeps its telemetry counters.
    for name, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                      ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                      ("XDG_CONFIG_HOME", "config")):
        env[name] = os.path.join(BUILD, sub)
        os.makedirs(env[name], exist_ok=True)
    # No network: every dependency is inside the checkout.
    env.update(GOPROXY="off", GOFLAGS="-mod=readonly -buildvcs=false",
               GOTOOLCHAIN="local", GOSUMDB="off", GOENV="off", CGO_ENABLED="0")
    return env


def build():
    """Build the benchmark; go build is incremental, so a rebuild of an
    unchanged checkout only re-checks the sources."""
    os.makedirs(BUILD, exist_ok=True)
    try:
        proc = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=os.path.join(ROOT, "perfbench"), env=go_env(),
            stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def main():
    if not build():
        return 1
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
