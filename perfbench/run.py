#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hot-rmw --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under the build directory
(CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
binary, the temp dir the durable workload keeps its data in, and the span
files of traced runs. The exit code is the benchmark's; a failed build
exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(out, name) for name in ("gocache", "gopath", "config", "tmp", "traces")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=dirs["gocache"],
        GOPATH=dirs["gopath"],
        GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
        XDG_CONFIG_HOME=dirs["config"],
        TMPDIR=dirs["tmp"],
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    bench = subprocess.run([binary, "--trace-dir", dirs["traces"]] + sys.argv[1:], env=env)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
