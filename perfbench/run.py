#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload launch|zygote_churn|mem_pressure \
        --seed N --seconds S --trace 0|1

The first run in a checkout configures and builds the simulator library
and the perfbench binary (Release, one package under perfbench/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
re-check the build. The binary then replaces this process, so the
workload runs in a single process whose last stdout line is the JSON
result. Build output goes to build.log in the build directory; a failed
build prints its tail to stderr and exits non-zero.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cached_source_dir(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache) and cached_source_dir(cache) != HERE:
        shutil.rmtree(out)  # a build tree of another checkout
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                if not os.path.exists(os.path.join(out, "perfbench")):
                    shutil.rmtree(out, ignore_errors=True)
                sys.exit(3)
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
