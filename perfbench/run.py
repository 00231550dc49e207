#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload apps --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench/main.exe from source
with dune (release profile, build directory from CARGO_TARGET_DIR or
.bench_build, dune cache off so nothing is written outside the
checkout), then runs it with the same arguments.  The benchmark prints
a summary on stderr and the result object as the last line of stdout;
this script passes both through and exits with its exit code.
Workloads: apps, chaos-audited, dc-trace, mcheck (see
perfbench/README.md).
"""

import os
import signal
import subprocess
import sys

# the benchmark's scratch files (recorded traces), removed on exit
WORK_DIR = ".perfbench-work-%d" % os.getpid()

# the benchmark itself must finish well inside three minutes
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def on_signal(signum, _frame):
    # unwinding through subprocess.run kills and reaps the benchmark
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing here")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "--display", "quiet", "perfbench/main.exe"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=800)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        bench = subprocess.run(
            [exe] + sys.argv[1:] + ["--work-dir", WORK_DIR], cwd=root, env=env,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark killed after %d s" % RUN_TIMEOUT_S)
    finally:
        for name in os.listdir(WORK_DIR):
            os.remove(os.path.join(WORK_DIR, name))
        os.rmdir(WORK_DIR)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
