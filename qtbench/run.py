#!/usr/bin/env python3
"""qtbench entry point: build the benchmark from source, then run one workload.

Usage (from the repository root):
    python3 qtbench/run.py --workload train_bulk --seed 1 --seconds 20 --trace 0

The first call configures and builds qtbench/CMakeLists.txt, which builds
the repository's qtserved and qtrouterd plus the qtbench client, into
.bench_build/ (or $CARGO_TARGET_DIR when set). Later calls rebuild only
what changed. Build output goes to stderr; stdout carries the run's
report, whose last line is the JSON result. Every run first executes the
benchmark's own self-tests. Exits non-zero, without a result line, when
the sources cannot be built, a self-test fails, or the run fails.
"""
import argparse
import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print(f"qtbench: {message}", file=sys.stderr)
    sys.exit(1)


def check_call(cmd, timeout):
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"{' '.join(cmd)}: {e}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no repository sources beside {HERE}; nothing to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    check_call(["cmake", "--build", build_dir, "--target", "qtbench_all",
                "-j", str(min(4, os.cpu_count() or 1))], 840)
    check_call([os.path.join(build_dir, "qtbench_selftest"),
                "--gtest_brief=1"], 60)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    out_dir = os.path.join(
        build_dir, "runs",
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [os.path.join(build_dir, "qtbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--bin-dir={os.path.join(build_dir, 'qtaccel', 'tools')}",
           f"--out-dir={out_dir}", f"--git-sha={git_sha()}"]
    sys.exit(run_contained(cmd))


def run_contained(cmd):
    """Runs cmd in its own process group and returns its exit code. The
    daemons qtbench spawns join that group; whatever of it outlives
    qtbench (a crash, or the time limit) is killed, and as the child
    subreaper this process reaps it before returning."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"qtbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    return code


if __name__ == "__main__":
    main()
