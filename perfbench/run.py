#!/usr/bin/env python3
"""Build and run the streamhull end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest-accept --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/ (the library, the streamhulld daemon and
the benchmark runner) into .bench_build/ on first use, then runs the runner
and relays its output. The last line of standard output is the runner's JSON
result. Exits non-zero, without a result line, when the build fails, and
non-zero with a result line when an output check fails.

The runner and the daemon it spawns start with address-space randomization
off, so every run places code, heap and stacks at the same addresses. With
randomization on, where the allocator's blocks and the hot loops happen to
land moved single-threaded ingest throughput by up to a fifth between runs
of the same seed.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("ingest-accept", "fleet-tick", "server-fanin")
RUN_TIMEOUT_S = 170


def build(jobs):
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        sys.exit("perfbench/run.py: run from the repository root")
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        sys.exit("perfbench/run.py: the streamhull sources are missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(jobs)],
        stdout=sys.stderr, check=True)


def fix_address_layout():
    """Turns address-space randomization off for processes started from here.

    personality(2) flags survive fork and exec, so the runner and the daemon
    inherit it. Where the call is refused the runs stay randomized; the
    runner's machine line says which.
    """
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        current = libc.personality(0xffffffff)
        if current != -1 and not current & addr_no_randomize:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build(min(4, os.cpu_count() or 1))
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("perfbench/run.py: build failed: %s" % err)

    run_dir = os.path.join(BUILD_DIR, "run")
    os.makedirs(run_dir, exist_ok=True)
    fix_address_layout()
    cmd = [os.path.join(BUILD_DIR, "streamhull_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(BUILD_DIR, "streamhull", "streamhulld"),
           "--run-dir", run_dir]
    # Own process group, so a timeout also takes down any daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench/run.py: benchmark timed out")
    out = stdout.rstrip("\n")
    print(out, flush=True)
    last = out.splitlines()[-1] if out else ""
    try:
        result = json.loads(last)
    except ValueError:
        sys.exit("perfbench/run.py: no result line (exit %d)" % proc.returncode)
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
