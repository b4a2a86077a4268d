#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library plus the benchmark program from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, 2 build jobs);
later calls reuse that build. The program's standard output is passed
through; its last line is the JSON result. Build output goes to stderr. Any
failure (build, wrong answer, crash) exits non-zero without a result line.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "2"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    binary = os.path.join(out, "rlc_perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", BUILD_JOBS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout must end with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return binary


def pin_cpus(argv):
    """Pins the run to the last one (hash_spill: two) of the allowed CPUs.

    The client is single-threaded except hash_spill's two-thread execution
    pool; a fixed CPU set keeps runs from migrating between cores, which
    otherwise shows up as tail-latency noise.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return
    want = 2 if "hash_spill" in argv else 1
    if len(allowed) > want:
        os.sched_setaffinity(0, set(allowed[-want:]))


def main():
    out = build_dir()
    binary = build(out)
    if binary is None or not os.path.exists(binary):
        return 2
    pin_cpus(sys.argv[1:])
    env = dict(os.environ)
    env["PERFBENCH_WORK_DIR"] = os.path.join(out, "work")
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    # A terminated runner stops the program too and waits for it to end.
    signal.signal(signal.SIGTERM, lambda signum, frame: proc.terminate())
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
