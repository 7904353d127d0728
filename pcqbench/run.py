#!/usr/bin/env python3
"""Build pcq's benchmark binary from this checkout and run one workload.

    python3 pcqbench/run.py --workload compress|read|mixed --seed N \
        --seconds S --trace 0|1 [--smoke] [--fault]

Run from the repository root. The binary is built with the repository's
own CMake build (tests, benches and examples off) into `.bench_build`, or
into $CARGO_TARGET_DIR when that is set. The last line of stdout is the
result document; build output goes to stderr. Exits non-zero, printing no
result, when the program cannot be built or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("pcqbench: no CMakeLists.txt at %s; nothing to build" % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", build_dir,
             "-DPCQ_BUILD_TESTS=OFF", "-DPCQ_BUILD_BENCH=OFF",
             "-DPCQ_BUILD_EXAMPLES=OFF",
             "-DCMAKE_PROJECT_pcq_INCLUDE=" + os.path.join(HERE, "CMakeLists.txt")],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pcqbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pcqbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compress", "read", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and short phases (self-tests)")
    ap.add_argument("--fault", action="store_true",
                    help="corrupt one expected answer (negative control)")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("pcqbench: build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(build_dir, "work")]
    if args.smoke:
        cmd.append("--smoke")
    if args.fault:
        cmd.append("--fault")
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("pcqbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit("pcqbench: benchmark binary exited with %d" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
