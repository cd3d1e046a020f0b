#!/usr/bin/env python3
"""Time-to-verdict benchmark for Icarus.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the icarus library, the `icarus` CLI and the benchmark driver from
source (Release, into .bench_build/perfbench; later runs reuse the build),
then runs the driver. Build output goes to stderr; the driver's last stdout
line is the JSON result. Exits nonzero without a result when the sources are
missing, the build fails, or any verdict is wrong.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep", "sweep_par", "cli_verify", "incremental")


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_driver",
         "icarus_cli"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the root of an icarus source checkout",
              file=sys.stderr)
        return 2
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    driver = subprocess.run(
        [os.path.join(build_dir, "perfbench_driver"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--icarus", os.path.join(build_dir, "icarus"),
         "--out", os.path.join(root, ".bench_build", "perfbench-out")],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(driver.stdout)
    return driver.returncode


if __name__ == "__main__":
    sys.exit(main())
