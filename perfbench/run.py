#!/usr/bin/env python3
"""Build the pmlp benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The first run configures and builds the
library and the pmlp_perfbench binary (Release) under $CARGO_TARGET_DIR
(default .bench_build); later runs only check the build is current. Build
output goes to stderr, so the last line on stdout is the binary's JSON
result. The exit code is the binary's: 0 every check passed, 1 a check
failed, 2 a usage error. Without the library sources next to this
directory the script exits 2 before building anything.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "pmlp_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "pmlp_perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "pmlp", "CMakeLists.txt")):
        print("run.py: the pmlp sources (src/pmlp) are not next to "
              "perfbench/; nothing to build", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
