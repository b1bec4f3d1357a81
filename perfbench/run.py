#!/usr/bin/env python3
"""Builds the libvdm benchmark from source and runs it.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <flash_crowd|churn_stream|paper_sweep>
        --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke] [--perturb]

The library (../src) and the benchmark are configured with CMake in Release
mode under the build directory ($CARGO_TARGET_DIR, default .bench_build,
relative to the checkout root) and rebuilt incrementally on every call. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Without the library sources the build fails and the script exits
non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    """Configures (once) and builds the benchmark; returns the executable."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "vdm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "vdm_perfbench"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 1
    exe = build()
    sys.stdout.flush()
    return subprocess.run([str(exe)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
