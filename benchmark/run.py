#!/usr/bin/env python3
"""Build mlpo-benchmark from this source tree, then run one workload.

    python3 benchmark/run.py --workload mlp_40b --seed 0 --seconds 15 --trace 0

Every argument passes through to mlpo-benchmark (see benchmark/README.md).
The build tree is .bench_build/cmake at the repository root; scratch files
(real-storage roots, Chrome traces) go to .bench_build/work unless
--work-dir says otherwise. Build output goes to stderr, so the last line of
stdout is always the benchmark's result object. A failed build exits 1
without printing a result.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "mlpo-benchmark"


def build() -> bool:
    configured = (CMAKE_DIR / "CMakeCache.txt").exists() and any(
        (CMAKE_DIR / f).exists() for f in ("Makefile", "build.ninja"))
    if not configured:
        configure = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(CMAKE_DIR), "--target",
                   "mlpo-benchmark", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main() -> int:
    if not build():
        print("run.py: building mlpo-benchmark failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", str(BUILD / "work")]
    sys.stdout.flush()
    child = subprocess.Popen([str(BINARY)] + args)
    # Forward a termination request and wait, so no benchmark outlives us.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        return child.wait()
    except KeyboardInterrupt:
        child.terminate()
        child.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
