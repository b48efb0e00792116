#!/usr/bin/env python3
"""Builds and runs the qmaplib end-to-end benchmark.

    python3 perfbench/run.py --workload serve_paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build) with CMake,
then run with the same arguments; its last stdout line is the JSON result.
Build output goes to stderr. Exits non-zero when the build fails, or the run
fails or times out. The binary reads the metric names and units from
BENCHMARK.json itself.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_paper", "compile_fig2", "stream_clifford")
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "qmap_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "qmap_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no qmaplib sources next to the benchmark "
              f"({ROOT / 'src'} missing)", file=sys.stderr)
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", str(ROOT),
               "--work-dir", str(build_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    print(proc.stdout.rstrip("\n"))
    if proc.returncode != 0:
        print(f"run.py: benchmark exited with {proc.returncode}",
              file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
