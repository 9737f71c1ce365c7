#!/usr/bin/env python3
"""Build and run the a64fxcc repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (the a64fxcc libraries from src/ plus the benchmark
program) under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, then runs one workload and relays its output.  The last
line of stdout is the result JSON; build output goes to stderr.  Result
files, layer tables and Chrome traces are written to <build dir>/out.
Exits non-zero without a result when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_cold", "seed_sweep_warm", "kernel_advisor")
# A run must end within 180 s, so the workload process is stopped before.
RUN_TIMEOUT_S = 170
# Set-up, the untimed checks and the CPU calibration come on top of
# --seconds; this leaves them 50 s before RUN_TIMEOUT_S.
MAX_SECONDS = 120
BUILD_TIMEOUT_S = 840


def build(src: Path, build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(src), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be 1..{MAX_SECONDS}: longer runs cannot "
                 f"finish within the {RUN_TIMEOUT_S} s run timeout")

    here = Path(__file__).resolve().parent
    root = here.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    try:
        exe = build(here, build_dir)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--git-sha", git_sha(root)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
