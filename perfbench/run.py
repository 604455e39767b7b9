#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads: build-2d, build-3d, service-zipf, dataplane-lossy (see
perfbench/perfbench.cc for what each one drives). The first call configures
and compiles perfbench/ (which compiles the library from src/) into
perfbench/build; later calls only rebuild what changed. Build output goes to
stderr; stdout carries the benchmark's report, whose last line is the result
object.

The benchmark binary refuses to measure (exit 3) when an OMT_* toggle
(OMT_OBS, OMT_FAST_MATH, OMT_FAST_MATH_SIMD, OMT_KERNEL_TABLES, OMT_THREADS)
is off its default.
"""

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"


def build():
    """Configure and compile (both no-ops when up to date); output to stderr.
    Raises on failure."""
    out = sys.stderr
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=out, stderr=out)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j4", "--target", "omt_perfbench",
         "perfbench_selftest"],
        check=True, stdout=out, stderr=out)


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (path and content)."""
    digest = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and BUILD not in p.parents)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode

    sys.stdout.flush()
    command = [str(BUILD / "omt_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit_id(),
               "--source-digest", source_digest()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
