#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Builds the driver (Release, into .bench_build/ at the repository root)
from the sources in this checkout, runs it from the repository root and
passes its output through.  The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the line
before it is the run row keyed by revision, host, nproc, compiler,
build type, workload and seed.  Build logs go to standard error.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("explore", "explore-par", "corpus")
RUN_TIMEOUT_S = 170  # one measured run, after the build


def revision():
    """The git revision, or a digest of the sources when there is no git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "examples", "tests/data", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources (src/CMakeLists.txt) in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cacbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Keep the compiler's and the driver's temporary files in the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    build(env)
    cmd = [str(BUILD / "cacbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--root", ".", "--work-dir", ".bench_build/perfbench",
           "--revision", revision()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run did not finish in time")
    if run.returncode != 0:
        sys.exit("perfbench: driver exited with %d" % run.returncode)
    sys.stdout.write(run.stdout.decode())


if __name__ == "__main__":
    main()
