#!/usr/bin/env python3
"""Build and run the smtsim benchmark.

Usage, from the root of a checkout:

    python3 smtbench/run.py --workload paper-cold|core-serial|paper-replay \\
        --seed N --seconds S --trace 0|1

The first run in a checkout configures and builds the simulator library,
the smtstore server and the smtbench driver from source (CMake, the
repository's default RelWithDebInfo build) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.
Build output goes to stderr. The driver's stdout is passed through: a
human-readable table, then one JSON result line. A failed build exits
with status 2 and prints no result.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_id():
    """Fingerprint of every source the benchmark builds from."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", ROOT / "tools", HERE)
                   for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build(build_dir):
    """Configure (once) and build; False when either step fails."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    return subprocess.run(cmd, stdout=log, stderr=log).returncode == 0


def main():
    if not (ROOT / "src" / "sim" / "simulator.hh").is_file():
        print("smtbench: simulator sources not found next to "
              f"{HERE.name}/", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) \
        / "smtbench"
    if not build(build_dir):
        print("smtbench: build failed", file=sys.stderr)
        return 2
    cmd = [str(build_dir / "smtbench"), *sys.argv[1:],
           "--data-dir", str(HERE),
           "--work-dir", str(build_dir / "work"),
           "--source-id", source_id()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
