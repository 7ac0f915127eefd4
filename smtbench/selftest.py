#!/usr/bin/env python3
"""Self-test of the smtsim benchmark, at tiny budgets (about a minute).

Run from the root of a checkout:

    python3 smtbench/selftest.py

It checks that
  * every workload, traced and untraced, ends its stdout with a result
    line of exactly the keys correct/attempted/failed/metrics, passes its
    own output checks, and emits every metric BENCHMARK.json names for
    that mode -- each finite and with BENCHMARK.json's unit;
  * a replay against an empty store counts its misses as failures
    instead of reporting fast replays;
  * run.py fails, printing no result, in a directory that holds only
    BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = [*CONFIG["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def check_result(workload, trace):
    proc, result = run_bench(workload, trace)
    tag = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{tag}: exit code 0")
    if result is None:
        expect(False, f"{tag}: last stdout line is a JSON result")
        return
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{tag}: result has exactly the four keys")
    expect(result.get("correct") is True and result.get("failed") == 0,
           f"{tag}: output checks pass")
    expect(isinstance(result.get("attempted"), int)
           and result["attempted"] >= 1, f"{tag}: attempted >= 1")
    defs = CONFIG["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    expect(sorted(metrics) == sorted(d["name"] for d in defs),
           f"{tag}: emits exactly the {len(defs)} named metrics")
    for d in defs:
        m = metrics.get(d["name"], {})
        value = m.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value)
               and m.get("unit") == d["unit"],
               f"{tag}: {d['name']} is finite, unit {d['unit']}")


def check_empty_store():
    proc, result = run_bench("paper-replay", 0, "--empty-store")
    ok = (proc.returncode == 0 and result is not None
          and result["failed"] > 0 and result["correct"] is False)
    expect(ok, "paper-replay against an empty store counts failures")


def check_bare_directory():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    proc, result = run_bench("core-serial", 0, cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and result is None,
           "run.py fails without a result when the sources are absent")


def main():
    # core-serial is not in BENCHMARK.json (see README.md) but stays a
    # working workload.
    workloads = [w["name"] for w in CONFIG["workloads"]] + ["core-serial"]
    for workload in workloads:
        for trace in (0, 1):
            check_result(workload, trace)
    check_empty_store()
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
