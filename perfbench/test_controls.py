#!/usr/bin/env python3
"""The benchmark's own tests: negative controls and the metric catalogue.

    python3 perfbench/test_controls.py

Each negative control arms a fault and asserts that the check meant to catch
it trips; the catalogue test asserts that every workload prints every
end-to-end metric of BENCHMARK.json, nonzero and in its unit, and that a
traced run prints every per-layer metric. Exits nonzero on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]

WORKLOADS = ("serve-read", "stream-write", "shard-solve", "paper-batch")


def run(workload, seconds, trace=0, control=None, seed=5):
    command = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)]
    if control:
        command += ["--control", control]
    done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900, check=False)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result


def metric(result, name):
    return result["metrics"][name]["value"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # tcp.serve.stall delays every request past the client timeout.
    code, result = run("serve-read", 3, trace=1, control="stall")
    expect(result is not None and code == 0 and metric(result, "tcp.timeouts") > 0
           and result["failed"] > 0,
           "stall control raises tcp.timeouts and failed_frac")

    # shard.worker.crash kills one worker per solve; the re-dispatch stays exact.
    code, result = run("shard-solve", 3, trace=1, control="worker-crash")
    expect(result is not None and code == 0 and result["correct"]
           and metric(result, "shard.redispatches") > 0 and result["failed"] > 0,
           "worker-crash control raises shard.redispatches, answers stay correct")
    expect(result is not None and set(result["metrics"]) ==
           {m["name"] for m in spec["per_layer"]},
           "a traced run prints every per-layer metric of BENCHMARK.json")

    # A wrong expected cost must fail the run.
    code, result = run("shard-solve", 1, control="wrong-cost")
    expect(code != 0 and result is not None and not result["correct"],
           "wrong-cost control makes the command exit nonzero")

    # Clean runs: every end-to-end metric, in its unit and nonzero; failed_frac 0.
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        code, result = run(workload, 2)
        printed = {} if result is None else result["metrics"]
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0 and set(printed) == set(declared)
               and all(printed[name]["unit"] == unit and printed[name]["value"] > 0
                       for name, unit in declared.items()),
               f"clean {workload} run prints every end-to-end metric with failed_frac 0")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
