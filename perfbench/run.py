#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--control stall|worker-crash|wrong-cost]

Run it from the root of a checkout. It builds perfbench/ (which compiles the
checkout's src/) into .bench_build/, runs one workload for --seconds, checks
every answer, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. Untraced runs report every
end-to-end metric; traced runs report every per-layer metric, dump spans to
.bench_build/trace/ and report the tracing overhead against the last untraced
run of the same workload. A wrong answer, a failed build or a crash exits
nonzero. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve-read", "stream-write", "shard-solve", "paper-batch")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(env):
    """Configures once and builds incrementally; False when the build fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  env=env, timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step failed: {error}")
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            log("build failed")
            return False
    return BINARY.exists()


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10, check=False)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def tracing_overhead(lines, workload):
    """Lines comparing the traced run's end-to-end metrics with the last
    untraced run of the same workload."""
    traced = None
    for line in lines:
        if line.startswith("traced_end_to_end: "):
            traced = json.loads(line[len("traced_end_to_end: "):])
    saved = BUILD_ROOT / "results" / f"{workload}.untraced.json"
    if traced is None or not saved.exists():
        return ["tracing overhead: no untraced run of this workload to compare with"]
    untraced = json.loads(saved.read_text())
    out = [f"tracing overhead vs the last untraced {workload} run (seed {untraced['seed']}):"]
    for name, entry in traced.items():
        if name not in untraced["metrics"] or name in ("setup_s", "peak_rss_mib"):
            continue
        base = untraced["metrics"][name]["value"]
        value = entry["value"]
        share = (value - base) / base * 100.0 if base else 0.0
        out.append(f"  {name}: traced {value:.4f} vs untraced {base:.4f} {entry['unit']} "
                   f"({share:+.1f}%)")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--control", choices=("stall", "worker-crash", "wrong-cost"))
    args = parser.parse_args()

    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(env):
        return 3

    work_dir = BUILD_ROOT / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir), "--trace-dir", str(BUILD_ROOT / "trace"),
               "--commit", source_id()]
    if args.control:
        command += ["--control", args.control]
    # A session of its own, so a timeout can take down shard workers too.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.decode(errors="replace").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.stdout.write("\n".join(lines) + "\n")
        log(f"perfbench exited {child.returncode} without a result")
        return child.returncode or 5

    body = lines[:-1]
    if args.trace:
        body += tracing_overhead(lines, args.workload)
    elif result["correct"] and not args.control:
        saved = BUILD_ROOT / "results"
        saved.mkdir(parents=True, exist_ok=True)
        (saved / f"{args.workload}.untraced.json").write_text(
            json.dumps({"seed": args.seed, "metrics": result["metrics"]}))
    print("\n".join(body))
    print(lines[-1], flush=True)
    if child.returncode == 0 and not result["correct"]:
        return 1
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
