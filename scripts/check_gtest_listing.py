#!/usr/bin/env python3
"""Fails when a gtest binary lists its tests differently from run to run.

ctest names parameterized cases after gtest's printed parameter value, so a
parameter struct printed as raw bytes (padding included) gives test names
that change between runs and builds. This runs `--gtest_list_tests` on every
binary given, `--runs` times each, and fails on the first listing that
differs from the binary's first one.

Usage:
  scripts/check_gtest_listing.py [--runs N] BINARY...
"""

import argparse
import difflib
import subprocess
import sys


def listing(binary):
    return subprocess.run([binary, "--gtest_list_tests"], capture_output=True,
                          text=True, check=True).stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("binaries", nargs="+")
    args = parser.parse_args()
    unstable = 0
    for binary in args.binaries:
        first = listing(binary)
        for run in range(1, args.runs):
            again = listing(binary)
            if again != first:
                unstable += 1
                print(f"{binary}: listing of run {run + 1} differs from run 1")
                sys.stdout.writelines(difflib.unified_diff(
                    first.splitlines(True), again.splitlines(True), "run 1", f"run {run + 1}"))
                break
    if unstable:
        print(f"\nFAIL: {unstable} binary(ies) list their tests nondeterministically")
        return 1
    print(f"OK: {len(args.binaries)} binaries list identically over {args.runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
