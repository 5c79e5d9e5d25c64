#!/usr/bin/env python3
"""Per-kernel perf regression gate for the hot-path bench.

Diffs a fresh BENCH_hotpath.json against a baseline (normally the committed
one) and fails when any kernel's mean wall time regressed by more than the
threshold. Groups present on only one side are reported but never fail the
gate (new tiers appear, old ones retire); groups faster than --min-ms in the
baseline are compared but exempt from failing, since sub-millisecond kernels
are dominated by scheduler noise.

Report sections the gate does not consume (incremental_sweep,
topology_sweep, serve_qps, shard_forest, ...) are announced with an
explicit not-gated line each — nothing in the artifact is skipped silently.
The report's "env" section (hw_threads) says what the baseline was recorded
on.

Usage:
  scripts/bench_compare.py BASELINE.json FRESH.json [--threshold 0.25]
      [--min-ms 1.0]

Exit status: 0 when no kernel regressed past the threshold, 1 otherwise
(or 2 on malformed input).
"""

import argparse
import json
import sys


def load_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def group_means(report):
    """Returns {group name: mean elapsed ms} for every group with timing."""
    means = {}
    for group in report.get("groups", []):
        elapsed = group.get("elapsed_ms")
        if elapsed is None:
            continue
        means[group["group"]] = float(elapsed["mean"])
    return means


# Top-level sections the gate DOES consume; everything else in the merged
# report (incremental_sweep, topology_sweep, serve_qps, shard_forest, ...)
# rides along ungated and must be announced as such, never skipped silently.
GATED_SECTIONS = {"groups", "env", "cells", "errors"}


def report_ungated_sections(baseline_report, fresh_report):
    """Names every report section the gate does not check.

    A section that is present but silently ignored reads as "covered" to
    anyone skimming the CI log; each one gets an explicit not-gated line.
    """
    sections = sorted(
        (set(baseline_report) | set(fresh_report)) - GATED_SECTIONS
    )
    if not sections:
        return
    print("\nungated sections:")
    for section in sections:
        print(f"  {section}: not gated (no regression gate defined; "
              "recorded for the artifact trail only)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_hotpath.json (e.g. committed)")
    parser.add_argument("fresh", help="freshly generated BENCH_hotpath.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fail when fresh mean exceeds baseline mean by this fraction (default 0.25)",
    )
    parser.add_argument(
        "--min-ms",
        type=float,
        default=1.0,
        help="kernels below this baseline mean are reported but never fail (default 1.0)",
    )
    args = parser.parse_args()

    try:
        baseline_report = load_report(args.baseline)
        fresh_report = load_report(args.fresh)
        baseline = group_means(baseline_report)
        fresh = group_means(fresh_report)
    except (OSError, ValueError, KeyError) as error:
        print(f"bench_compare: cannot read reports: {error}", file=sys.stderr)
        return 2
    if not baseline or not fresh:
        print("bench_compare: no timed groups found in one of the reports", file=sys.stderr)
        return 2

    shared = sorted(set(baseline) & set(fresh))
    only_baseline = sorted(set(baseline) - set(fresh))
    only_fresh = sorted(set(fresh) - set(baseline))

    regressions = []
    width = max((len(g) for g in shared), default=10)
    print(f"{'kernel':<{width}}  {'base ms':>10}  {'fresh ms':>10}  {'delta':>8}  verdict")
    for group in shared:
        base_ms = baseline[group]
        fresh_ms = fresh[group]
        delta = (fresh_ms - base_ms) / base_ms if base_ms > 0 else 0.0
        regressed = delta > args.threshold and base_ms >= args.min_ms
        if regressed:
            verdict = f"REGRESSED (> {args.threshold:.0%})"
            regressions.append(group)
        elif delta > args.threshold:
            verdict = "noisy (below --min-ms, ignored)"
        else:
            verdict = "ok"
        print(f"{group:<{width}}  {base_ms:>10.3f}  {fresh_ms:>10.3f}  {delta:>+7.1%}  {verdict}")
    for group in only_baseline:
        print(f"{group:<{width}}  {baseline[group]:>10.3f}  {'-':>10}  {'':>8}  retired")
    for group in only_fresh:
        print(f"{group:<{width}}  {'-':>10}  {fresh[group]:>10.3f}  {'':>8}  new")

    report_ungated_sections(baseline_report, fresh_report)

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} kernel(s) regressed more than "
            f"{args.threshold:.0%}: {', '.join(regressions)}"
        )
        return 1
    print("\nOK: no kernel regressed past the threshold")
    return 0

if __name__ == "__main__":
    sys.exit(main())
