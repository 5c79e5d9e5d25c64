#!/usr/bin/env bash
# Perf trajectory tracking: runs the hot-path kernel bench, the
# incremental-engine event sweep, the mutable-topology churn sweep, the
# serve-layer publish/query bench, and the sharded forest solve in Release,
# and writes one combined BENCH_hotpath.json (aggregate report *including*
# wall time statistics, the incremental_sweep and topology_sweep
# churn/speedup sections, the serve_qps snapshot-swap section, and the
# shard_forest per-worker RSS section). The report is stamped with an "env"
# section (hw_threads) saying what kind of machine recorded it. CI uploads
# the JSON as a workflow artifact so every commit leaves a per-kernel timing
# trail, and diffs it against the committed baseline.
#
# Usage: scripts/bench_perf.sh [build-dir] [output-json]
#   build-dir     default: build
#   output-json   default: BENCH_hotpath.json
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_hotpath.json}"

for bench in bench_hotpath bench_incremental bench_topology bench_serve bench_shard; do
  if [[ ! -x "$BUILD_DIR/$bench" ]]; then
    echo "$bench not found in $BUILD_DIR — build the benches first" >&2
    exit 1
  fi
done

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

"$BUILD_DIR/bench_hotpath" --json "$TMP_DIR/hotpath.json"
"$BUILD_DIR/bench_incremental" --json "$TMP_DIR/incremental.json"
"$BUILD_DIR/bench_topology" --json "$TMP_DIR/topology.json"
# Eight query threads, as every serve_qps row so far was recorded.
"$BUILD_DIR/bench_serve" --threads 8 --json "$TMP_DIR/serve.json"
# bench_shard contributes the shard-oracle comparison group plus the
# "shard_forest" per-worker RSS section (real subprocess workers via wait4).
"$BUILD_DIR/bench_shard" --seeds=2 --work-dir="$TMP_DIR/shard-work" \
  --json "$TMP_DIR/shard.json"
python3 "$(dirname "$0")/merge_bench_json.py" "$OUT_JSON" \
  "$TMP_DIR/hotpath.json" "$TMP_DIR/incremental.json" "$TMP_DIR/topology.json" \
  "$TMP_DIR/serve.json" "$TMP_DIR/shard.json"
python3 - "$OUT_JSON" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path, "r", encoding="utf-8") as handle:
    report = json.load(handle)
report["env"] = {"hw_threads": os.cpu_count() or 1}
with open(path, "w", encoding="utf-8") as handle:
    json.dump(report, handle, separators=(",", ":"))
    handle.write("\n")
PY
echo "wrote $OUT_JSON"
