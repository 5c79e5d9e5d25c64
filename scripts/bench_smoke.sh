#!/usr/bin/env bash
# Batch-engine determinism smoke: runs every BatchRunner-backed bench and
# example with a tiny sweep at --threads 1 and --threads 4 (batch workers)
# and fails when the deterministic JSON reports are not byte-identical. The
# benches whose cells run on one batch worker instead diff two runs of the
# same command. Also fails when any binary exits non-zero (their exit codes
# gate on BatchReport::AllOk()).
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

run_pair() {
  local name="$1"
  shift
  "$BUILD_DIR/$name" "$@" --threads=1 --json="$OUT_DIR/$name-t1.json" > /dev/null
  "$BUILD_DIR/$name" "$@" --threads=4 --json="$OUT_DIR/$name-t4.json" > /dev/null
  if ! diff "$OUT_DIR/$name-t1.json" "$OUT_DIR/$name-t4.json"; then
    echo "FAIL: $name JSON differs between --threads 1 and --threads 4"
    exit 1
  fi
  echo "OK: $name"
}

run_pair bench_scaling --seeds=2 --min-clients=256 --max-clients=1024
run_pair bench_ablations --seeds=3
run_pair bench_fig3_tightness --max-m=4
run_pair bench_fig4_tightness --max-k=8
run_pair bench_general_multiple --seeds=2
run_pair bench_i2_hardness --seeds=2
run_pair bench_i4_inapprox --seeds=2
run_pair bench_i6_hardness --seeds=2
run_pair bench_multbin_optimality --seeds=2
run_pair bench_policy_gap --seeds=2
run_pair bench_push_conjecture --seeds=3
run_pair cdn_vod --seeds=2 --clients=40
run_pair isp_qos --seeds=2 --clients=40
run_pair surge_replay --seeds=2 --clients=32 --ticks=60

# bench_incremental's --json embeds wall time (like bench_hotpath), and its
# cells run on one batch worker, so the determinism diff runs on two runs of
# its --det-json report: the incremental engine must plan byte-identically.
"$BUILD_DIR/bench_incremental" --clients=256 --ticks=12 --seeds=2 \
  --fractions=0.01,0.05 --det-json="$OUT_DIR/bench_incremental-a.json" > /dev/null
"$BUILD_DIR/bench_incremental" --clients=256 --ticks=12 --seeds=2 \
  --fractions=0.01,0.05 --det-json="$OUT_DIR/bench_incremental-b.json" > /dev/null
if ! diff "$OUT_DIR/bench_incremental-a.json" "$OUT_DIR/bench_incremental-b.json"; then
  echo "FAIL: bench_incremental det-json differs between two runs"
  exit 1
fi
echo "OK: bench_incremental"

# bench_topology streams mixed attach/detach/migrate/link traces through the
# delta-overlay; its deterministic report covers the costs, the validation
# against the COMPACTED world, and the Compact() output columns — all of
# which must be byte-identical between two runs. The speedup gate is
# disabled here (tiny workload, smoke only).
"$BUILD_DIR/bench_topology" --clients=256 --ticks=10 --seeds=2 \
  --churn=0.01,0.05 --min-speedup=0 --det-json="$OUT_DIR/bench_topology-a.json" > /dev/null
"$BUILD_DIR/bench_topology" --clients=256 --ticks=10 --seeds=2 \
  --churn=0.01,0.05 --min-speedup=0 --det-json="$OUT_DIR/bench_topology-b.json" > /dev/null
if ! diff "$OUT_DIR/bench_topology-a.json" "$OUT_DIR/bench_topology-b.json"; then
  echo "FAIL: bench_topology det-json differs between two runs"
  exit 1
fi
echo "OK: bench_topology"

# bench_serve likewise carries wall time (and QPS) only in --json; its
# deterministic --det-json covers the publish/query groups, which must hash
# identically no matter how many reader threads hammer the snapshot store.
"$BUILD_DIR/bench_serve" --clients=512 --ticks=12 --repeats=2 --qps-ticks=8 \
  --qps-min-ms=50 --threads=1 --det-json="$OUT_DIR/bench_serve-t1.json" > /dev/null
"$BUILD_DIR/bench_serve" --clients=512 --ticks=12 --repeats=2 --qps-ticks=8 \
  --qps-min-ms=50 --threads=4 --det-json="$OUT_DIR/bench_serve-t4.json" > /dev/null
if ! diff "$OUT_DIR/bench_serve-t1.json" "$OUT_DIR/bench_serve-t4.json"; then
  echo "FAIL: bench_serve det-json differs between --threads 1 and --threads 4"
  exit 1
fi
echo "OK: bench_serve"

# The TCP front-end demo checks its own wire answers against in-process ones.
"$BUILD_DIR/rpt_serve" --selftest --clients=128 --batches=4 > /dev/null
echo "OK: rpt_serve --selftest"

# Crash-recovery smoke: an uninterrupted durable run and a run that is
# KILLED mid-batch (real _Exit(137) via the armed failpoint) and then
# recovered from its WAL + checkpoints must write byte-identical final-state
# fingerprints ({version, hash, replicas, seq}).
"$BUILD_DIR/rpt_serve" --clients=128 --batches=8 --wal-dir="$OUT_DIR/svc-clean" \
  --checkpoint-every=3 --state-json="$OUT_DIR/serve-state-clean.json" > /dev/null
if "$BUILD_DIR/rpt_serve" --clients=128 --batches=8 --wal-dir="$OUT_DIR/svc-crash" \
  --checkpoint-every=3 --crash-at=5 > /dev/null 2>&1; then
  echo "FAIL: rpt_serve --crash-at=5 exited 0 instead of dying"
  exit 1
fi
"$BUILD_DIR/rpt_serve" --clients=128 --batches=8 --wal-dir="$OUT_DIR/svc-crash" \
  --checkpoint-every=3 --recover --state-json="$OUT_DIR/serve-state-recovered.json" > /dev/null
if ! diff "$OUT_DIR/serve-state-clean.json" "$OUT_DIR/serve-state-recovered.json"; then
  echo "FAIL: recovered rpt_serve state differs from the uninterrupted run"
  exit 1
fi
echo "OK: rpt_serve crash recovery"

# Kill-the-primary failover smoke: a replicating primary is KILLED mid-trace
# (real _Exit(137) at batch 5); its follower promotes after the heartbeat
# window and resumes the remaining batches itself. The promoted follower's
# final-state fingerprint must match an uninterrupted run's byte-for-byte —
# except "seq", where the durable epoch record of the promotion adds one.
"$BUILD_DIR/rpt_serve" --clients=128 --batches=8 --wal-dir="$OUT_DIR/repl-primary" \
  --repl-listen --repl-wait-followers=1 --ports-file="$OUT_DIR/repl-ports" \
  --crash-at=5 > /dev/null 2>&1 &
PRIMARY_PID=$!
for _ in $(seq 1 200); do
  [ -s "$OUT_DIR/repl-ports" ] && break
  sleep 0.05
done
REPL_PORT="$(sed -n 's/^repl=//p' "$OUT_DIR/repl-ports")"
if [ -z "$REPL_PORT" ] || [ "$REPL_PORT" = "0" ]; then
  echo "FAIL: replicating primary never published its replication port"
  exit 1
fi
"$BUILD_DIR/rpt_serve" --clients=128 --batches=8 --wal-dir="$OUT_DIR/repl-follower" \
  --follow="$REPL_PORT" --promote-after-ms=300 \
  --state-json="$OUT_DIR/serve-state-promoted.json" > /dev/null
if wait "$PRIMARY_PID"; then
  echo "FAIL: replicating primary with --crash-at=5 exited 0 instead of dying"
  exit 1
fi
sed 's/"seq":[0-9]*//' "$OUT_DIR/serve-state-clean.json" > "$OUT_DIR/clean-noseq.json"
sed 's/"seq":[0-9]*//' "$OUT_DIR/serve-state-promoted.json" > "$OUT_DIR/promoted-noseq.json"
if ! diff "$OUT_DIR/clean-noseq.json" "$OUT_DIR/promoted-noseq.json"; then
  echo "FAIL: promoted follower state differs from the uninterrupted run"
  exit 1
fi
echo "OK: rpt_serve kill-the-primary failover"

# Sharded-solve smoke: the deterministic fingerprint (feasible/cost/hash)
# must be byte-identical between --shards=1 and --shards=4 — the sharded
# solve is exact, not approximate. Small instance; in-process dispatch.
"$BUILD_DIR/rpt_shard" --internal=300 --clients=900 --shards=1 \
  --det-json="$OUT_DIR/rpt_shard-k1.json" > /dev/null
"$BUILD_DIR/rpt_shard" --internal=300 --clients=900 --shards=4 \
  --det-json="$OUT_DIR/rpt_shard-k4.json" > /dev/null
if ! diff "$OUT_DIR/rpt_shard-k1.json" "$OUT_DIR/rpt_shard-k4.json"; then
  echo "FAIL: rpt_shard det-json differs between --shards 1 and --shards 4"
  exit 1
fi
echo "OK: rpt_shard shards 1 vs 4"

# Worker-crash smoke: a REAL worker process is killed mid-solve (exit 137
# via the armed failpoint); the coordinator must report the death, re-spawn
# the shard, and still land on the byte-identical unsharded answer
# (--verify exits 1 on any cost/hash mismatch).
"$BUILD_DIR/rpt_shard" --internal=300 --clients=900 --shards=3 \
  --mode=subprocess --work-dir="$OUT_DIR/shard-crash" \
  --crash-at-cut=1 --max-attempts=2 --verify > /dev/null
echo "OK: rpt_shard worker crash + re-dispatch"

# instance_explorer spells its report flag --sweep-json.
"$BUILD_DIR/instance_explorer" --algo=single-gen --clients=40 --seeds=4 --threads=1 \
  --sweep-json="$OUT_DIR/explorer-t1.json" > /dev/null
"$BUILD_DIR/instance_explorer" --algo=single-gen --clients=40 --seeds=4 --threads=4 \
  --sweep-json="$OUT_DIR/explorer-t4.json" > /dev/null
if ! diff "$OUT_DIR/explorer-t1.json" "$OUT_DIR/explorer-t4.json"; then
  echo "FAIL: instance_explorer JSON differs between --threads 1 and --threads 4"
  exit 1
fi
echo "OK: instance_explorer"

echo "all batch reports byte-identical across thread counts and runs"
