// Partition/failover scenario: drive an update trace through a replicated
// pair (durable primary + durable follower over a live repl_link), inject a
// fault mid-trace — a hard partition of the replication stream or a primary
// death — promote the follower, and verify the whole failover contract
// against an uninterrupted in-memory oracle:
//
//  * at promotion, the follower's published snapshot is (version,
//    CanonicalHash)-identical to the oracle at the follower's durable seq,
//    and that seq is >= the primary's replication watermark (no acked
//    write is lost);
//  * the promoted follower resumes the remainder of the trace and finishes
//    (version, hash)-identical to the oracle's final state;
//  * after the partition heals, the deposed primary is fenced: its next
//    heartbeat is answered with FENCE and its next Apply throws.
//
// The fault dimensions the oracle tests sweep (tests/test_repl.cpp):
//   fault kind      × hard partition (sticky repl.partition) / primary stop
//                     / primary stop between a batch's RECORD and VERIFY
//   crash point     × fault batch index along the trace; optionally crash
//                     AND recover the follower from its own WAL before
//                     promoting (the promotion must survive the restart)
//   promotion mode  × manual Promote() (deterministic) / heartbeat-window
//                     expiry (real failover timing)
//
// Determinism: with manual promotion everything is deterministic given
// (instance, trace, config) — replication is ack-waited batch by batch, so
// the follower's seq at the fault is exact. Heartbeat-window promotion is
// wall-clock driven; the scenario only asserts invariants that hold for
// ANY promotion instant past the fault.
#pragma once

#include <cstdint>
#include <string>

#include "incremental/incremental_solver.hpp"
#include "incremental/update_event.hpp"
#include "model/instance.hpp"

namespace rpt::sim {

enum class PartitionFault : std::uint8_t {
  kNone = 0,          ///< no fault: replicate the whole trace, then promote
  kPartition = 1,     ///< sticky repl.partition — both directions drop
  kPrimaryStop = 2,   ///< primary process "dies" (listener + conns torn down)
  /// The primary dies inside batch fault_at_batch + 1, after its RECORD
  /// shipped and before its VERIFY (repl.pre_verify). The follower holds
  /// the batch staged and WAL-durable; promotion publishes it, so the
  /// follower's seq is one past the watermark.
  kPrimaryStopBeforeVerify = 3,
};

struct PartitionConfig {
  std::string primary_dir;   ///< fresh durable dir for the primary
  std::string follower_dir;  ///< fresh durable dir for the follower
  /// 1-based index of the last batch replicated cleanly; the fault fires
  /// after it (0 = fault before any batch). kPrimaryStopBeforeVerify needs
  /// a batch after it.
  std::uint64_t fault_at_batch = 0;
  PartitionFault fault = PartitionFault::kPartition;
  /// Partitioned-primary writes: after the fault, the primary applies this
  /// many further trace batches locally (they cannot replicate, are never
  /// acked, and must not be required of the promoted follower).
  std::uint64_t extra_primary_batches = 0;
  /// Crash the follower after the fault and recover it from its own WAL
  /// before promoting — the promotion decision must survive a restart.
  bool restart_follower_before_promote = false;
  /// 0 = promote manually (deterministic); > 0 = configure the follower to
  /// auto-promote after this many ms without a heartbeat and wait for it.
  int heartbeat_timeout_ms = 0;
  std::uint64_t checkpoint_every = 0;  ///< follower + primary checkpoint cadence
  incremental::SolverOptions solver;
};

struct PartitionResult {
  std::uint64_t watermark = 0;       ///< primary's watermark when the fault hit
  std::uint64_t follower_seq = 0;    ///< follower durable seq at promotion
  std::uint64_t promoted_epoch = 0;  ///< epoch after promotion (>= 2)
  std::uint64_t shipped_acks = 0;    ///< records the follower applied pre-fault
  /// (version, hash) of the follower's snapshot at promotion == oracle after
  /// `follower_seq` batches, AND follower_seq >= watermark.
  bool watermark_state_matches = false;
  std::uint64_t final_version = 0;  ///< promoted follower after resuming the trace
  std::uint64_t final_hash = 0;
  std::uint64_t oracle_version = 0;
  std::uint64_t oracle_hash = 0;
  bool final_match = false;
  /// Post-heal fencing (kPartition only): the deposed primary observed
  /// FENCE and its Apply threw.
  bool primary_fenced = false;
  std::uint64_t stale_epoch_rejections = 0;  ///< follower-side fence count
};

/// Runs the scenario described above. Throws InvalidArgument on an empty
/// trace or a fault index past the trace end (or at it, for
/// kPrimaryStopBeforeVerify); propagates InternalError
/// (divergence, recovery refusal) — the scenario never papers over a loud
/// failure. Disarms all failpoints on every exit path.
[[nodiscard]] PartitionResult RunPartitionFailover(
    const Instance& instance, const incremental::UpdateTrace& trace,
    const PartitionConfig& config);

}  // namespace rpt::sim
