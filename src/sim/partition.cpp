#include "sim/partition.hpp"

#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "serve/repl_link.hpp"
#include "serve/serve_harness.hpp"
#include "support/failpoint.hpp"

namespace rpt::sim {

namespace {

void ApplyLenient(serve::ServeHarness& harness,
                  std::span<const incremental::UpdateEvent> events) {
  try {
    harness.ApplyAndPublish(events);
  } catch (const InvalidArgument&) {
    // Rejected batches publish nothing in any life; skipping them
    // everywhere keeps primary, follower and oracle in lockstep.
  }
}

struct Observed {
  std::uint64_t version;
  std::uint64_t hash;
};

Observed Snap(const serve::ServeHarness& harness) {
  const auto ref = harness.Pin();
  return Observed{ref->Version(), ref->CanonicalHash()};
}

/// Polls `pred` every 5 ms until it holds or `deadline_ms` passes.
template <typename Pred>
bool PollFor(int deadline_ms, Pred&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

}  // namespace

PartitionResult RunPartitionFailover(const Instance& instance,
                                     const incremental::UpdateTrace& trace,
                                     const PartitionConfig& config) {
  RPT_REQUIRE(!trace.empty(), "partition: trace must be non-empty");
  RPT_REQUIRE(config.fault_at_batch <= trace.size(),
              "partition: fault index past the end of the trace");
  RPT_REQUIRE(config.fault != PartitionFault::kPrimaryStopBeforeVerify ||
                  config.fault_at_batch < trace.size(),
              "partition: a stop before VERIFY needs a batch after the fault index");
  RPT_REQUIRE(!config.primary_dir.empty() && !config.follower_dir.empty(),
              "partition: needs primary and follower state directories");

  fail::DisarmAll();
  PartitionResult result;

  // Oracle pass first: per-batch (version, hash) of an uninterrupted,
  // disk-free run. oracle_at[i] is the state after batches 1..i.
  std::vector<Observed> oracle_at;
  oracle_at.reserve(trace.size() + 1);
  {
    serve::ServeHarness oracle(instance, config.solver);
    oracle_at.push_back(Snap(oracle));  // state at seq 0 (initial publish)
    for (const auto& batch : trace) {
      ApplyLenient(oracle, batch);
      oracle_at.push_back(Snap(oracle));
    }
    result.oracle_version = oracle_at.back().version;
    result.oracle_hash = oracle_at.back().hash;
  }

  serve::DurabilityOptions primary_durability;
  primary_durability.dir = config.primary_dir;
  primary_durability.checkpoint_every = config.checkpoint_every;
  serve::DurabilityOptions follower_durability;
  follower_durability.dir = config.follower_dir;
  follower_durability.checkpoint_every = config.checkpoint_every;

  serve::ServeHarness primary_harness(instance, config.solver, primary_durability);
  auto follower_harness = std::make_unique<serve::ServeHarness>(
      instance, config.solver, follower_durability);

  serve::ReplPrimaryOptions primary_options;
  primary_options.io_timeout_ms = 200;
  // Short ack wait: during the partition the primary's Applies can never be
  // acked, and each one would otherwise stall for the full window.
  primary_options.ack_wait_ms = 200;
  serve::ReplPrimary primary(primary_harness, primary_options);
  primary.Start(/*port=*/0);

  serve::ReplFollowerOptions follower_options;
  follower_options.io_timeout_ms = 20;
  follower_options.heartbeat_timeout_ms = config.heartbeat_timeout_ms;
  auto follower = std::make_unique<serve::ReplFollower>(
      *follower_harness, primary.Port(), follower_options);
  follower->Start();
  RPT_CHECK(primary.WaitForFollowers(1, /*timeout_ms=*/5000));
  if (config.heartbeat_timeout_ms > 0) {
    primary.Heartbeat();  // open the follower's liveness window
  }

  try {
    // Phase 1: clean replication through the fault batch. Each Apply waits
    // for the follower's ack, so the watermark tracks the loop exactly.
    for (std::uint64_t i = 0; i < config.fault_at_batch; ++i) {
      try {
        (void)primary.Apply(trace[i]);
      } catch (const InvalidArgument&) {
      }
      if (config.heartbeat_timeout_ms > 0) primary.Heartbeat();
    }
    RPT_CHECK(follower->WaitForSeq(config.fault_at_batch, /*timeout_ms=*/5000));
    // The follower applied everything; give its last ack time to land (the
    // seq wait fires before the ack frame is even sent). Keep heartbeating
    // meanwhile so a short promotion window cannot expire mid-poll.
    RPT_CHECK(PollFor(5000, [&] {
      if (config.heartbeat_timeout_ms > 0) primary.Heartbeat();
      return primary.Watermark() >= config.fault_at_batch;
    }));
    result.watermark = primary.Watermark();
    result.shipped_acks = follower->Core().Applied();

    // Phase 2: the fault.
    std::uint64_t applied_by_primary = config.fault_at_batch;
    switch (config.fault) {
      case PartitionFault::kNone:
        break;
      case PartitionFault::kPartition: {
        fail::ArmSticky("repl.partition", fail::Action::kError);
        // Partitioned-primary writes: applied and logged locally, shipped
        // into the void, never acked — the split-brain ingredient.
        const std::uint64_t extra =
            std::min<std::uint64_t>(config.extra_primary_batches,
                                    trace.size() - applied_by_primary);
        for (std::uint64_t i = 0; i < extra; ++i) {
          try {
            (void)primary.Apply(trace[applied_by_primary + i]);
          } catch (const InvalidArgument&) {
          }
        }
        applied_by_primary += extra;
        break;
      }
      case PartitionFault::kPrimaryStop:
        primary.Stop();
        break;
      case PartitionFault::kPrimaryStopBeforeVerify: {
        // The next batch's RECORD ships, then the primary "dies" before
        // its VERIFY. Stop it only once the follower has staged the
        // record, so the window is hit deterministically.
        const std::uint64_t staged_before = follower->Core().Staged();
        fail::Arm("repl.pre_verify", fail::Action::kThrow);
        try {
          (void)primary.Apply(trace[applied_by_primary]);
        } catch (const fail::InjectedFault&) {
        }
        RPT_CHECK(PollFor(5000, [&] { return follower->Core().Staged() > staged_before; }));
        primary.Stop();
        break;
      }
    }

    // Phase 3: failover. Optionally bounce the follower through its own
    // crash/recovery first — promotion must ride on durable state only.
    if (config.restart_follower_before_promote) {
      follower->Stop();
      follower.reset();
      follower_harness.reset();  // releases the WAL handle
      follower_harness = serve::ServeHarness::RecoverFrom(instance, config.solver,
                                                          follower_durability);
      // The recovered harness is promoted directly (no link to a dead or
      // unreachable primary): durably bump the epoch, serve as primary.
      follower_harness->AdoptEpoch(follower_harness->Epoch() + 1);
      follower_harness->SetFollower(false);
      result.follower_seq = follower_harness->LastDurableSeq() - 1;  // epoch record
    } else if (config.heartbeat_timeout_ms > 0) {
      RPT_CHECK(PollFor(config.heartbeat_timeout_ms * 20 + 2000,
                        [&] { return follower->Promoted(); }));
      result.follower_seq = follower_harness->LastDurableSeq() - 1;
    } else {
      // Read after Promote, which serializes with the link thread (it may
      // have staged a batch right up to the fault).
      follower->Promote();
      result.follower_seq = follower_harness->LastDurableSeq() - 1;  // epoch record
    }
    result.promoted_epoch = follower_harness->Epoch();

    // The failover contract, part 1: nothing acked is lost, and the state
    // at the follower's seq is byte-identical to the oracle's.
    const Observed at_promotion = Snap(*follower_harness);
    result.watermark_state_matches =
        result.follower_seq >= result.watermark &&
        result.follower_seq < oracle_at.size() &&
        at_promotion.version == oracle_at[result.follower_seq].version &&
        at_promotion.hash == oracle_at[result.follower_seq].hash;

    // Phase 4: the promoted follower resumes the trace from ITS durable
    // seq (re-applying anything the partitioned primary did alone — those
    // writes were never acked and carry no authority).
    for (std::uint64_t i = result.follower_seq; i < trace.size(); ++i) {
      ApplyLenient(*follower_harness, trace[i]);
    }
    const Observed final_state = Snap(*follower_harness);
    result.final_version = final_state.version;
    result.final_hash = final_state.hash;
    result.final_match = final_state.version == result.oracle_version &&
                         final_state.hash == result.oracle_hash;

    // Phase 5 (partition only): heal and confirm the fence. The old
    // primary's next heartbeat carries the stale epoch; the promoted
    // follower answers FENCE; the primary's next Apply must refuse.
    if (config.fault == PartitionFault::kPartition && follower) {
      fail::Disarm("repl.partition");
      // The deposed primary, unaware, keeps writing: its first post-heal
      // RECORD carries the stale epoch, so the promoted follower refuses it
      // at the record level (StaleEpochRejections) and answers FENCE.
      if (applied_by_primary < trace.size()) {
        try {
          (void)primary.Apply(trace[applied_by_primary]);
        } catch (const InvalidArgument&) {
        } catch (const InternalError&) {
          // A FENCE from an earlier heartbeat already landed — also fine.
        }
      }
      const bool fenced = PollFor(3000, [&] {
        primary.Heartbeat();
        return primary.Fenced();
      });
      bool apply_refused = false;
      if (fenced) {
        try {
          (void)primary.Apply(trace[0]);
        } catch (const InternalError&) {
          apply_refused = true;  // thrown before touching state
        }
      }
      result.primary_fenced = fenced && apply_refused;
      result.stale_epoch_rejections = follower->StaleEpochRejections();
    }
  } catch (...) {
    fail::DisarmAll();
    if (follower) follower->Stop();
    primary.Stop();
    throw;
  }

  fail::DisarmAll();
  if (follower) follower->Stop();
  primary.Stop();
  return result;
}

}  // namespace rpt::sim
