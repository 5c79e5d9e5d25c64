#include "serve/serve_harness.hpp"

#include <filesystem>
#include <utility>
#include <vector>

#include "support/failpoint.hpp"

namespace rpt::serve {

namespace fs = std::filesystem;

namespace {

std::string WalPath(const DurabilityOptions& durability) {
  return (fs::path(durability.dir) / "wal.log").string();
}

}  // namespace

/// Everything RecoverFrom digs out of the state directory before the
/// private constructor runs: the newest intact checkpoint (if any) and the
/// WAL records past it, in log order.
struct ServeHarness::RecoveredState {
  std::optional<CheckpointState> checkpoint;
  std::vector<WalBatch> tail;
  std::uint64_t last_seq = 0;  ///< max(checkpoint seq, last WAL seq)
};

ServeHarness::ServeHarness(const Instance& instance, incremental::SolverOptions options)
    : solver_(std::make_unique<incremental::IncrementalSolver>(instance, options)) {
  Publish(BuildCurrent());
}

ServeHarness::ServeHarness(const Instance& instance, incremental::SolverOptions options,
                           const DurabilityOptions& durability)
    : solver_(std::make_unique<incremental::IncrementalSolver>(instance, options)),
      durability_(durability) {
  RPT_REQUIRE(!durability.dir.empty(), "serve: durable mode needs a state directory");
  fs::create_directories(durability.dir);
  RPT_REQUIRE(!fs::exists(WalPath(durability)) &&
                  !LoadNewestCheckpoint(durability.dir).has_value(),
              "serve: '" + durability.dir +
                  "' already holds serving state; use RecoverFrom");
  wal_ = EventWal::OpenForAppend(WalPath(durability), durability.sync_appends);
  Publish(BuildCurrent());
}

ServeHarness::ServeHarness(const Instance& instance, incremental::SolverOptions options,
                           const DurabilityOptions& durability,
                           RecoveredState&& recovered)
    : durability_(durability) {
  std::uint64_t version = 1;  // the version a fresh harness publishes
  if (recovered.checkpoint) {
    version = recovered.checkpoint->version;
    epoch_.store(recovered.checkpoint->epoch, std::memory_order_relaxed);
    solver_ = std::make_unique<incremental::IncrementalSolver>(
        instance, std::move(recovered.checkpoint->overlay),
        recovered.checkpoint->capacity, options);
  } else {
    solver_ = std::make_unique<incremental::IncrementalSolver>(instance, options);
  }

  // Replay the tail through the ordinary Apply path. A logged batch that
  // fails validation was logged, REJECTED, and never published in the
  // first life — Apply is deterministic in (state, events), so it rejects
  // identically here and contributes no version. Epoch records restore the
  // fencing token and touch neither the solver nor the version.
  std::uint64_t successes = 0;
  for (const WalBatch& batch : recovered.tail) {
    if (batch.epoch_bump) {
      epoch_.store(batch.epoch, std::memory_order_relaxed);
      continue;
    }
    try {
      solver_->Apply(batch.events);
      ++successes;
    } catch (const InvalidArgument&) {
    }
  }
  recovered_batches_ = recovered.tail.size();
  seq_ = recovered.last_seq;

  // One publish of the final recovered state, carrying exactly the version
  // the uninterrupted run's latest snapshot had (CanonicalHash mixes the
  // version, so the recovery-equivalence oracle depends on this line).
  next_version_ = version + successes;
  Publish(BuildCurrent());

  wal_ = EventWal::OpenForAppend(WalPath(durability), durability_.sync_appends);
}

std::unique_ptr<ServeHarness> ServeHarness::RecoverFrom(
    const Instance& instance, incremental::SolverOptions options,
    const DurabilityOptions& durability) {
  RPT_REQUIRE(!durability.dir.empty(), "serve: RecoverFrom needs a state directory");
  fs::create_directories(durability.dir);

  RecoveredState recovered;
  recovered.checkpoint = LoadNewestCheckpoint(durability.dir);
  // Read throws InternalError on interior corruption: recovery must refuse
  // to replay around a hole in the log.
  WalReadResult wal = EventWal::Read(WalPath(durability));

  const std::uint64_t ckpt_seq =
      recovered.checkpoint ? recovered.checkpoint->seq : 0;
  recovered.last_seq = ckpt_seq;
  for (WalBatch& batch : wal.batches) {
    if (batch.seq <= ckpt_seq) continue;  // already folded into the checkpoint
    // Harness seqs are contiguous (rejected batches are logged too), so a
    // tail that does not pick up exactly one past the recovered seq means
    // committed batches are missing — the classic shape: the newest
    // checkpoint was damaged, LoadNewestCheckpoint fell back to an older
    // one, and trim_on_checkpoint already dropped the records in between.
    // Replaying around the gap would fabricate a state the system never
    // passed through; refuse, same as interior WAL corruption.
    if (batch.seq != recovered.last_seq + 1) {
      throw InternalError(
          "serve: WAL record seq " + std::to_string(batch.seq) +
          " does not follow recovered seq " +
          std::to_string(recovered.last_seq) + " in '" + durability.dir +
          "'; the batches in between are lost — refusing to recover a "
          "wrong state");
    }
    recovered.last_seq = batch.seq;
    recovered.tail.push_back(std::move(batch));
  }
  // The same gap with an empty (or short) tail: every checkpoint filename
  // advertises its seq, so a newest checkpoint that failed to load while
  // neither an older checkpoint nor the trimmed WAL reaches its seq means
  // data loss even though everything on disk parses cleanly.
  const std::uint64_t advertised = NewestCheckpointSeqHint(durability.dir);
  if (advertised > recovered.last_seq) {
    throw InternalError(
        "serve: a checkpoint file advertising seq " +
        std::to_string(advertised) + " exists in '" + durability.dir +
        "' but recovery only reaches seq " +
        std::to_string(recovered.last_seq) +
        "; the newest checkpoint is damaged and the WAL no longer covers "
        "the gap — refusing to recover a wrong state");
  }
  return std::unique_ptr<ServeHarness>(
      new ServeHarness(instance, options, durability, std::move(recovered)));
}

std::unique_ptr<const PlacementSnapshot> ServeHarness::BuildCurrent() const {
  // The published snapshot is the base: the new one shares every page this
  // batch left unchanged (none before the first publish).
  const SnapshotStore::Ref base = store_.Acquire();
  return PlacementSnapshot::Build(solver_->View(), solver_->Capacity(),
                                  solver_->Demands(), solver_->Current(),
                                  next_version_, base.get());
}

void ServeHarness::Publish(std::unique_ptr<const PlacementSnapshot> snapshot) {
  store_.Publish(std::move(snapshot));
  ++next_version_;
}

void ServeHarness::RequireNothingStaged() const {
  // A staged batch is applied but not published: a checkpoint, an epoch
  // record or a second batch cut in here would record a state whose
  // version was never assigned.
  if (staged_) {
    throw InternalError("serve: a staged batch awaits its Commit");
  }
}

void ServeHarness::RequireWal() {
  if (wal_) return;
  // Durable mode but no WAL handle: an earlier checkpoint trim failed AND
  // the log could not be reopened. Applying a batch the log would never
  // hear about silently forfeits durability — refuse instead.
  stale_.store(true, std::memory_order_relaxed);
  throw InternalError(
      "serve: WAL handle lost (earlier trim/reopen failure in '" +
      durability_.dir + "'); refusing to apply unlogged batches");
}

bool ServeHarness::ApplyAndPublish(std::span<const incremental::UpdateEvent> events) {
  StagedBatch staged = Stage(events);
  const bool feasible = staged.feasible;
  const std::exception_ptr rejection = staged.rejection;
  Commit(std::move(staged));
  if (rejection) std::rethrow_exception(rejection);
  return feasible;
}

ServeHarness::StagedBatch ServeHarness::Stage(
    std::span<const incremental::UpdateEvent> events, const OnLogged& on_logged) {
  RequireNothingStaged();
  StagedBatch staged;
  if (!durability_.dir.empty()) {
    RequireWal();
    // Log-then-apply: a batch the log never heard about must not reach the
    // solver. An append that fails with InternalError (real or injected
    // fsync/write error) repaired the file — the batch simply never
    // happened; serve the last good snapshot and mark it stale. An
    // InjectedFault (crash simulation) propagates with the torn tail left
    // on disk for RecoverFrom to truncate.
    std::string record;
    try {
      record = wal_->Append(seq_ + 1, events);
    } catch (const InternalError&) {
      stale_.store(true, std::memory_order_relaxed);
      throw;
    }
    staged.seq = ++seq_;
    if (on_logged) on_logged(staged.seq, record);
  }
  fail::Hit("serve.post_wal");  // crash window: logged but not applied

  try {
    staged.feasible = solver_->Apply(events);
    fail::Hit("serve.post_apply");  // crash window: applied but not published
  } catch (const InvalidArgument&) {
    // Validation failure: the caller's batch was bad, the solver state is
    // untouched, the last snapshot is NOT stale — nothing was lost.
    staged.rejection = std::current_exception();
  } catch (...) {
    stale_.store(true, std::memory_order_relaxed);
    throw;
  }
  if (!staged.rejection) staged.snapshot = BuildCurrent();
  staged_ = true;
  return staged;
}

void ServeHarness::Commit(StagedBatch staged) {
  RPT_CHECK(staged_);
  staged_ = false;
  if (staged.rejection) return;
  Publish(std::move(staged.snapshot));
  stale_.store(false, std::memory_order_relaxed);
  if (!durability_.dir.empty()) {
    ++applies_since_checkpoint_;
    MaybeCheckpoint();
  }
}

void ServeHarness::Checkpoint() {
  if (durability_.dir.empty()) return;
  RequireNothingStaged();
  RequireWal();
  // A checkpoint failure throws InternalError but does NOT mark the
  // harness stale: the published snapshot is current and the WAL still
  // holds every batch — recovery just replays a longer tail.
  CheckpointState state{seq_, next_version_ - 1, Epoch(), solver_->Capacity(),
                        solver_->ExportOverlay()};
  WriteCheckpoint(durability_.dir, state);
  applies_since_checkpoint_ = 0;
  if (durability_.trim_on_checkpoint) {
    // TrimThrough rewrites the file; drop the handle first and reopen on
    // the trimmed log (its record count restarts, our seq_ does not).
    const std::string path = WalPath(durability_);
    wal_.reset();
    try {
      EventWal::TrimThrough(path, state.seq);
      wal_ = EventWal::OpenForAppend(path, durability_.sync_appends);
    } catch (...) {
      // Trim (or the reopen after it) failed. Whatever is on disk — the
      // untrimmed log or the trimmed replacement — is still a valid WAL
      // holding every post-checkpoint batch: re-engage it so one transient
      // I/O error cannot silently disable durability. If even the reopen
      // fails, wal_ stays empty and RequireWal() makes the next apply
      // refuse loudly rather than skip logging.
      try {
        wal_ = EventWal::OpenForAppend(path, durability_.sync_appends);
      } catch (...) {
        stale_.store(true, std::memory_order_relaxed);
      }
      throw;
    }
  }
}

void ServeHarness::MaybeCheckpoint() {
  if (durability_.checkpoint_every == 0) return;
  if (applies_since_checkpoint_ < durability_.checkpoint_every) return;
  try {
    Checkpoint();
    last_checkpoint_error_.clear();
  } catch (const InternalError& error) {
    // The batch already committed: logged, applied, published. Letting a
    // checkpoint error escape would make ApplyAndPublish look failed and
    // invite a retry that double-logs and double-applies the batch.
    // Contain it — the WAL still holds every batch, so durability is
    // intact — and surface it through LastCheckpointError() instead.
    // (fail::InjectedFault is not an InternalError and still unwinds:
    // crash simulations must propagate.)
    last_checkpoint_error_ = error.what();
    ++checkpoint_failures_;
  }
}

void ServeHarness::AdoptEpoch(std::uint64_t epoch) {
  RPT_REQUIRE(epoch >= Epoch(),
              "serve: epoch may not move backwards (have " +
                  std::to_string(Epoch()) + ", asked " + std::to_string(epoch) +
                  ")");
  RequireNothingStaged();
  if (!durability_.dir.empty()) {
    RequireWal();
    // Durable first, visible second: a promoted follower whose epoch bump
    // is not on disk could crash, recover at the old epoch, and accept a
    // deposed primary's stream — the exact split-brain fencing exists to
    // prevent.
    try {
      wal_->AppendEpoch(seq_ + 1, epoch);
    } catch (const InternalError&) {
      stale_.store(true, std::memory_order_relaxed);
      throw;
    }
    ++seq_;
  }
  epoch_.store(epoch, std::memory_order_relaxed);
}

QueryResponse ServeHarness::Query(const QueryRequest& request) const {
  const SnapshotStore::Ref ref = Pin();
  RPT_CHECK(ref);  // the constructor publishes before any caller can query
  QueryResponse response = Answer(*ref, request);
  response.stale = stale_.load(std::memory_order_relaxed);
  response.follower = follower_.load(std::memory_order_relaxed);
  queries_answered_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

}  // namespace rpt::serve
