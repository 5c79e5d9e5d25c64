// ServeHarness — the in-process rpt-serve front end: one IncrementalSolver
// applying update batches, one SnapshotStore publishing the results, any
// number of query threads answering against pinned snapshots.
//
// This is the seam the always-on service is built around: callers that want
// a network boundary wrap the harness in a TcpServer (tcp_server.hpp);
// callers that want zero-copy serving (tests, benches, embedding into a
// larger process) use it directly. Either way the contract is the same:
//
//  * ONE update thread calls ApplyAndPublish(events) — the solver applies
//    the batch (atomic validation, incremental re-solve) and a fresh
//    immutable snapshot of the new state is built and published. A batch
//    that fails validation throws and publishes NOTHING: queries keep being
//    answered against the last good snapshot (this is what "always-on"
//    means — a bad update cannot take the service down or expose a torn
//    state).
//  * ANY number of threads call Query()/Pin() concurrently — each query
//    pins the current snapshot for exactly its own duration. Queries never
//    block on the solver or the publisher.
//
// ApplyAndPublish is two steps, and the replication link calls them apart:
// Stage logs the batch, applies it and builds its snapshot; Commit
// publishes. A follower holds a staged batch until the primary's VERIFY
// vouches for it (serve/repl_link.hpp); nothing else may run in between.
//
// An infeasible state (legal — e.g. a surge no placement can absorb) is
// still published: its snapshot has no replicas, which-replica/attach
// queries answer not-ok, and the version keeps advancing.
//
// ## Durability (optional)
//
// Constructed with DurabilityOptions, the harness writes every attempted
// batch to an EventWal BEFORE the solver sees it and cuts periodic
// checkpoint files (serve/event_wal.hpp has the formats and the rationale
// for log-then-apply). RecoverFrom() rebuilds a harness from a directory:
// newest intact checkpoint -> restored solver, then the WAL tail replays
// through the ordinary Apply path. Two counters with different meanings:
//
//  * seq      — attempted batches, == the WAL record count. Rejected
//               batches ARE logged (they consume a seq) and re-reject
//               deterministically on replay.
//  * version  — published snapshots, advanced only by successful applies.
//               Snapshot CanonicalHash mixes the version, so recovery
//               reconstructs it exactly: checkpoint version + replay
//               successes.
//
// Recovery publishes ONE snapshot (the final recovered state) rather than
// re-publishing every intermediate — byte-identical (CanonicalHash) to the
// uninterrupted run's latest, which the oracle tests enforce.
//
// ## Degraded mode
//
// When a durable append or the solve after it fails for any reason OTHER
// than batch validation (I/O error, fsync failure, internal invariant),
// the harness marks itself STALE: queries keep answering from the last
// good snapshot with QueryResponse::stale set, and the next successful
// ApplyAndPublish clears the flag. Validation failures (InvalidArgument)
// are the caller's bug, not degradation — they do not set the flag.
//
// Checkpoint failures are a third category: the batch that triggered a
// periodic checkpoint had already committed (logged, applied, published),
// so ApplyAndPublish contains the checkpoint's InternalError — an escape
// would misreport the apply as failed and invite a double-applying retry —
// and surfaces it via CheckpointFailures()/LastCheckpointError(). A failed
// WAL trim re-engages the untrimmed log (still valid, still holding every
// batch); only if even that reopen fails does the harness refuse further
// applies (loudly, via InternalError) rather than serve without a log.
//
// Ownership: the harness owns the solver and the store; the Instance must
// outlive the harness (same rule as IncrementalSolver).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "incremental/incremental_solver.hpp"
#include "serve/event_wal.hpp"
#include "serve/query.hpp"
#include "serve/snapshot_store.hpp"

namespace rpt::serve {

/// Switches on the durable (WAL + checkpoint) mode of ServeHarness.
struct DurabilityOptions {
  std::string dir;  ///< state directory (created if absent); one harness per dir
  /// Cut a checkpoint every N successful applies (0 = never; recovery then
  /// replays the whole log).
  std::uint64_t checkpoint_every = 0;
  bool sync_appends = true;       ///< fsync the WAL after every append
  bool trim_on_checkpoint = true; ///< rewrite the WAL keeping only post-checkpoint records
};

class ServeHarness {
 public:
  /// Solves `instance` from scratch and publishes snapshot version 1.
  explicit ServeHarness(const Instance& instance, incremental::SolverOptions options = {});

  /// Durable mode: like the plain constructor, plus every batch is WAL-
  /// logged and checkpoints are cut per `durability`. The directory must
  /// not already contain serving state (use RecoverFrom for that —
  /// silently re-initializing over a previous life's WAL would orphan it).
  ServeHarness(const Instance& instance, incremental::SolverOptions options,
               const DurabilityOptions& durability);

  /// Rebuilds a harness from `durability.dir`: loads the newest intact
  /// checkpoint (if any), replays the WAL tail through the normal apply
  /// path (logged batches that fail validation re-reject and are skipped),
  /// truncates any torn tail record, and publishes the recovered state as
  /// one snapshot — byte-identical (CanonicalHash) to the uninterrupted
  /// run's. Throws InternalError on interior WAL corruption, on a WAL tail
  /// that is not seq-contiguous with the loaded checkpoint, and when a
  /// damaged newest checkpoint's records are gone from the trimmed WAL
  /// (filenames advertise each checkpoint's seq): a log with a hole must
  /// never silently recover to a wrong table. An empty/missing directory
  /// recovers to the same state the durable constructor creates.
  [[nodiscard]] static std::unique_ptr<ServeHarness> RecoverFrom(
      const Instance& instance, incremental::SolverOptions options,
      const DurabilityOptions& durability);

  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  /// Applies one event batch to the solver and publishes a snapshot of the
  /// resulting state: Stage, then Commit. Returns the new state's
  /// feasibility. Throws InvalidArgument (and publishes nothing) when the
  /// batch fails the solver's atomic validation; throws InternalError (and
  /// enters degraded mode — see Stale()) on a durability failure. Single
  /// update thread only.
  bool ApplyAndPublish(std::span<const incremental::UpdateEvent> events);

  /// A batch that is logged and applied, with its snapshot built but not
  /// yet published. The replication link holds one between a follower's
  /// apply and the primary's verdict (serve/repl_link.hpp).
  struct StagedBatch {
    std::uint64_t seq = 0;  ///< WAL seq the batch consumed (0 when not durable)
    std::unique_ptr<const PlacementSnapshot> snapshot;  ///< null when rejected
    bool feasible = false;
    std::exception_ptr rejection;  ///< the solver's InvalidArgument, if any
  };

  /// Called by Stage once the batch is WAL-durable, before the solver sees
  /// it, with the framed record exactly as the WAL wrote it.
  using OnLogged = std::function<void(std::uint64_t seq, const std::string& record)>;

  /// The first half of ApplyAndPublish: logs the batch (durable mode),
  /// hands its record to `on_logged`, applies it and builds the next
  /// snapshot, publishing nothing. A batch that fails validation comes
  /// back with `rejection` set instead of throwing: it consumed its seq.
  /// Durability and internal failures throw as from ApplyAndPublish. Until
  /// the batch is committed the harness refuses another Stage, AdoptEpoch
  /// and Checkpoint. Update thread only.
  [[nodiscard]] StagedBatch Stage(std::span<const incremental::UpdateEvent> events,
                                  const OnLogged& on_logged = nullptr);

  /// The second half: publishes the staged snapshot (nothing for a
  /// rejected batch), clears the stale flag and cuts a due periodic
  /// checkpoint. Update thread only.
  void Commit(StagedBatch staged);

  /// Pins the current snapshot (always non-empty — the constructor
  /// publishes version 1 before returning). Any thread.
  [[nodiscard]] SnapshotStore::Ref Pin() const { return store_.Acquire(); }

  /// Pins the current snapshot, answers, unpins. Any thread.
  [[nodiscard]] QueryResponse Query(const QueryRequest& request) const;

  /// Queries answered via Query() over the harness lifetime.
  [[nodiscard]] std::uint64_t QueriesAnswered() const noexcept {
    return queries_answered_.load(std::memory_order_relaxed);
  }

  /// Snapshots published, including the constructor's initial one.
  [[nodiscard]] std::uint64_t Publishes() const noexcept { return store_.Publishes(); }

  /// True while the harness serves in degraded mode (see the header note).
  /// Any thread.
  [[nodiscard]] bool Stale() const noexcept {
    return stale_.load(std::memory_order_relaxed);
  }

  /// Replication fencing epoch (serve/repl_link.hpp). Starts at 1; bumped
  /// only by AdoptEpoch (a follower promoting, or a follower applying a
  /// shipped epoch record). Any thread.
  [[nodiscard]] std::uint64_t Epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Durably adopts `epoch` (>= the current one): in durable mode an epoch
  /// record is appended to the WAL first — it consumes a seq like any batch
  /// and replays on recovery — so a promoted follower's fencing token
  /// survives its own crash. Update thread only; same degraded-mode
  /// semantics as a failed batch append.
  void AdoptEpoch(std::uint64_t epoch);

  /// Follower flag: set while this harness applies a replicated stream
  /// rather than local writes. Queries answer with
  /// QueryResponse::follower so clients can tell a replica answered.
  void SetFollower(bool follower) noexcept {
    follower_.store(follower, std::memory_order_relaxed);
  }
  [[nodiscard]] bool IsFollower() const noexcept {
    return follower_.load(std::memory_order_relaxed);
  }

  /// Cuts a checkpoint of the current state now (durable mode only; no-op
  /// otherwise). Also trims the WAL when `trim_on_checkpoint` is set.
  /// Throws InternalError on failure; a failed trim re-engages the intact
  /// untrimmed log before rethrowing, so durability survives the error.
  /// (Periodic checkpoints triggered inside ApplyAndPublish contain this
  /// error instead — see LastCheckpointError().)
  void Checkpoint();

  /// Periodic (ApplyAndPublish-triggered) checkpoints that failed. Their
  /// InternalError is contained — the batch itself had already committed,
  /// so letting it escape would misreport the apply as failed — and
  /// surfaced here instead. Update thread only.
  [[nodiscard]] std::uint64_t CheckpointFailures() const noexcept {
    return checkpoint_failures_;
  }

  /// what() of the most recent contained periodic-checkpoint failure;
  /// empty when the last periodic checkpoint succeeded. Update thread only.
  [[nodiscard]] const std::string& LastCheckpointError() const noexcept {
    return last_checkpoint_error_;
  }

  /// True when constructed in durable mode (the durable constructor or
  /// RecoverFrom): every batch is WAL-logged and consumes a seq.
  [[nodiscard]] bool Durable() const noexcept { return !durability_.dir.empty(); }

  /// Last batch sequence number committed to the WAL (0 before the first
  /// append or in non-durable mode). Recovery resumes a trace at this
  /// index: everything up to and including it survived.
  [[nodiscard]] std::uint64_t LastDurableSeq() const noexcept { return seq_; }

  /// Batches replayed from the WAL tail by RecoverFrom (0 for a directly
  /// constructed harness).
  [[nodiscard]] std::uint64_t RecoveredBatches() const noexcept {
    return recovered_batches_;
  }

  [[nodiscard]] const incremental::IncrementalSolver& Solver() const noexcept {
    return *solver_;
  }
  [[nodiscard]] const SnapshotStore& Store() const noexcept { return store_; }

 private:
  struct RecoveredState;  // checkpoint + WAL tail, resolved before solver init
  ServeHarness(const Instance& instance, incremental::SolverOptions options,
               const DurabilityOptions& durability, RecoveredState&& recovered);

  void Publish(std::unique_ptr<const PlacementSnapshot> snapshot);
  [[nodiscard]] std::unique_ptr<const PlacementSnapshot> BuildCurrent() const;
  void MaybeCheckpoint();
  void RequireWal();
  void RequireNothingStaged() const;

  /// Behind a pointer (not a plain member) because recovery picks between
  /// the from-scratch and the restore constructor at runtime and the
  /// solver is neither copyable nor movable. Never null after construction.
  std::unique_ptr<incremental::IncrementalSolver> solver_;
  SnapshotStore store_;
  std::uint64_t next_version_ = 1;  // update-thread-owned
  bool staged_ = false;  // a Stage awaits its Commit (update-thread-owned)
  mutable std::atomic<std::uint64_t> queries_answered_{0};
  std::atomic<bool> stale_{false};
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<bool> follower_{false};

  // Durable mode only (wal_ disengaged otherwise — except after a failed
  // checkpoint trim whose reopen also failed, when durability_.dir is set
  // but wal_ is empty and RequireWal() refuses further applies). All
  // update-thread-owned.
  DurabilityOptions durability_;
  std::optional<EventWal> wal_;
  std::uint64_t seq_ = 0;                   ///< last WAL-committed batch seq
  std::uint64_t applies_since_checkpoint_ = 0;
  std::uint64_t recovered_batches_ = 0;
  std::uint64_t checkpoint_failures_ = 0;
  std::string last_checkpoint_error_;
};

}  // namespace rpt::serve
