// Durable event log + snapshot checkpoints for the serving layer.
//
// ## WAL file format (`wal.log`)
//
// Binary, little-endian throughout:
//
//   magic   8 bytes   "RPTWAL1\0"
//   record* :
//     len   u32       payload byte count (1 .. kMaxWalRecordBytes)
//     crc   u32       CRC-32 (IEEE) of the payload bytes
//     payload:
//       seq     u64   batch sequence number (strictly increasing, first = 1)
//       count   u32   number of events in the batch, or kEpochMarker
//                     (0xFFFFFFFF) for an epoch record: the payload then
//                     carries one u64 — the new epoch. Epoch records consume
//                     a seq like any batch (recovery's contiguity check
//                     covers them) but apply nothing to the solver; they are
//                     how a promoted follower makes its fencing token
//                     durable (serve/repl_link.hpp).
//       event*  :
//         kind   u8   incremental::UpdateEvent::Kind
//         client u32  target node id
//         delta  u64  signed demand delta, two's-complement
//         value  u64  demand / capacity / edge length
//         parent u32  migration target
//         nspec  u32  SubtreeSpec node count (kAttachSubtree only, else 0)
//         spec-node* : kind u8 | parent u32 | delta u64 | requests u64
//
// A batch is logged BEFORE IncrementalSolver::Apply sees it — including
// batches Apply will reject. That ordering is the one that keeps the log and
// memory consistent under any single failure: an append that fails leaves
// the solver untouched, and a batch that fails validation is re-rejected
// deterministically on replay (Apply is a pure function of solver state and
// events). The alternative — log after Apply — can admit a state the log
// never heard about. Consequence: WAL `seq` counts attempted batches, while
// snapshot versions count successful ones; checkpoints record both.
//
// ## Torn-tail policy (the recovery invariant)
//
// `Read` walks records from the front and stops at the first invalid one
// (short header, insane len, short payload, CRC mismatch, or garbage after
// a valid parse). Then:
//   * if NO structurally valid record (sane len + matching CRC) can be
//     framed anywhere in the remaining bytes, the damage is a torn tail —
//     the classic crash-during-append shape. The tail is dropped
//     (`dropped_bytes` reports it) and recovery restores the exact state of
//     the preceding prefix.
//   * if a valid record DOES follow the damage, bytes the log once
//     committed are gone from the middle — that is interior corruption, not
//     a crash artifact, and replaying around the hole would fabricate a
//     state the system never passed through. Read throws InternalError:
//     loudly wrong beats silently wrong.
// Seq numbers must be strictly increasing across surviving records; a
// violation is also interior corruption (loud).
//
// ## Checkpoint file format (`ckpt-<seq 20 digits>.rpt`)
//
// Text, sealed by a trailing CRC line over every preceding byte:
//
//   rpt-ckpt v1
//   seq <last logged seq> version <last published version> capacity <W>
//   <rpt-overlay v1 body — tree/serialize.hpp, slot ids preserved>
//   crc <8 hex digits>
//
// The overlay body preserves slot ids including tombstones, so WAL-tail
// events recorded against pre-checkpoint ids replay against the restored
// state unchanged. Checkpoints are written tmp + fsync + rename (atomic:
// a crash mid-write leaves a stale tmp file, never a half checkpoint);
// `LoadNewestCheckpoint` verifies the CRC and falls back to the next-newest
// file — or to WAL-only recovery — when a checkpoint is damaged. The two
// newest checkpoints are retained; older ones are pruned after a
// successful write.
//
// ## Failpoints (support/failpoint.hpp)
//
//   wal.append       before any bytes are written (kThrow/kCrash)
//   wal.append.short kShortOp: write only `param` bytes, then die — the
//                    canonical torn-record producer
//   wal.sync         kError: treated as fsync failure — the torn append is
//                    repaired (file truncated back to the committed length)
//                    and InternalError thrown so the harness degrades
//   wal.trim         kError: TrimThrough fails before touching the file —
//                    the untrimmed log is left fully intact
//   ckpt.write       before the checkpoint tmp file is renamed into place
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "incremental/update_event.hpp"
#include "support/common.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt::serve {

/// Hard sanity cap on one record's payload (a batch of ~10k topology events
/// stays far under this; a corrupted length field almost never does).
inline constexpr std::uint32_t kMaxWalRecordBytes = 1u << 20;

/// Marker value of the payload `count` field for epoch records.
inline constexpr std::uint32_t kEpochMarker = 0xFFFFFFFFu;

/// One logged record, as read back from the WAL: an event batch, or an
/// epoch bump (epoch_bump set, events empty).
struct WalBatch {
  std::uint64_t seq = 0;
  std::vector<incremental::UpdateEvent> events;
  bool epoch_bump = false;
  std::uint64_t epoch = 0;  ///< the new epoch (epoch records only)
};

/// Result of scanning a WAL file front-to-back.
struct WalReadResult {
  std::vector<WalBatch> batches;   ///< every intact record, in log order
  std::uint64_t valid_bytes = 0;   ///< prefix length covering `batches`
  std::uint64_t dropped_bytes = 0; ///< torn tail discarded past the prefix
};

/// Append-oriented handle on a WAL file. Not thread-safe: the ServeHarness
/// serializes ApplyAndPublish, and the WAL inherits that contract.
class EventWal {
 public:
  EventWal(EventWal&& other) noexcept;
  EventWal& operator=(EventWal&& other) noexcept;
  EventWal(const EventWal&) = delete;
  EventWal& operator=(const EventWal&) = delete;
  ~EventWal();

  /// Scans `path` and returns every intact batch plus the torn-tail
  /// accounting. A missing file reads as empty. Throws InternalError on
  /// interior corruption (see the torn-tail policy above) and
  /// InvalidArgument on a bad magic.
  [[nodiscard]] static WalReadResult Read(const std::string& path);

  /// Opens (creating if absent) `path` for appending. A torn tail found
  /// during the opening scan is truncated away first, so every subsequent
  /// append lands on a clean committed prefix. With `sync` set, each append
  /// is fsync'd before it is reported durable.
  [[nodiscard]] static EventWal OpenForAppend(const std::string& path,
                                              bool sync = true);

  /// Serializes and appends one batch record. On an injected or real I/O
  /// failure the file is truncated back to the last committed record and
  /// InternalError is thrown (the append simply never happened); an
  /// injected crash (fail::InjectedFault / process exit) leaves the torn
  /// tail in place for recovery to find. `seq` must exceed the last
  /// committed seq. Returns the framed record exactly as written — the
  /// bytes the replication link ships.
  std::string Append(std::uint64_t seq,
                     std::span<const incremental::UpdateEvent> events);

  /// Appends one epoch record (the durable fencing token of a promoted
  /// follower). Same failure/repair semantics as Append.
  void AppendEpoch(std::uint64_t seq, std::uint64_t epoch);

  /// Last sequence number committed to this handle's file (0 when empty).
  [[nodiscard]] std::uint64_t LastSeq() const noexcept { return last_seq_; }

  /// Committed file length in bytes (magic included).
  [[nodiscard]] std::uint64_t CommittedBytes() const noexcept {
    return committed_bytes_;
  }

  /// Rewrites `path` keeping only records with seq > `through_seq` (atomic
  /// tmp + rename). Called after a checkpoint to bound replay length.
  static void TrimThrough(const std::string& path, std::uint64_t through_seq);

  /// Serializes one batch payload (exposed for the corpus tests, which
  /// need to know CRC-covered byte ranges to flip).
  [[nodiscard]] static std::string EncodeBatchPayload(
      std::uint64_t seq, const std::vector<incremental::UpdateEvent>& events);

  /// Serializes one epoch-record payload.
  [[nodiscard]] static std::string EncodeEpochPayload(std::uint64_t seq,
                                                      std::uint64_t epoch);

  /// Wraps a payload in the on-disk record framing (len u32 | crc u32 |
  /// payload) — the exact bytes Append writes and the replication link
  /// ships.
  [[nodiscard]] static std::string FrameRecord(const std::string& payload);

  /// Decodes one framed record (as produced by FrameRecord). Returns
  /// nullopt on structural damage (short frame, insane len, CRC mismatch,
  /// trailing bytes) — the transport-corruption shape a replication
  /// follower answers with a resync, never an apply. Throws InternalError
  /// when the CRC matches but the payload does not parse (a writer bug or
  /// version skew — loud, not retryable).
  [[nodiscard]] static std::optional<WalBatch> TryDecodeFramedRecord(
      const std::string& frame);

 private:
  EventWal() = default;

  std::string AppendPayload(std::uint64_t seq, const std::string& payload);

  int fd_ = -1;
  std::string path_;
  bool sync_ = true;
  std::uint64_t committed_bytes_ = 0;
  std::uint64_t last_seq_ = 0;
};

/// Everything a checkpoint captures: the solver's topology+demand state as
/// a self-contained overlay, the capacity, and the two counters recovery
/// must re-seed (`seq` = last batch logged when the checkpoint was cut,
/// `version` = last snapshot version published).
struct CheckpointState {
  std::uint64_t seq = 0;
  std::uint64_t version = 0;
  std::uint64_t epoch = 1;  ///< replication fencing epoch at checkpoint time
  Requests capacity = 0;
  TreeOverlay overlay;
};

/// Atomically writes `state` into `dir` as `ckpt-<seq>.rpt` and prunes all
/// but the two newest checkpoints. Throws InternalError on I/O failure.
void WriteCheckpoint(const std::string& dir, const CheckpointState& state);

/// Returns the newest checkpoint in `dir` that passes its CRC and parses
/// cleanly; damaged or partial files are skipped (recovery falls back to
/// an older checkpoint or a full WAL replay). nullopt when none survive.
/// Fallback is only SAFE when the WAL still covers every batch past the
/// fallback point — ServeHarness::RecoverFrom enforces that with a seq
/// contiguity check, so a damaged newest checkpoint whose records were
/// already trimmed out of the WAL fails loudly instead of rolling back.
[[nodiscard]] std::optional<CheckpointState> LoadNewestCheckpoint(
    const std::string& dir);

/// Highest checkpoint seq advertised by any `ckpt-<seq>.rpt` filename in
/// `dir`, loadable or not (0 when none). Recovery compares it against the
/// seq it actually reached: a larger advertised seq means the newest
/// checkpoint is damaged AND the batches it covered are gone from the
/// (trimmed) WAL — a gap that must refuse recovery, not silently lose data.
[[nodiscard]] std::uint64_t NewestCheckpointSeqHint(const std::string& dir);

}  // namespace rpt::serve
