// Replication & failover tests (serve/repl_link + sim/partition).
//
// Three layers:
//
//  * FollowerCore unit tests drive the socket-free RECORD/VERIFY state
//    machine directly — a staged batch publishes only on a matching
//    VERIFY, mismatches are loud, out-of-order frames resync — including
//    the same corruption corpus test_event_wal runs (truncate the framed
//    record at every byte, flip a bit in every byte): every damaged record
//    must come back kResync or throw, NEVER apply, and the pristine record
//    must still apply afterwards ("retry or loud, never divergent").
//
//  * Live-link tests run a real ReplPrimary + ReplFollower over loopback:
//    clean shipping, per-frame link faults (drop / dup / reorder) healing
//    through resync, and the follower bit on query responses.
//
//  * The failover oracle matrix (sim::RunPartitionFailover) sweeps
//    partition kind × fault position × follower-crash-before-promote ×
//    checkpoint cadence, plus heartbeat-window auto-promotion and a
//    dedicated split-brain scenario: the deposed primary's unacked writes
//    never survive, and after the partition heals it is fenced.
//
// Satellites covered here too: TcpServer max_connections busy guard,
// BackoffDelayMs cap/jitter/determinism, and TcpClient endpoint failover.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_tree.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "serve/event_wal.hpp"
#include "serve/net_util.hpp"
#include "serve/repl_link.hpp"
#include "serve/serve_harness.hpp"
#include "serve/tcp_server.hpp"
#include "sim/partition.hpp"
#include "support/crc32.hpp"
#include "support/failpoint.hpp"

namespace rpt::serve {
namespace {

namespace fs = std::filesystem;
using incremental::MakeRandomTrace;
using incremental::TraceConfig;
using incremental::UpdateEvent;
using incremental::UpdateTrace;

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/rpt_repl_XXXXXX";
    path = ::mkdtemp(buf);
  }
  ~TempDir() { fs::remove_all(path); }
};

Instance MakeInstance(std::uint64_t seed) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 30;
  cfg.clients = 80;
  cfg.max_children = 4;
  cfg.min_requests = 0;
  cfg.max_requests = 9;
  return Instance(gen::GenerateRandomTree(cfg, seed), /*capacity=*/18);
}

UpdateTrace ChurnTrace(const Instance& instance, std::uint64_t seed,
                       std::uint32_t ticks) {
  TraceConfig config;
  config.ticks = ticks;
  config.touches_per_tick = 4;
  config.join_rate = 0.2;
  config.leave_rate = 0.1;
  config.failure_rate = 0.05;
  config.link_rate = 0.1;
  return MakeRandomTrace(instance.GetTree(), config, seed);
}

DurabilityOptions Durable(const std::string& dir, std::uint64_t every = 0) {
  DurabilityOptions options;
  options.dir = dir;
  options.checkpoint_every = every;
  return options;
}

std::uint64_t HashOf(const ServeHarness& harness) {
  return harness.Pin()->CanonicalHash();
}

void ApplyLenient(ServeHarness& harness, const std::vector<UpdateEvent>& events) {
  try {
    harness.ApplyAndPublish(events);
  } catch (const InvalidArgument&) {
  }
}

/// Polls `pred` every 5 ms for up to `deadline_ms`.
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

// --- frame codec ----------------------------------------------------------

TEST(ReplFrame, AllKindsRoundTrip) {
  ReplFrame record;
  record.kind = ReplFrameKind::kRecord;
  record.epoch = 7;
  record.record = std::string("\x01\x02\x03\x00\x04", 5);
  const std::optional<ReplFrame> rec = DecodeReplFrame(EncodeReplFrame(record));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->kind, ReplFrameKind::kRecord);
  EXPECT_EQ(rec->epoch, 7u);
  EXPECT_EQ(rec->record, record.record);

  for (const bool rejected : {false, true}) {
    ReplFrame verify;
    verify.kind = ReplFrameKind::kVerify;
    verify.epoch = 7;
    verify.seq = 99;
    verify.hash = 0xDEADBEEFCAFEF00Dull;
    verify.rejected = rejected;
    const std::optional<ReplFrame> out = DecodeReplFrame(EncodeReplFrame(verify));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->kind, ReplFrameKind::kVerify);
    EXPECT_EQ(out->epoch, 7u);
    EXPECT_EQ(out->seq, 99u);
    EXPECT_EQ(out->hash, verify.hash);
    EXPECT_EQ(out->rejected, rejected);
  }

  for (const ReplFrameKind kind :
       {ReplFrameKind::kHello, ReplFrameKind::kAck, ReplFrameKind::kHeartbeat}) {
    ReplFrame frame;
    frame.kind = kind;
    frame.epoch = 3;
    frame.seq = 12345;
    const std::optional<ReplFrame> out = DecodeReplFrame(EncodeReplFrame(frame));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->kind, kind);
    EXPECT_EQ(out->epoch, 3u);
    EXPECT_EQ(out->seq, 12345u);
  }

  ReplFrame fence;
  fence.kind = ReplFrameKind::kFence;
  fence.epoch = 9;
  const std::optional<ReplFrame> out = DecodeReplFrame(EncodeReplFrame(fence));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->kind, ReplFrameKind::kFence);
  EXPECT_EQ(out->epoch, 9u);
}

TEST(ReplFrame, DamagedPayloadsDecodeToNullopt) {
  EXPECT_FALSE(DecodeReplFrame("").has_value());
  EXPECT_FALSE(DecodeReplFrame(std::string("\x00", 1)).has_value());  // kind 0
  EXPECT_FALSE(DecodeReplFrame(std::string("\x63", 1)).has_value());  // kind 99
  ReplFrame ack;
  ack.kind = ReplFrameKind::kAck;
  ack.epoch = 1;
  ack.seq = 2;
  std::string wire = EncodeReplFrame(ack);
  // A control frame with any byte missing or extra is structural damage.
  EXPECT_FALSE(DecodeReplFrame(wire.substr(0, wire.size() - 1)).has_value());
  EXPECT_FALSE(DecodeReplFrame(wire + "x").has_value());
  // A RECORD must at least carry its epoch.
  EXPECT_FALSE(DecodeReplFrame(std::string("\x02", 1) + "short").has_value());
  // A VERIFY's rejected byte is a bit: any other value is damage.
  ReplFrame verify;
  verify.kind = ReplFrameKind::kVerify;
  wire = EncodeReplFrame(verify);
  wire.back() = 2;
  EXPECT_FALSE(DecodeReplFrame(wire).has_value());
}

// --- FollowerCore: the two-frame state machine ---------------------------

std::string RecordFrameFor(std::uint64_t seq,
                           const std::vector<UpdateEvent>& events) {
  return EventWal::FrameRecord(EventWal::EncodeBatchPayload(seq, events));
}

TEST(FollowerCore, AppliesDuplicatesGapsAndStaleEpochs) {
  const Instance instance = MakeInstance(21);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  ServeHarness oracle(instance);  // computes the primary-side hashes
  FollowerCore core(harness);

  const std::vector<UpdateEvent> batch1{UpdateEvent::DemandDelta(31, 2)};
  oracle.ApplyAndPublish(batch1);
  const std::string frame1 = RecordFrameFor(1, batch1);

  EXPECT_EQ(core.OnRecord(1, frame1), FollowerCore::Outcome::kStaged);
  EXPECT_EQ(core.OnVerify(1, 1, HashOf(oracle), false),
            FollowerCore::Outcome::kApplied);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);
  EXPECT_EQ(HashOf(harness), HashOf(oracle));

  // Same record again: already durable, re-ack without re-applying.
  EXPECT_EQ(core.OnRecord(1, frame1), FollowerCore::Outcome::kDuplicate);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);

  // A gap (seq 5 when 2 is expected) asks for resync, applies nothing.
  const std::vector<UpdateEvent> batch5{UpdateEvent::DemandDelta(32, 1)};
  EXPECT_EQ(core.OnRecord(1, RecordFrameFor(5, batch5)),
            FollowerCore::Outcome::kResync);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);

  // A stale sender epoch is fenced before the record is even decoded.
  EXPECT_EQ(core.OnRecord(0, frame1), FollowerCore::Outcome::kFenced);
  EXPECT_EQ(core.StaleEpochRejections(), 1u);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);

  EXPECT_EQ(core.Applied(), 1u);
  EXPECT_EQ(core.Duplicates(), 1u);
  EXPECT_EQ(core.Resyncs(), 1u);
}

TEST(FollowerCore, EpochRecordAdoptsAndFencesOlderSenders) {
  const Instance instance = MakeInstance(22);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  FollowerCore core(harness);
  ASSERT_EQ(harness.Epoch(), 1u);

  // An epoch record ships like any other record and consumes a seq; the
  // snapshot is untouched, so the VERIFY carries the current hash.
  const std::string bump =
      EventWal::FrameRecord(EventWal::EncodeEpochPayload(1, 3));
  EXPECT_EQ(core.OnRecord(3, bump), FollowerCore::Outcome::kStaged);
  EXPECT_EQ(core.OnVerify(3, 1, HashOf(harness), false),
            FollowerCore::Outcome::kApplied);
  EXPECT_EQ(harness.Epoch(), 3u);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);

  // Epoch-2 senders are now history.
  const std::vector<UpdateEvent> batch{UpdateEvent::DemandDelta(31, 1)};
  EXPECT_EQ(core.OnRecord(2, RecordFrameFor(2, batch)),
            FollowerCore::Outcome::kFenced);
}

TEST(FollowerCore, DivergenceAndUnparseablePayloadsAreLoud) {
  const Instance instance = MakeInstance(23);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  FollowerCore core(harness);

  // Valid CRC over an unparseable payload: a writer bug, not transport
  // damage — must throw, not resync.
  EXPECT_THROW(core.OnRecord(1, EventWal::FrameRecord("garbage")), InternalError);
  EXPECT_EQ(harness.LastDurableSeq(), 0u);

  // A record whose post-apply hash disagrees with the primary's is the
  // fork replication exists to rule out.
  const std::vector<UpdateEvent> batch{UpdateEvent::DemandDelta(31, 2)};
  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, batch)), FollowerCore::Outcome::kStaged);
  EXPECT_THROW(core.OnVerify(1, 1, /*hash=*/0x1234, false), InternalError);
}

// The lying-length corpus over the link: a RECORD frame carrying a WAL
// record whose event count is inflated under a resealed CRC. The frame
// itself decodes (the record is opaque to it); the follower's decode of
// the record must be loud InternalError, never an allocation failure.
TEST(FollowerCore, RecordWrappingALyingWalRecordIsLoud) {
  const Instance instance = MakeInstance(25);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  FollowerCore core(harness);

  std::string lying = RecordFrameFor(1, {UpdateEvent::DemandDelta(31, 2)});
  constexpr std::uint32_t kLie = 0xFFFFFFFEu;
  for (int i = 0; i < 4; ++i) lying[8 + 8 + i] = static_cast<char>(kLie >> (8 * i));
  const std::uint32_t crc = support::Crc32(lying.data() + 8, lying.size() - 8);
  for (int i = 0; i < 4; ++i) lying[4 + i] = static_cast<char>(crc >> (8 * i));

  ReplFrame record;
  record.kind = ReplFrameKind::kRecord;
  record.epoch = harness.Epoch();
  record.record = lying;
  const std::optional<ReplFrame> frame = DecodeReplFrame(EncodeReplFrame(record));
  ASSERT_TRUE(frame.has_value());
  EXPECT_THROW(core.OnRecord(frame->epoch, frame->record), InternalError);
  EXPECT_EQ(harness.LastDurableSeq(), 0u);
}

TEST(FollowerCore, CorruptionCorpusRetryOrLoudNeverDivergent) {
  const Instance instance = MakeInstance(24);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  ServeHarness oracle(instance);
  FollowerCore core(harness);

  const std::vector<UpdateEvent> batch{
      UpdateEvent::DemandDelta(31, 3), UpdateEvent::DemandDelta(32, 1)};
  oracle.ApplyAndPublish(batch);
  const std::string pristine = RecordFrameFor(1, batch);
  const std::uint64_t expected_hash = HashOf(oracle);
  const std::uint64_t hash_before = HashOf(harness);

  const auto assert_rejected = [&](const std::string& damaged,
                                   const std::string& what) {
    try {
      const FollowerCore::Outcome outcome = core.OnRecord(1, damaged);
      EXPECT_EQ(outcome, FollowerCore::Outcome::kResync) << what;
    } catch (const InternalError&) {
      // Loud is the other acceptable answer (valid CRC, broken payload).
    }
    EXPECT_EQ(harness.LastDurableSeq(), 0u) << what;
    EXPECT_EQ(HashOf(harness), hash_before) << what;
  };

  // Truncate at every byte — the partially-shipped-record shapes.
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    assert_rejected(pristine.substr(0, cut),
                    "truncated at byte " + std::to_string(cut));
  }
  // Flip one bit in every byte — header, CRC and payload damage alike.
  for (std::size_t at = 0; at < pristine.size(); ++at) {
    std::string damaged = pristine;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
    assert_rejected(damaged, "bit flip at byte " + std::to_string(at));
  }

  // The retry path then succeeds: the pristine record still applies and
  // lands exactly on the primary's hash.
  EXPECT_EQ(core.OnRecord(1, pristine), FollowerCore::Outcome::kStaged);
  EXPECT_EQ(core.OnVerify(1, 1, expected_hash, false), FollowerCore::Outcome::kApplied);
  EXPECT_EQ(HashOf(harness), expected_hash);
  EXPECT_EQ(core.Applied(), 1u);
}

// Everything a client can see of a follower — the published snapshot, the
// acked (verified) seq — stays put between a RECORD and its VERIFY.
struct Visible {
  std::uint64_t version;
  std::uint64_t publishes;
  std::uint64_t verified;
  bool operator==(const Visible&) const = default;
};

Visible VisibleOf(const ServeHarness& harness, const FollowerCore& core) {
  return {harness.Pin()->Version(), harness.Publishes(), core.VerifiedSeq()};
}

TEST(FollowerCore, StagedBatchPublishesOnlyOnAMatchingVerify) {
  const Instance instance = MakeInstance(40);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  ServeHarness oracle(instance);
  FollowerCore core(harness);

  const std::vector<UpdateEvent> batch{UpdateEvent::DemandDelta(31, 2)};
  oracle.ApplyAndPublish(batch);
  const Visible before = VisibleOf(harness, core);
  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, batch)), FollowerCore::Outcome::kStaged);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);  // logged ...
  EXPECT_EQ(VisibleOf(harness, core), before);  // ... but neither published nor acked
  EXPECT_EQ(core.Staged(), 1u);

  EXPECT_EQ(core.OnVerify(1, 1, HashOf(oracle), false), FollowerCore::Outcome::kApplied);
  EXPECT_EQ(HashOf(harness), HashOf(oracle));
  EXPECT_EQ(core.VerifiedSeq(), 1u);
  EXPECT_EQ(harness.Publishes(), before.publishes + 1);
}

TEST(FollowerCore, VerifyHashMismatchIsLoudAndPublishesNothing) {
  const Instance instance = MakeInstance(41);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  FollowerCore core(harness);

  const std::vector<UpdateEvent> batch{UpdateEvent::DemandDelta(31, 2)};
  const Visible before = VisibleOf(harness, core);
  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, batch)), FollowerCore::Outcome::kStaged);
  EXPECT_THROW(core.OnVerify(1, 1, HashOf(harness) ^ 1, false), InternalError);
  EXPECT_EQ(VisibleOf(harness, core), before);
  // The divergent batch stays held: a retried VERIFY is still checked.
  EXPECT_THROW(core.OnVerify(1, 1, HashOf(harness) ^ 1, false), InternalError);
  EXPECT_EQ(VisibleOf(harness, core), before);
  EXPECT_EQ(core.Applied(), 0u);
}

TEST(FollowerCore, RejectedBitMismatchIsLoud) {
  const Instance instance = MakeInstance(42);
  const std::vector<UpdateEvent> good{UpdateEvent::DemandDelta(31, 2)};
  const std::vector<UpdateEvent> bad{UpdateEvent::DemandDelta(31, 1),
                                     UpdateEvent::Capacity(0)};
  ServeHarness oracle(instance);
  oracle.ApplyAndPublish(good);

  {
    // The primary says it rejected a batch the follower applied.
    const TempDir dir;
    ServeHarness harness(instance, {}, Durable(dir.path));
    FollowerCore core(harness);
    const Visible before = VisibleOf(harness, core);
    ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, good)), FollowerCore::Outcome::kStaged);
    EXPECT_THROW(core.OnVerify(1, 1, HashOf(oracle), /*rejected=*/true), InternalError);
    EXPECT_EQ(VisibleOf(harness, core), before);
  }
  {
    // The primary says it applied a batch the follower rejected.
    const TempDir dir;
    ServeHarness harness(instance, {}, Durable(dir.path));
    FollowerCore core(harness);
    const Visible before = VisibleOf(harness, core);
    ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, bad)), FollowerCore::Outcome::kStaged);
    EXPECT_THROW(core.OnVerify(1, 1, HashOf(harness), /*rejected=*/false), InternalError);
    EXPECT_EQ(VisibleOf(harness, core), before);
  }
}

TEST(FollowerCore, RejectedBatchVerifiesAndConsumesItsSeq) {
  const Instance instance = MakeInstance(43);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  FollowerCore core(harness);
  const std::vector<UpdateEvent> bad{UpdateEvent::DemandDelta(31, 1),
                                     UpdateEvent::Capacity(0)};
  const std::uint64_t hash = HashOf(harness);
  const std::uint64_t version = harness.Pin()->Version();
  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, bad)), FollowerCore::Outcome::kStaged);
  EXPECT_EQ(core.OnVerify(1, 1, hash, /*rejected=*/true), FollowerCore::Outcome::kApplied);
  EXPECT_EQ(core.VerifiedSeq(), 1u);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);
  EXPECT_EQ(harness.Pin()->Version(), version);
  EXPECT_EQ(HashOf(harness), hash);
}

TEST(FollowerCore, VerifyWithNothingStagedResyncs) {
  const Instance instance = MakeInstance(44);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  FollowerCore core(harness);
  const Visible before = VisibleOf(harness, core);
  EXPECT_EQ(core.OnVerify(1, 1, HashOf(harness), false), FollowerCore::Outcome::kResync);

  // Staged seq 1, a VERIFY for seq 2 is not the pending one either.
  const std::vector<UpdateEvent> batch{UpdateEvent::DemandDelta(31, 2)};
  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, batch)), FollowerCore::Outcome::kStaged);
  EXPECT_EQ(core.OnVerify(1, 2, HashOf(harness), false), FollowerCore::Outcome::kResync);
  EXPECT_EQ(VisibleOf(harness, core), before);
  EXPECT_EQ(core.Resyncs(), 2u);
}

TEST(FollowerCore, RecordWhileStagedResyncs) {
  const Instance instance = MakeInstance(45);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  ServeHarness oracle(instance);
  FollowerCore core(harness);

  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  const std::vector<UpdateEvent> b{UpdateEvent::DemandDelta(32, 1)};
  oracle.ApplyAndPublish(a);
  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, a)), FollowerCore::Outcome::kStaged);
  // The next RECORD while seq 1 awaits its VERIFY: never staged over it.
  EXPECT_EQ(core.OnRecord(1, RecordFrameFor(2, b)), FollowerCore::Outcome::kResync);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);
  // Different bytes for the staged seq are two histories: loud.
  EXPECT_THROW(core.OnRecord(1, RecordFrameFor(1, b)), InternalError);
  // The staged batch still verifies.
  EXPECT_EQ(core.OnVerify(1, 1, HashOf(oracle), false), FollowerCore::Outcome::kApplied);
  EXPECT_EQ(HashOf(harness), HashOf(oracle));
}

TEST(FollowerCore, DuplicateRecordAndVerifyAreReAcked) {
  const Instance instance = MakeInstance(46);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  ServeHarness oracle(instance);
  FollowerCore core(harness);

  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  const std::vector<UpdateEvent> b{UpdateEvent::DemandDelta(32, 1)};
  oracle.ApplyAndPublish(a);
  const std::uint64_t hash1 = HashOf(oracle);
  oracle.ApplyAndPublish(b);
  const std::uint64_t hash2 = HashOf(oracle);

  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, a)), FollowerCore::Outcome::kStaged);
  // The staged RECORD again (a link dup): nothing applied twice.
  EXPECT_EQ(core.OnRecord(1, RecordFrameFor(1, a)), FollowerCore::Outcome::kDuplicate);
  ASSERT_EQ(core.OnVerify(1, 1, hash1, false), FollowerCore::Outcome::kApplied);
  // Both frames of a verified seq again.
  EXPECT_EQ(core.OnRecord(1, RecordFrameFor(1, a)), FollowerCore::Outcome::kDuplicate);
  EXPECT_EQ(core.OnVerify(1, 1, hash1, false), FollowerCore::Outcome::kDuplicate);
  // The VERIFY of the verified seq is checked against the published state.
  EXPECT_THROW(core.OnVerify(1, 1, hash1 ^ 1, false), InternalError);

  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(2, b)), FollowerCore::Outcome::kStaged);
  // An older VERIFY while seq 2 is staged is a duplicate, not a resync.
  EXPECT_EQ(core.OnVerify(1, 1, hash1, false), FollowerCore::Outcome::kDuplicate);
  EXPECT_EQ(core.OnVerify(1, 2, hash2, false), FollowerCore::Outcome::kApplied);
  EXPECT_EQ(core.Duplicates(), 4u);
  EXPECT_EQ(core.Applied(), 2u);
  EXPECT_EQ(HashOf(harness), hash2);
}

TEST(FollowerCore, StaleEpochVerifyIsFenced) {
  const Instance instance = MakeInstance(47);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  ServeHarness oracle(instance);
  FollowerCore core(harness);
  harness.AdoptEpoch(2);  // seq 1

  const std::vector<UpdateEvent> batch{UpdateEvent::DemandDelta(31, 2)};
  ASSERT_EQ(core.OnRecord(2, RecordFrameFor(2, batch)), FollowerCore::Outcome::kStaged);
  oracle.ApplyAndPublish(batch);
  const Visible before = VisibleOf(harness, core);
  // A deposed epoch-1 primary's VERIFY publishes nothing, even a matching one.
  EXPECT_EQ(core.OnVerify(1, 2, HashOf(oracle), false), FollowerCore::Outcome::kFenced);
  EXPECT_EQ(core.StaleEpochRejections(), 1u);
  EXPECT_EQ(VisibleOf(harness, core), before);
  EXPECT_EQ(core.OnVerify(2, 2, HashOf(oracle), false), FollowerCore::Outcome::kApplied);
}

TEST(FollowerCore, CommitPendingPublishesTheStagedBatch) {
  const Instance instance = MakeInstance(48);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  ServeHarness oracle(instance);
  FollowerCore core(harness);
  const std::vector<UpdateEvent> batch{UpdateEvent::DemandDelta(31, 2)};
  oracle.ApplyAndPublish(batch);

  core.CommitPending();  // nothing staged: no-op
  EXPECT_EQ(core.VerifiedSeq(), 0u);
  ASSERT_EQ(core.OnRecord(1, RecordFrameFor(1, batch)), FollowerCore::Outcome::kStaged);
  // While staged the harness refuses anything that would cut in.
  EXPECT_THROW(harness.Checkpoint(), InternalError);
  EXPECT_THROW(harness.AdoptEpoch(2), InternalError);
  // The record is WAL-durable, so it is committed: promotion publishes it.
  core.CommitPending();
  EXPECT_EQ(core.VerifiedSeq(), 1u);
  EXPECT_EQ(HashOf(harness), HashOf(oracle));
  // The VERIFY that the next HELLO re-ships then checks it.
  EXPECT_EQ(core.OnVerify(1, 1, HashOf(oracle), false), FollowerCore::Outcome::kDuplicate);
}

TEST(FollowerCore, RefusesANonDurableHarness) {
  // Without a WAL the harness seq stays 0, so VerifiedSeq() would wrap to
  // 2^64-1 after the first RECORD and every VERIFY would read as a
  // duplicate: nothing published, and an ACK that lifts the primary's
  // watermark to UINT64_MAX.
  ServeHarness harness(MakeInstance(49));
  EXPECT_THROW(FollowerCore core(harness), InvalidArgument);
}

// --- live link ------------------------------------------------------------

struct ReplPair {
  explicit ReplPair(const Instance& instance, int ack_wait_ms = 2000)
      : primary_harness(instance, {}, Durable(primary_dir.path)),
        follower_harness(instance, {}, Durable(follower_dir.path)) {
    ReplPrimaryOptions popts;
    popts.io_timeout_ms = 200;
    popts.ack_wait_ms = ack_wait_ms;
    primary = std::make_unique<ReplPrimary>(primary_harness, popts);
    primary->Start();
    ReplFollowerOptions fopts;
    fopts.io_timeout_ms = 20;
    follower = std::make_unique<ReplFollower>(follower_harness, primary->Port(),
                                              fopts);
    follower->Start();
  }
  ~ReplPair() {
    fail::DisarmAll();
    follower->Stop();
    primary->Stop();
  }

  TempDir primary_dir;
  TempDir follower_dir;
  ServeHarness primary_harness;
  ServeHarness follower_harness;
  std::unique_ptr<ReplPrimary> primary;
  std::unique_ptr<ReplFollower> follower;
};

TEST(ReplLink, ShipsATraceAndConverges) {
  const Instance instance = MakeInstance(25);
  const UpdateTrace trace = ChurnTrace(instance, 77, /*ticks=*/6);
  ReplPair pair(instance);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));

  ServeHarness oracle(instance);
  for (const auto& batch : trace) {
    try {
      EXPECT_TRUE(pair.primary->Apply(batch));  // acked within the window
    } catch (const InvalidArgument&) {
    }
    ApplyLenient(oracle, batch);
  }
  ASSERT_TRUE(pair.follower->WaitForSeq(trace.size(), 5000));
  EXPECT_EQ(HashOf(pair.follower_harness), HashOf(oracle));
  EXPECT_EQ(HashOf(pair.primary_harness), HashOf(oracle));
  EXPECT_TRUE(PollFor(2000, [&] {
    return pair.primary->Watermark() >= trace.size();
  }));
  EXPECT_EQ(pair.follower->Core().Applied(), trace.size());
}

TEST(ReplLink, PrimaryRefusesANonDurableHarness) {
  // A primary that logs nothing would publish locally and then fail to
  // ship: a batch that looks failed but is applied.
  ServeHarness harness(MakeInstance(26));
  EXPECT_THROW(ReplPrimary primary(harness), InvalidArgument);
  EXPECT_EQ(harness.Publishes(), 1u);
}

TEST(ReplLink, FollowerRefusesANonDurableHarness) {
  ServeHarness harness(MakeInstance(27));
  EXPECT_THROW(ReplFollower follower(harness, /*primary_port=*/1), InvalidArgument);
  EXPECT_FALSE(harness.IsFollower());
}

TEST(ReplLink, FollowerBitOnQueriesUntilPromotion) {
  const Instance instance = MakeInstance(26);
  ReplPair pair(instance);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));

  QueryRequest request;
  request.kind = QueryKind::kWhichReplica;
  request.node = 31;
  EXPECT_FALSE(pair.primary_harness.Query(request).follower);
  EXPECT_TRUE(pair.follower_harness.Query(request).follower);

  // And over the real wire, through a TcpServer fronting the follower.
  TcpServer server(pair.follower_harness);
  server.Start();
  TcpClient client(server.Port());
  EXPECT_TRUE(client.Query(request).follower);

  pair.follower->Promote();
  EXPECT_FALSE(pair.follower_harness.Query(request).follower);
  EXPECT_FALSE(client.Query(request).follower);
  EXPECT_EQ(pair.follower_harness.Epoch(), 2u);
  server.Stop();
}

TEST(ReplLink, DroppedRecordHealsViaResync) {
  const Instance instance = MakeInstance(27);
  ReplPair pair(instance, /*ack_wait_ms=*/100);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));

  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  const std::vector<UpdateEvent> b{UpdateEvent::DemandDelta(32, 1)};

  // Batch a ships into the void: its RECORD and its VERIFY both drop.
  fail::ArmSticky("repl.link.drop", fail::Action::kError);
  EXPECT_FALSE(pair.primary->Apply(a));
  fail::Disarm("repl.link.drop");
  EXPECT_TRUE(PollFor(5000, [&] { return pair.primary->Apply(b); }))
      << "follower never caught up after the drop";
  // The primary retried b until the follower's gap-resync round-trip
  // (HELLO -> re-ship a, b) caught it up; both sides agree again.
  ASSERT_TRUE(pair.follower->WaitForSeq(pair.primary_harness.LastDurableSeq(),
                                        5000));
  EXPECT_EQ(HashOf(pair.follower_harness), HashOf(pair.primary_harness));
  EXPECT_GE(pair.follower->Core().Resyncs(), 1u);
}

TEST(ReplLink, DuplicatedRecordIsAbsorbed) {
  const Instance instance = MakeInstance(28);
  ReplPair pair(instance);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));

  fail::Arm("repl.link.dup", fail::Action::kError);
  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  EXPECT_TRUE(pair.primary->Apply(a));
  ASSERT_TRUE(pair.follower->WaitForSeq(1, 5000));
  EXPECT_TRUE(PollFor(2000, [&] {
    return pair.follower->Core().Duplicates() >= 1;
  }));
  EXPECT_EQ(pair.follower_harness.LastDurableSeq(), 1u);
  EXPECT_EQ(HashOf(pair.follower_harness), HashOf(pair.primary_harness));
}

TEST(ReplLink, ReorderedRecordsConverge) {
  const Instance instance = MakeInstance(29);
  ReplPair pair(instance, /*ack_wait_ms=*/100);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));

  fail::Arm("repl.link.reorder", fail::Action::kError);
  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  const std::vector<UpdateEvent> b{UpdateEvent::DemandDelta(32, 1)};
  (void)pair.primary->Apply(a);  // a's RECORD is parked until a's VERIFY is out
  (void)pair.primary->Apply(b);
  // No further applies: the gap-resync round-trips alone must settle it.
  ASSERT_TRUE(pair.follower->WaitForSeq(2, 5000));
  EXPECT_EQ(HashOf(pair.follower_harness), HashOf(pair.primary_harness));
}

// A batch the primary's WAL could not make durable never reaches a
// follower: neither frame ships, and the seq is not consumed.
TEST(ReplLink, FailedWalAppendShipsNothing) {
  const Instance instance = MakeInstance(52);
  ReplPair pair(instance);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));

  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  fail::Arm("wal.sync", fail::Action::kError);  // the primary's append is the next hit
  EXPECT_THROW((void)pair.primary->Apply(a), InternalError);
  EXPECT_EQ(pair.primary_harness.LastDurableSeq(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(pair.follower->Core().Staged(), 0u);
  EXPECT_EQ(pair.follower->Core().Resyncs(), 0u);

  EXPECT_TRUE(pair.primary->Apply(a));
  ASSERT_TRUE(pair.follower->WaitForSeq(1, 5000));
  EXPECT_EQ(HashOf(pair.follower_harness), HashOf(pair.primary_harness));
}

// A follower recovered from its own disk subscribes with its seq; the
// primary answers with that seq's retained VERIFY, so the recovered state
// is checked against the primary's before anything new applies on it.
TEST(ReplLink, RecoveredFollowerReverifiesItsStateOnHello) {
  const Instance instance = MakeInstance(53);
  const TempDir primary_dir;
  const TempDir follower_dir;
  ServeHarness primary_harness(instance, {}, Durable(primary_dir.path));
  ReplPrimaryOptions popts;
  popts.io_timeout_ms = 200;
  ReplPrimary primary(primary_harness, popts);
  primary.Start();
  ReplFollowerOptions fopts;
  fopts.io_timeout_ms = 20;
  {
    ServeHarness follower_harness(instance, {}, Durable(follower_dir.path));
    ReplFollower follower(follower_harness, primary.Port(), fopts);
    follower.Start();
    ASSERT_TRUE(primary.WaitForFollowers(1, 5000));
    EXPECT_TRUE(primary.Apply(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)}));
    ASSERT_TRUE(follower.WaitForSeq(1, 5000));
    follower.Stop();
  }
  ASSERT_TRUE(PollFor(5000, [&] { return primary.Followers() == 0; }));

  auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(follower_dir.path));
  ReplFollower follower(*recovered, primary.Port(), fopts);
  follower.Start();
  EXPECT_TRUE(PollFor(5000, [&] { return follower.Core().Duplicates() >= 1; }));
  EXPECT_EQ(follower.Core().Resyncs(), 0u);
  EXPECT_TRUE(primary.Apply(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(32, 1)}));
  ASSERT_TRUE(follower.WaitForSeq(2, 5000));
  EXPECT_EQ(HashOf(*recovered), HashOf(primary_harness));
  follower.Stop();
  primary.Stop();
}

// A VERIFY that never arrives: the follower has logged, applied and built
// the batch, but publishes nothing, acks nothing and WaitForSeq does not
// move until the resync re-ships the VERIFY.
TEST(ReplLink, DroppedVerifyHoldsThePublishUntilResync) {
  const Instance instance = MakeInstance(49);
  ReplPair pair(instance, /*ack_wait_ms=*/100);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));
  const std::uint64_t publishes = pair.follower_harness.Publishes();
  const std::uint64_t version = pair.follower_harness.Pin()->Version();

  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  const std::vector<UpdateEvent> b{UpdateEvent::DemandDelta(32, 1)};
  fail::Arm("repl.link.drop", fail::Action::kError, /*countdown=*/2);  // a's VERIFY
  EXPECT_FALSE(pair.primary->Apply(a));
  ASSERT_TRUE(PollFor(5000, [&] { return pair.follower->Core().Staged() >= 1; }));
  EXPECT_FALSE(pair.follower->WaitForSeq(1, 200));
  EXPECT_EQ(pair.follower_harness.Publishes(), publishes);
  EXPECT_EQ(pair.follower_harness.Pin()->Version(), version);
  EXPECT_EQ(pair.primary->Watermark(), 0u);

  // b's RECORD finds a still staged: the resync re-ships a's VERIFY.
  (void)pair.primary->Apply(b);
  ASSERT_TRUE(pair.follower->WaitForSeq(2, 5000));
  EXPECT_EQ(HashOf(pair.follower_harness), HashOf(pair.primary_harness));
  EXPECT_GE(pair.follower->Core().Resyncs(), 1u);
  EXPECT_TRUE(PollFor(2000, [&] { return pair.primary->Watermark() >= 2; }));
}

TEST(ReplLink, DuplicatedVerifyIsReAcked) {
  const Instance instance = MakeInstance(50);
  ReplPair pair(instance);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));

  fail::Arm("repl.link.dup", fail::Action::kError, /*countdown=*/2);  // the VERIFY
  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  EXPECT_TRUE(pair.primary->Apply(a));
  ASSERT_TRUE(pair.follower->WaitForSeq(1, 5000));
  EXPECT_TRUE(PollFor(2000, [&] {
    return pair.follower->Core().Duplicates() >= 1;
  }));
  EXPECT_EQ(pair.follower->Core().Applied(), 1u);
  EXPECT_EQ(pair.follower_harness.LastDurableSeq(), 1u);
  EXPECT_EQ(HashOf(pair.follower_harness), HashOf(pair.primary_harness));
}

// The reorder fault parks a's VERIFY until b's RECORD has gone out: the
// follower sees a RECORD while a is staged, resyncs, and converges.
TEST(ReplLink, ReorderedVerifyAndNextRecordConverge) {
  const Instance instance = MakeInstance(51);
  ReplPair pair(instance, /*ack_wait_ms=*/100);
  ASSERT_TRUE(pair.primary->WaitForFollowers(1, 5000));
  const std::uint64_t publishes = pair.follower_harness.Publishes();

  fail::Arm("repl.link.reorder", fail::Action::kError, /*countdown=*/2);  // a's VERIFY
  const std::vector<UpdateEvent> a{UpdateEvent::DemandDelta(31, 2)};
  const std::vector<UpdateEvent> b{UpdateEvent::DemandDelta(32, 1)};
  EXPECT_FALSE(pair.primary->Apply(a));  // a's VERIFY is parked
  ASSERT_TRUE(PollFor(5000, [&] { return pair.follower->Core().Staged() >= 1; }));
  EXPECT_EQ(pair.follower_harness.Publishes(), publishes);
  (void)pair.primary->Apply(b);  // b's RECORD, then a's VERIFY
  ASSERT_TRUE(pair.follower->WaitForSeq(2, 5000));
  EXPECT_EQ(HashOf(pair.follower_harness), HashOf(pair.primary_harness));
  EXPECT_GE(pair.follower->Core().Resyncs(), 1u);
}

// --- failover oracle matrix ----------------------------------------------

TEST(PartitionFailover, OracleMatrixAcrossFaultsPositionsAndRestarts) {
  const Instance instance = MakeInstance(31);
  const UpdateTrace trace = ChurnTrace(instance, 303, /*ticks=*/8);
  ASSERT_GE(trace.size(), 6u);

  const sim::PartitionFault kFaults[] = {sim::PartitionFault::kPartition,
                                         sim::PartitionFault::kPrimaryStop,
                                         sim::PartitionFault::kPrimaryStopBeforeVerify};
  for (const sim::PartitionFault fault : kFaults) {
    // A stop between RECORD and VERIFY needs a batch after the fault, and
    // leaves that batch staged — committed — on the follower.
    const bool before_verify = fault == sim::PartitionFault::kPrimaryStopBeforeVerify;
    const std::uint64_t last = before_verify ? trace.size() - 1 : trace.size();
    const std::uint64_t positions[] = {1, trace.size() / 2, last};
    for (const std::uint64_t at : positions) {
      for (const bool restart : {false, true}) {
        const TempDir primary_dir;
        const TempDir follower_dir;
        sim::PartitionConfig config;
        config.primary_dir = primary_dir.path;
        config.follower_dir = follower_dir.path;
        config.fault_at_batch = at;
        config.fault = fault;
        config.restart_follower_before_promote = restart;
        config.checkpoint_every = restart ? 3 : 0;
        const sim::PartitionResult result =
            sim::RunPartitionFailover(instance, trace, config);
        const std::string label =
            "fault=" + std::to_string(static_cast<int>(fault)) +
            " at=" + std::to_string(at) + " restart=" + std::to_string(restart);
        EXPECT_EQ(result.watermark, at) << label;
        EXPECT_EQ(result.follower_seq, before_verify ? at + 1 : at) << label;
        EXPECT_GE(result.promoted_epoch, 2u) << label;
        EXPECT_TRUE(result.watermark_state_matches)
            << label << ": follower at seq " << result.follower_seq
            << " diverged from the oracle";
        EXPECT_TRUE(result.final_match)
            << label << ": resumed follower version " << result.final_version
            << " hash " << result.final_hash << " vs oracle version "
            << result.oracle_version << " hash " << result.oracle_hash;
        if (fault == sim::PartitionFault::kPartition && !restart) {
          EXPECT_TRUE(result.primary_fenced) << label;
          // The record-level fence counter moves only when the deposed
          // primary still had trace batches to ship after the heal; at the
          // trace end it is fenced by heartbeat alone.
          if (at < trace.size()) {
            EXPECT_GE(result.stale_epoch_rejections, 1u) << label;
          }
        }
      }
    }
  }
}

TEST(PartitionFailover, HeartbeatWindowExpiryPromotes) {
  const Instance instance = MakeInstance(32);
  const UpdateTrace trace = ChurnTrace(instance, 304, /*ticks=*/5);
  ASSERT_GE(trace.size(), 3u);
  const TempDir primary_dir;
  const TempDir follower_dir;
  sim::PartitionConfig config;
  config.primary_dir = primary_dir.path;
  config.follower_dir = follower_dir.path;
  config.fault_at_batch = 2;
  config.fault = sim::PartitionFault::kPrimaryStop;
  config.heartbeat_timeout_ms = 200;  // real failover timing, no manual nudge
  const sim::PartitionResult result =
      sim::RunPartitionFailover(instance, trace, config);
  EXPECT_GE(result.promoted_epoch, 2u);
  EXPECT_TRUE(result.watermark_state_matches);
  EXPECT_TRUE(result.final_match);
}

TEST(PartitionFailover, SplitBrainPartitionedPrimaryWritesCarryNoAuthority) {
  const Instance instance = MakeInstance(33);
  const UpdateTrace trace = ChurnTrace(instance, 305, /*ticks=*/8);
  ASSERT_GE(trace.size(), 6u);
  const TempDir primary_dir;
  const TempDir follower_dir;
  sim::PartitionConfig config;
  config.primary_dir = primary_dir.path;
  config.follower_dir = follower_dir.path;
  config.fault_at_batch = 3;
  config.fault = sim::PartitionFault::kPartition;
  // Both sides of the brain keep writing: the primary takes two more
  // batches it can never replicate while the follower promotes.
  config.extra_primary_batches = 2;
  const sim::PartitionResult result =
      sim::RunPartitionFailover(instance, trace, config);

  // The promoted follower holds exactly the acked prefix — the deposed
  // primary's post-partition writes are not on it and never will be.
  EXPECT_EQ(result.follower_seq, 3u);
  EXPECT_EQ(result.watermark, 3u);
  EXPECT_TRUE(result.watermark_state_matches);
  // Resuming the trace from the watermark reproduces the oracle exactly:
  // one authoritative history, not a merge.
  EXPECT_TRUE(result.final_match);
  // And after the heal the old primary is told, loudly and permanently.
  EXPECT_TRUE(result.primary_fenced);
  EXPECT_GE(result.stale_epoch_rejections, 1u);
  EXPECT_EQ(result.promoted_epoch, 2u);
}

TEST(PartitionFailover, NoFaultCleanPromotionAtTraceEnd) {
  const Instance instance = MakeInstance(34);
  const UpdateTrace trace = ChurnTrace(instance, 306, /*ticks=*/4);
  const TempDir primary_dir;
  const TempDir follower_dir;
  sim::PartitionConfig config;
  config.primary_dir = primary_dir.path;
  config.follower_dir = follower_dir.path;
  config.fault_at_batch = trace.size();
  config.fault = sim::PartitionFault::kNone;
  const sim::PartitionResult result =
      sim::RunPartitionFailover(instance, trace, config);
  EXPECT_EQ(result.watermark, trace.size());
  EXPECT_TRUE(result.watermark_state_matches);
  EXPECT_TRUE(result.final_match);
  EXPECT_EQ(result.shipped_acks, trace.size());
}

// --- promoted follower recovers promoted (epoch in WAL + checkpoint) ------

TEST(PartitionFailover, PromotionSurvivesRecoveryFromWalAndCheckpoint) {
  const Instance instance = MakeInstance(35);
  const TempDir dir;
  {
    ServeHarness harness(instance, {}, Durable(dir.path));
    harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)});
    harness.AdoptEpoch(4);  // a promotion writes exactly this record
    harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(32, 1)});
  }
  {
    auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(dir.path));
    EXPECT_EQ(recovered->Epoch(), 4u);
    EXPECT_EQ(recovered->LastDurableSeq(), 3u);
    // Checkpoint now carries the epoch; recovery from it must too.
    recovered->Checkpoint();
  }
  auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(dir.path));
  EXPECT_EQ(recovered->Epoch(), 4u);
  EXPECT_EQ(recovered->LastDurableSeq(), 3u);
}

// --- satellites: busy guard, backoff, endpoint failover -------------------

TEST(TcpServerBusy, MaxConnectionsAnswersBusyByteAndCounts) {
  const Instance instance = MakeInstance(36);
  ServeHarness harness(instance);
  TcpServerOptions options;
  options.io_timeout_ms = 2000;
  options.max_connections = 1;
  TcpServer server(harness, options);
  server.Start();

  QueryRequest request;
  request.kind = QueryKind::kWhichReplica;
  request.node = 31;

  // First client owns the only slot.
  auto holder = std::make_unique<TcpClient>(server.Port());
  EXPECT_TRUE(holder->Query(request).ok);
  ASSERT_TRUE(PollFor(2000, [&] { return server.ActiveConnections() == 1; }));

  // A raw connection (no request written, so the server's close cannot
  // reset the buffer) reads exactly the one-byte busy frame: the server
  // ANSWERS saturation, it does not hang or silently drop.
  {
    const int fd = net::ConnectLoopback(
        server.Port(), /*connect_timeout_ms=*/1000, /*io_timeout_ms=*/2000,
        [](const std::string& what, bool) { throw InternalError(what); });
    std::string payload;
    ASSERT_EQ(net::RecvFrame(fd, payload, /*max_bytes=*/16), net::IoStatus::kOk);
    ASSERT_EQ(payload.size(), 1u);
    EXPECT_EQ(static_cast<std::uint8_t>(payload[0]), kBusyStatusByte);
    net::CloseQuiet(fd);
  }
  EXPECT_GE(server.RejectedConnections(), 1u);

  // A full client bounces off with a retryable error (ServerBusy when the
  // busy byte survives the close, a reset otherwise — both InternalError,
  // both rotate the retry loop) instead of wedging.
  TcpClientOptions copts;
  copts.max_retries = 1;
  copts.backoff_base_ms = 1;
  copts.io_timeout_ms = 1000;
  TcpClient crowded(server.Port(), copts);
  EXPECT_THROW((void)crowded.Query(request), InternalError);
  EXPECT_GE(server.RejectedConnections(), 2u);

  // Freeing the slot lets the next connection through.
  holder.reset();
  ASSERT_TRUE(PollFor(2000, [&] { return server.ActiveConnections() == 0; }));
  TcpClient fresh(server.Port());
  EXPECT_TRUE(fresh.Query(request).ok);
  server.Stop();
}

TEST(ConnectionCore, ReplPrimaryReapsFollowersAcrossReconnects) {
  const Instance instance = MakeInstance(39);
  TempDir primary_dir;
  TempDir follower_dir;
  ServeHarness primary_harness(instance, {}, Durable(primary_dir.path));
  ServeHarness follower_harness(instance, {}, Durable(follower_dir.path));
  ReplPrimaryOptions popts;
  popts.io_timeout_ms = 200;
  ReplPrimary primary(primary_harness, popts);
  primary.Start();
  ReplFollowerOptions fopts;
  fopts.io_timeout_ms = 20;
  const NodeId client = instance.GetTree().Clients()[0];
  for (std::uint64_t cycle = 1; cycle <= 16; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    ReplFollower follower(follower_harness, primary.Port(), fopts);
    follower.Start();
    ASSERT_TRUE(primary.WaitForFollowers(1, 5000));
    EXPECT_TRUE(primary.Apply(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(client, 1)}));
    ASSERT_TRUE(follower.WaitForSeq(cycle, 5000));
    follower.Stop();
    ASSERT_TRUE(PollFor(5000, [&] { return primary.Followers() == 0; }));
  }
  EXPECT_EQ(HashOf(follower_harness), HashOf(primary_harness));
  // Sixteen followers came and went: the core holds no reader but at most
  // the one finished thread it has not joined yet.
  EXPECT_TRUE(PollFor(5000, [&] { return primary.HandlerThreads() <= 1; }))
      << primary.HandlerThreads() << " reader threads held";
  primary.Stop();
  EXPECT_EQ(primary.HandlerThreads(), 0u);
}

TEST(Backoff, CappedExponentialWithDeterministicJitter) {
  // Deterministic: same (attempt, base, cap, seed) -> same delay.
  for (int attempt = 0; attempt < 12; ++attempt) {
    EXPECT_EQ(BackoffDelayMs(attempt, 10, 250, 42),
              BackoffDelayMs(attempt, 10, 250, 42));
  }
  // Jittered into [delay/2, delay] of the capped exponential.
  for (int attempt = 0; attempt < 12; ++attempt) {
    const std::uint64_t raw =
        std::min<std::uint64_t>(250, static_cast<std::uint64_t>(10) << attempt);
    const std::uint64_t d = BackoffDelayMs(attempt, 10, 250, 7);
    EXPECT_GE(d, raw / 2) << "attempt " << attempt;
    EXPECT_LE(d, raw) << "attempt " << attempt;
  }
  // The cap holds even where the uncapped shift would overflow.
  EXPECT_LE(BackoffDelayMs(200, 10, 250, 7), 250u);
  EXPECT_GE(BackoffDelayMs(200, 10, 250, 7), 125u);
  // Seeds decorrelate the herd: some attempt must differ between seeds.
  bool differs = false;
  for (int attempt = 0; attempt < 8 && !differs; ++attempt) {
    differs = BackoffDelayMs(attempt, 10, 250, 1) !=
              BackoffDelayMs(attempt, 10, 250, 2);
  }
  EXPECT_TRUE(differs);
}

TEST(TcpFailover, ClientRotatesToTheSurvivingEndpoint) {
  const Instance instance = MakeInstance(37);
  ServeHarness harness_a(instance);
  ServeHarness harness_b(instance);
  TcpServer server_a(harness_a);
  TcpServer server_b(harness_b);
  server_a.Start();
  server_b.Start();

  QueryRequest request;
  request.kind = QueryKind::kWhichReplica;
  request.node = 31;

  TcpClientOptions options;
  options.max_retries = 3;
  options.backoff_base_ms = 1;
  options.connect_timeout_ms = 500;
  options.io_timeout_ms = 500;
  TcpClient client({server_a.Port(), server_b.Port()}, options);
  EXPECT_TRUE(client.Query(request).ok);
  EXPECT_EQ(client.ActivePort(), server_a.Port());

  // Endpoint A dies; the next query fails over to B within the retry
  // budget instead of surfacing the error.
  server_a.Stop();
  EXPECT_TRUE(client.Query(request).ok);
  EXPECT_EQ(client.ActivePort(), server_b.Port());
  EXPECT_GE(client.Retries(), 1u);
  server_b.Stop();
}

TEST(TcpFailover, ConstructorSkipsDeadEndpoints) {
  const Instance instance = MakeInstance(38);
  ServeHarness harness(instance);
  TcpServer server(harness);
  server.Start();
  // Grab a port that is almost certainly closed: bind-and-release.
  std::uint16_t dead;
  {
    TcpServer probe(harness);
    probe.Start();
    dead = probe.Port();
    probe.Stop();
  }
  QueryRequest request;
  request.kind = QueryKind::kWhichReplica;
  request.node = 31;
  TcpClientOptions options;
  options.connect_timeout_ms = 500;
  TcpClient client({dead, server.Port()}, options);
  EXPECT_TRUE(client.Query(request).ok);
  EXPECT_EQ(client.ActivePort(), server.Port());
  server.Stop();
}

}  // namespace
}  // namespace rpt::serve
