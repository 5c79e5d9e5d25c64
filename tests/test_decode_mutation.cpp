// Seeded mutational decode driver over every binary format: the WAL record,
// the rpt-btab file, every replication frame kind, and the query request and
// response payloads. Each case starts from valid encodings, truncates, flips
// and splices them for a fixed seed and iteration budget, and decodes the
// result. A decode may only
//   * succeed, and then re-encode to exactly the bytes it was given, or
//   * refuse with the format's typed error (WAL InternalError, btab and
//     query InvalidArgument) or nullopt (WAL transport damage, repl).
// Any other exception fails the case; a crash, overrun or undefined
// behaviour shows under the sanitizer build, which runs this binary by name.
//
// WAL records and btab files are resealed after mutation (lengths, CRCs
// and the btab header's counts recomputed) so the payload decoders, not
// just the frame checks, see the damage. A resealed btab table record can
// claim any demand; the decoder refuses one that differs from the reader's
// expectation before it allocates the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "incremental/update_event.hpp"
#include "serve/event_wal.hpp"
#include "serve/query.hpp"
#include "serve/repl_link.hpp"
#include "shard/boundary_table.hpp"
#include "support/crc32.hpp"
#include "support/rng.hpp"

namespace rpt {
namespace {

using incremental::UpdateEvent;
using serve::EventWal;

constexpr std::uint64_t kSeed = 0x5EED0DEC0DEull;
constexpr int kIterations = 20000;

struct Format {
  std::vector<std::string> seeds;  ///< valid encodings to mutate
  /// Decodes `bytes` and returns their re-encoding, or nullopt when the
  /// format refused them with its typed error or nullopt. Anything else
  /// escapes.
  std::function<std::optional<std::string>(const std::string&)> decode;
  /// Makes the frames of a mutated input consistent again, or nothing.
  std::function<void(std::string&)> reseal = {};
};

std::string Mutate(Rng& rng, const std::vector<std::string>& seeds) {
  std::string bytes = seeds[rng.NextBelow(seeds.size())];
  const int rounds = 1 + static_cast<int>(rng.NextBelow(3));
  for (int round = 0; round < rounds; ++round) {
    switch (rng.NextBelow(3)) {
      case 0:  // truncate
        if (!bytes.empty()) bytes.resize(rng.NextBelow(bytes.size()));
        break;
      case 1:  // flip one to four bits
        for (int flips = 1 + static_cast<int>(rng.NextBelow(4)); flips > 0 && !bytes.empty();
             --flips) {
          bytes[rng.NextBelow(bytes.size())] ^= static_cast<char>(1 << rng.NextBelow(8));
        }
        break;
      default: {  // splice a piece of any seed over a range of this one
        const std::string& donor = seeds[rng.NextBelow(seeds.size())];
        const std::size_t from = rng.NextBelow(donor.size() + 1);
        const std::size_t take = rng.NextBelow(donor.size() - from + 1);
        const std::size_t at = rng.NextBelow(bytes.size() + 1);
        const std::size_t drop = rng.NextBelow(bytes.size() - at + 1);
        bytes.replace(at, drop, donor, from, take);
        break;
      }
    }
  }
  return bytes;
}

void PutU32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

std::uint32_t GetU32(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t{static_cast<std::uint8_t>(bytes[at + i])} << (8 * i);
  }
  return v;
}

/// Rewrites the len + CRC of the frame at `at` to cover `len` payload bytes.
void ResealFrame(std::string& bytes, std::size_t at, std::uint32_t len) {
  PutU32(bytes, at, len);
  PutU32(bytes, at + 4, support::Crc32(bytes.data() + at + 8, len));
}

/// Rewrites a record frame's len and CRC to match whatever payload follows.
void ResealRecord(std::string& record) {
  if (record.size() >= 8) ResealFrame(record, 0, static_cast<std::uint32_t>(record.size() - 8));
}

/// Walks a btab file's record frames after the 8-byte magic and 24-byte
/// header frame, clamping each length to the bytes left and resealing it,
/// then rewrites the header's record count and body size to the walk.
void ResealBtab(std::string& file) {
  constexpr std::size_t kBody = 8 + 8 + 16;
  if (file.size() < kBody) return;
  std::uint32_t records = 0;
  std::size_t pos = kBody;
  while (file.size() - pos >= 8) {
    const auto len =
        static_cast<std::uint32_t>(std::min<std::size_t>(GetU32(file, pos), file.size() - pos - 8));
    ResealFrame(file, pos, len);
    pos += 8 + len;
    ++records;
  }
  PutU32(file, 16 + 4, records);
  const std::uint64_t body = file.size() - kBody;
  PutU32(file, 16 + 8, static_cast<std::uint32_t>(body));
  PutU32(file, 16 + 12, static_cast<std::uint32_t>(body >> 32));
  ResealFrame(file, 8, 16);
}

void Drive(const Format& format) {
  Rng rng(kSeed);
  int decoded = 0;
  int refused = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string bytes = Mutate(rng, format.seeds);
    if (format.reseal) format.reseal(bytes);
    std::optional<std::string> again;
    try {
      again = format.decode(bytes);
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << ": untyped failure '" << e.what() << "' on "
             << ::testing::PrintToString(bytes);
    }
    if (!again) {
      ++refused;
      continue;
    }
    ++decoded;
    ASSERT_EQ(*again, bytes) << "iteration " << iter << ": decode did not round-trip";
  }
  EXPECT_GT(refused, 0);
  ::testing::Test::RecordProperty("decoded", decoded);
  ::testing::Test::RecordProperty("refused", refused);
}

std::string ReEncode(const serve::WalBatch& batch) {
  return EventWal::FrameRecord(batch.epoch_bump
                                   ? EventWal::EncodeEpochPayload(batch.seq, batch.epoch)
                                   : EventWal::EncodeBatchPayload(batch.seq, batch.events));
}

std::optional<std::string> DecodeWalRecord(const std::string& bytes) {
  try {
    const std::optional<serve::WalBatch> batch = EventWal::TryDecodeFramedRecord(bytes);
    if (!batch) return std::nullopt;
    return ReEncode(*batch);
  } catch (const InternalError&) {
    return std::nullopt;
  }
}

std::vector<std::string> WalRecords() {
  SubtreeSpec spec;
  spec.nodes.push_back({NodeKind::kInternal, 0, 2, 0});
  spec.nodes.push_back({NodeKind::kClient, 0, 1, 7});
  return {
      EventWal::FrameRecord(EventWal::EncodeBatchPayload(
          1, {UpdateEvent::DemandDelta(4, -3), UpdateEvent::ClientAdd(9, 12),
              UpdateEvent::ClientRemove(9), UpdateEvent::Capacity(25)})),
      EventWal::FrameRecord(EventWal::EncodeBatchPayload(
          2, {UpdateEvent::AttachSubtree(0, spec), UpdateEvent::DetachSubtree(11),
              UpdateEvent::MigrateSubtree(7, 2, 4), UpdateEvent::LinkCapacity(3, 6),
              UpdateEvent::DemandDelta(2, std::numeric_limits<std::int64_t>::min())})),
      EventWal::FrameRecord(EventWal::EncodeBatchPayload(3, {})),
      EventWal::FrameRecord(EventWal::EncodeEpochPayload(4, 7)),
  };
}

TEST(DecodeMutation, WalRecordAllEventKindsAndEpoch) {
  Drive({WalRecords(), DecodeWalRecord, ResealRecord});
}

TEST(DecodeMutation, BtabTableAndFragment) {
  shard::BtabFile file;
  shard::BoundaryTable table;
  table.cut = 23;
  table.demand = 6;
  table.subtree_nodes = 4;
  table.table_entries = 7;
  table.convolve_cells = 9;
  table.vmin = 0;  // F = {inf, 3, 2, 1, 1, 0, 0}
  table.inv = {5, 3, 2, 1};
  file.tables.push_back(table);
  shard::SolutionFragment fragment;
  fragment.cut = 17;
  fragment.budget = 3;
  fragment.solution.replicas = {0, 2};
  fragment.solution.assignment = {{3, 0, 5}, {4, 2, 7}};
  fragment.forwarded = {{1, 4}, {5, 2}};
  file.fragments.push_back(fragment);
  shard::BtabFile fragments_only;
  fragments_only.fragments.push_back(fragment);

  Drive({{shard::EncodeBtab(file), shard::EncodeBtab(fragments_only),
          shard::EncodeBtab(shard::BtabFile{})},
         [](const std::string& bytes) -> std::optional<std::string> {
           try {
             return shard::EncodeBtab(shard::DecodeBtab(bytes, [](NodeId cut) -> Requests {
               RPT_REQUIRE(cut == 23, "unknown cut");
               return 6;
             }));
           } catch (const InvalidArgument&) {
             return std::nullopt;
           }
         },
         ResealBtab});
}

TEST(DecodeMutation, EveryReplFrameKind) {
  std::vector<std::string> frames;
  for (const serve::ReplFrameKind kind :
       {serve::ReplFrameKind::kHello, serve::ReplFrameKind::kAck,
        serve::ReplFrameKind::kHeartbeat, serve::ReplFrameKind::kFence}) {
    serve::ReplFrame frame;
    frame.kind = kind;
    frame.epoch = 3;
    frame.seq = 12345;
    frames.push_back(serve::EncodeReplFrame(frame));
  }
  for (const bool rejected : {false, true}) {
    serve::ReplFrame frame;
    frame.kind = serve::ReplFrameKind::kVerify;
    frame.epoch = 3;
    frame.seq = 12345;
    frame.hash = 0xDEADBEEFCAFEF00Dull;
    frame.rejected = rejected;
    frames.push_back(serve::EncodeReplFrame(frame));
  }
  for (const std::string& record : WalRecords()) {
    serve::ReplFrame frame;
    frame.kind = serve::ReplFrameKind::kRecord;
    frame.epoch = 2;
    frame.record = record;
    frames.push_back(serve::EncodeReplFrame(frame));
  }
  Drive({frames, [](const std::string& bytes) -> std::optional<std::string> {
           const std::optional<serve::ReplFrame> frame = serve::DecodeReplFrame(bytes);
           if (!frame) return std::nullopt;
           // The follower decodes a RECORD's WAL record next; it may refuse
           // with the WAL's own outcomes but nothing else.
           if (frame->kind == serve::ReplFrameKind::kRecord) (void)DecodeWalRecord(frame->record);
           return serve::EncodeReplFrame(*frame);
         }});
}

/// Strips the 4-byte stream prefix the query encoders write.
template <typename Encode>
std::string Payload(Encode&& encode) {
  std::vector<std::uint8_t> wire;
  encode(wire);
  return std::string(wire.begin() + 4, wire.end());
}

std::span<const std::uint8_t> AsBytes(const std::string& bytes) {
  return {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()};
}

TEST(DecodeMutation, QueryRequestAndResponse) {
  std::vector<std::string> requests;
  for (const serve::QueryKind kind : {serve::QueryKind::kWhichReplica, serve::QueryKind::kResidual,
                                      serve::QueryKind::kAttachCost}) {
    requests.push_back(Payload([&](auto& wire) { serve::EncodeRequest({kind, 42, 7}, wire); }));
  }
  Drive({requests, [](const std::string& bytes) -> std::optional<std::string> {
           try {
             const serve::QueryRequest request = serve::DecodeRequest(AsBytes(bytes));
             return Payload([&](auto& wire) { serve::EncodeRequest(request, wire); });
           } catch (const InvalidArgument&) {
             return std::nullopt;
           }
         }});

  serve::QueryResponse response;
  response.version = 9000;
  response.ok = true;
  response.stale = true;
  response.server = 17;
  response.value = 123456789;
  response.distance = 55;
  Drive({{Payload([&](auto& wire) { serve::EncodeResponse(response, wire); }),
          Payload([](auto& wire) { serve::EncodeResponse(serve::QueryResponse{}, wire); })},
         [](const std::string& bytes) -> std::optional<std::string> {
           try {
             const serve::QueryResponse decoded = serve::DecodeResponse(AsBytes(bytes));
             return Payload([&](auto& wire) { serve::EncodeResponse(decoded, wire); });
           } catch (const InvalidArgument&) {
             return std::nullopt;
           }
         }});
}

}  // namespace
}  // namespace rpt
