// Golden bytes for every binary format the service writes: the WAL record,
// the rpt-btab file, every replication frame kind, the query request and
// response, and the stream length prefix. Each case encodes one fixed object
// and compares the exact bytes against hex pinned from a known-good build —
// a codec refactor that moves a single byte fails here by name.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "incremental/update_event.hpp"
#include "serve/event_wal.hpp"
#include "serve/net_util.hpp"
#include "serve/query.hpp"
#include "serve/repl_link.hpp"
#include "shard/boundary_table.hpp"

namespace rpt {
namespace {

using incremental::UpdateEvent;

std::string Hex(const void* data, std::size_t size) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const auto* p = static_cast<const unsigned char*>(data);
  std::string out;
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(kDigits[p[i] >> 4]);
    out.push_back(kDigits[p[i] & 0xF]);
  }
  return out;
}

std::string Hex(const std::string& bytes) { return Hex(bytes.data(), bytes.size()); }
std::string Hex(const std::vector<std::uint8_t>& bytes) {
  return Hex(bytes.data(), bytes.size());
}

std::vector<UpdateEvent> EveryEventKind() {
  SubtreeSpec spec;
  spec.nodes.push_back({NodeKind::kInternal, 0, 2, 0});
  spec.nodes.push_back({NodeKind::kClient, 0, 1, 7});
  return {UpdateEvent::DemandDelta(4, -3),
          UpdateEvent::ClientAdd(9, 12),
          UpdateEvent::ClientRemove(9),
          UpdateEvent::Capacity(25),
          UpdateEvent::AttachSubtree(0, spec),
          UpdateEvent::DetachSubtree(11),
          UpdateEvent::MigrateSubtree(7, 2, 4),
          UpdateEvent::LinkCapacity(3, 6),
          UpdateEvent::DemandDelta(2, std::numeric_limits<std::int64_t>::min())};
}

TEST(CodecGolden, WalBatchRecord) {
  const std::string record = serve::EventWal::FrameRecord(
      serve::EventWal::EncodeBatchPayload(7, EveryEventKind()));
  EXPECT_EQ(Hex(record),
            "3b0100005222379a0700000000000000090000000004000000fdffffffffffff"
            "ff0000000000000000ffffffff00000000010900000000000000000000000c00"
            "000000000000ffffffff00000000020900000000000000000000000000000000"
            "000000ffffffff0000000003ffffffff00000000000000001900000000000000"
            "ffffffff00000000040000000000000000000000000000000000000000ffffff"
            "ff02000000000000000002000000000000000000000000000000010000000001"
            "000000000000000700000000000000050b000000000000000000000000000000"
            "00000000ffffffff000000000607000000000000000000000004000000000000"
            "000200000000000000070300000000000000000000000600000000000000ffff"
            "ffff00000000000200000000000000000000800000000000000000ffffffff00"
            "000000");
}

TEST(CodecGolden, WalEpochRecord) {
  const std::string record = serve::EventWal::FrameRecord(
      serve::EventWal::EncodeEpochPayload(8, 3));
  EXPECT_EQ(Hex(record), "140000004c73ab980800000000000000ffffffff0300000000000000");
}

TEST(CodecGolden, BtabTableAndFragment) {
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
  fragment.forwarded = {{1, 4}};
  file.fragments.push_back(fragment);
  EXPECT_EQ(Hex(shard::EncodeBtab(file)),
            "5250544254414231100000002df9074701000000020000009600000000000000"
            "390000001643cf20011700000006000000000000000400000007000000000000"
            "0009000000000000000000000003000000050000000300000002000000010000"
            "004d000000975b67cb0211000000030000000000000002000000000000000200"
            "0000020000000300000000000000050000000000000004000000020000000700"
            "00000000000001000000010000000400000000000000");
}

TEST(CodecGolden, EveryReplFrameKind) {
  using serve::ReplFrame;
  using serve::ReplFrameKind;
  std::string all;
  for (const ReplFrameKind kind : {ReplFrameKind::kHello, ReplFrameKind::kAck,
                                   ReplFrameKind::kHeartbeat, ReplFrameKind::kRecord,
                                   ReplFrameKind::kFence}) {
    ReplFrame frame;
    frame.kind = kind;
    frame.epoch = 0x0102030405060708ull;
    frame.seq = 0x1112131415161718ull;
    frame.hash = 0xDEADBEEFCAFEF00Dull;
    frame.record = serve::EventWal::FrameRecord(serve::EventWal::EncodeEpochPayload(5, 2));
    all += Hex(serve::EncodeReplFrame(frame)) + "|";
  }
  EXPECT_EQ(all,
            "0108070605040302011817161514131211|"
            "0308070605040302011817161514131211|"
            "0408070605040302011817161514131211|"
            "0208070605040302010df0fecaefbeadde140000007f7550e205000000000000"
            "00ffffffff0200000000000000|"
            "050807060504030201|");
}

TEST(CodecGolden, QueryRequestAndResponse) {
  std::vector<std::uint8_t> wire;
  serve::EncodeRequest({serve::QueryKind::kAttachCost, 42, 0x0A0B0C0D0E0F1011ull}, wire);
  EXPECT_EQ(Hex(wire), "0d000000022a00000011100f0e0d0c0b0a");

  serve::QueryResponse response;
  response.version = 9000;
  response.ok = true;
  response.follower = true;
  response.server = 17;
  response.value = 123456789;
  response.distance = 55;
  wire.clear();
  serve::EncodeResponse(response, wire);
  EXPECT_EQ(Hex(wire),
            "1d0000002823000000000000051100000015cd5b070000000037000000000000"
            "00");
}

TEST(CodecGolden, StreamLengthPrefix) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(serve::net::SendFrame(fds[0], "abc"), serve::net::IoStatus::kOk);
  std::uint8_t got[7] = {};
  ASSERT_EQ(serve::net::ReadFull(fds[1], got, sizeof(got)), serve::net::IoStatus::kOk);
  EXPECT_EQ(Hex(got, sizeof(got)), "03000000616263");
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace rpt
