#include "shard/boundary_table.hpp"

#include <fstream>
#include <sstream>

#include "support/common.hpp"
#include "support/wire.hpp"

namespace rpt::shard {

namespace {

namespace wire = support::wire;
using Cost = multiple::NodDpEngine::Cost;
using wire::ByteReader;
constexpr Cost kInf = multiple::NodDpEngine::kInfCost;

constexpr std::size_t kMagicBytes = sizeof(kBtabMagic);
constexpr std::uint8_t kKindTable = 1;
constexpr std::uint8_t kKindFragment = 2;
constexpr std::uint32_t kBtabVersion = 1;

[[noreturn]] void Fail(const std::string& what) {
  throw InvalidArgument("rpt-btab: " + what);
}

void AppendFramed(std::string& out, const std::string& payload) {
  RPT_CHECK(payload.size() <= kMaxBtabRecordBytes);
  wire::AppendFrame(out, payload);
}

std::string EncodeTablePayload(const BoundaryTable& table) {
  RPT_REQUIRE(!table.inv.empty(), "rpt-btab: table needs a finite entry");
  RPT_REQUIRE(table.demand <= kMaxBtabDemand, "rpt-btab: table demand exceeds the u32 domain");
  const std::uint64_t vmax = std::uint64_t{table.vmin} + (table.inv.size() - 1);
  RPT_REQUIRE(vmax < kInf, "rpt-btab: table cost range is invalid");
  std::string payload;
  wire::ByteWriter out(payload);
  out.U8(kKindTable)
      .U32(table.cut)
      .U64(table.demand)
      .U32(table.subtree_nodes)
      .U64(table.table_entries)
      .U64(table.convolve_cells)
      .U32(table.vmin)
      .U32(static_cast<std::uint32_t>(vmax));
  for (const Requests v : table.inv) {
    RPT_REQUIRE(v <= table.demand, "rpt-btab: table entry exceeds the demand domain");
    out.U32(static_cast<std::uint32_t>(v));
  }
  return payload;
}

void DecodeTablePayload(ByteReader& in, const CutDemand& demand_of, BtabFile& file) {
  BoundaryTable table;
  table.cut = in.U32();
  table.demand = in.U64();
  if (table.demand != demand_of(table.cut)) Fail("table demand does not match its cut subtree");
  if (table.demand > kMaxBtabDemand) Fail("table demand exceeds the sanity cap");
  table.subtree_nodes = in.U32();
  table.table_entries = in.U64();
  table.convolve_cells = in.U64();
  table.vmin = static_cast<Cost>(in.U32());
  const auto vmax = static_cast<Cost>(in.U32());
  if (table.vmin > vmax || vmax >= kInf) Fail("table cost range is invalid");
  in.ExpectRoom(static_cast<std::uint64_t>(vmax - table.vmin) + 1, 4);
  table.inv.resize(static_cast<std::size_t>(vmax - table.vmin) + 1);
  for (std::size_t c = 0; c < table.inv.size(); ++c) {
    table.inv[c] = in.U32();
    if (table.inv[c] > table.demand) Fail("table staircase index exceeds the demand domain");
    if (c > 0 && table.inv[c] > table.inv[c - 1]) Fail("table staircase is not monotone");
  }
  // The top cost level must be reached: its step strictly descends.
  const std::size_t last = table.inv.size() - 1;
  if (last > 0 && table.inv[last] == table.inv[last - 1]) {
    Fail("table staircase does not reach its maximum");
  }
  in.ExpectExhausted();
  file.tables.push_back(std::move(table));
}

std::string EncodeFragmentPayload(const SolutionFragment& fragment) {
  std::string payload;
  wire::ByteWriter out(payload);
  out.U8(kKindFragment).U32(fragment.cut).U64(fragment.budget);
  out.U32(static_cast<std::uint32_t>(fragment.solution.replicas.size()));
  for (const NodeId replica : fragment.solution.replicas) out.U32(replica);
  out.U32(static_cast<std::uint32_t>(fragment.solution.assignment.size()));
  for (const ServiceEntry& entry : fragment.solution.assignment) {
    out.U32(entry.client).U32(entry.server).U64(entry.amount);
  }
  out.U32(static_cast<std::uint32_t>(fragment.forwarded.size()));
  for (const auto& [client, amount] : fragment.forwarded) out.U32(client).U64(amount);
  return payload;
}

void DecodeFragmentPayload(ByteReader& in, BtabFile& file) {
  SolutionFragment fragment;
  fragment.cut = in.U32();
  fragment.budget = in.U64();
  const std::uint32_t replica_count = in.Count(4);
  fragment.solution.replicas.reserve(replica_count);
  for (std::uint32_t i = 0; i < replica_count; ++i) {
    fragment.solution.replicas.push_back(in.U32());
  }
  const std::uint32_t entry_count = in.Count(4 + 4 + 8);
  fragment.solution.assignment.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    ServiceEntry entry;
    entry.client = in.U32();
    entry.server = in.U32();
    entry.amount = in.U64();
    fragment.solution.assignment.push_back(entry);
  }
  const std::uint32_t fwd_count = in.Count(4 + 8);
  fragment.forwarded.reserve(fwd_count);
  for (std::uint32_t i = 0; i < fwd_count; ++i) {
    const NodeId client = in.U32();
    const Requests amount = in.U64();
    fragment.forwarded.emplace_back(client, amount);
  }
  in.ExpectExhausted();
  file.fragments.push_back(std::move(fragment));
}

}  // namespace

std::string EncodeBtab(const BtabFile& file) {
  std::string body;
  for (const BoundaryTable& table : file.tables) {
    AppendFramed(body, EncodeTablePayload(table));
  }
  for (const SolutionFragment& fragment : file.fragments) {
    AppendFramed(body, EncodeFragmentPayload(fragment));
  }

  std::string header;
  wire::ByteWriter(header)
      .U32(kBtabVersion)
      .U32(static_cast<std::uint32_t>(file.tables.size() + file.fragments.size()))
      .U64(body.size());

  std::string out(kBtabMagic, kMagicBytes);
  AppendFramed(out, header);
  out.append(body);
  return out;
}

BtabFile DecodeBtab(std::string_view bytes, const CutDemand& demand_of) {
  if (bytes.size() < kMagicBytes || bytes.compare(0, kMagicBytes, kBtabMagic, kMagicBytes) != 0) {
    Fail("bad magic");
  }
  // Strict whole-file scan: every frame must be intact, in order, and the
  // last one must end the file — a btab has no torn-tail tolerance.
  std::size_t pos = kMagicBytes;
  const auto next_frame = [&](const char* what) {
    const auto payload = wire::FrameAt(bytes, pos, kMaxBtabRecordBytes);
    if (!payload) Fail(std::string(what) + " frame is truncated, implausibly long or fails its CRC");
    pos += wire::kFrameHeaderBytes + payload->size();
    return ByteReader(*payload);
  };

  try {
    ByteReader head = next_frame("header");
    if (head.U32() != kBtabVersion) Fail("unsupported version");
    const std::uint32_t record_count = head.U32();
    const std::uint64_t body_bytes = head.U64();
    head.ExpectExhausted();
    if (bytes.size() - pos != body_bytes) Fail("body byte count does not match the header");

    BtabFile file;
    for (std::uint32_t i = 0; i < record_count; ++i) {
      ByteReader in = next_frame("record");
      const std::uint8_t kind = in.U8();
      if (kind == kKindTable) {
        // The encoder writes every table before any fragment.
        if (!file.fragments.empty()) Fail("table record after a fragment record");
        DecodeTablePayload(in, demand_of, file);
      } else if (kind == kKindFragment) {
        DecodeFragmentPayload(in, file);
      } else {
        Fail("unknown record kind");
      }
    }
    if (pos != bytes.size()) Fail("trailing bytes after the last record");
    return file;
  } catch (const wire::DecodeError& e) {
    Fail(e.what());
  }
}

void WriteBtabFile(const std::string& path, const BtabFile& file) {
  const std::string bytes = EncodeBtab(file);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  RPT_REQUIRE(os.good(), "rpt-btab: cannot open for writing: " + path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  RPT_REQUIRE(os.good(), "rpt-btab: write failed: " + path);
}

BtabFile ReadBtabFile(const std::string& path, const CutDemand& demand_of) {
  std::ifstream is(path, std::ios::binary);
  RPT_REQUIRE(is.good(), "rpt-btab: cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  RPT_REQUIRE(!is.bad(), "rpt-btab: read failed: " + path);
  return DecodeBtab(buffer.str(), demand_of);
}

}  // namespace rpt::shard
