// rpt-btab v1 — the boundary-table wire format of the sharded solve: what a
// shard worker ships back to the coordinator. One file carries any mix of
// TABLE records (phase 1: the cut subtree root's F staircase plus merge
// stats) and FRAGMENT records (phase 2: the reconstructed subtree solution
// at the assigned budget). Files are the first transport; the byte format is
// the seam for sockets later.
//
// Layout (all integers little-endian):
//   magic   8 bytes  "RPTBTAB1"
//   header  framed record: u32 version (=1) | u32 record_count | u64 body_bytes
//   body    record_count framed records, every TABLE before any FRAGMENT
// and a framed record is
//   u32 len | u32 crc | payload[len]
// with crc = CRC-32 of the payload (support/crc32.hpp — the WAL's exact
// framing style). `body_bytes` is the total framed size of the body, so the
// decoder can cross-check the walk: it must consume exactly record_count
// records and exactly body_bytes bytes and land exactly on EOF.
//
// A TABLE payload stores the staircase in the cost domain: (vmin, vmax,
// inv[]) with inv[c - vmin] = smallest u such that F(u) <= c — the inverse
// form the DP engine stores its tables in. The coordinator imports exactly
// the entries the worker computed, and the wire size is O(cost range), not
// O(demand).
//
// Corruption contract ("prefix or loud, never wrong", same as the WAL
// corpus): DecodeBtab THROWS InvalidArgument on any damaged input — short
// magic, truncated frame, CRC mismatch, record/byte-count mismatch, payload
// that over- or under-runs its frame, trailing bytes, or any field that
// fails semantic validation — including a TABLE record whose demand is not
// the one the reader expects for its cut, refused before its entries are
// read. A btab is a complete artifact, not an
// append-only log: there is no "valid prefix" to salvage, so unlike the WAL
// even a torn tail refuses to load — the coordinator treats it as a failed
// worker and re-dispatches. tests/test_shard.cpp drives the
// truncate-at-every-byte and per-byte bit-flip corpora against this promise.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/solution.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "tree/tree.hpp"

namespace rpt::shard {

/// File magic, exactly 8 bytes.
inline constexpr char kBtabMagic[8] = {'R', 'P', 'T', 'B', 'T', 'A', 'B', '1'};

/// Sanity cap on one framed record's payload (a fragment of a 10^7-node
/// shard stays well below; anything larger is a corrupt length field).
inline constexpr std::uint32_t kMaxBtabRecordBytes = 1u << 28;

/// Cap on a shipped table's demand: v1 stores each inv entry (a forwarded
/// amount <= demand) as a u32, so larger subtrees cannot be shipped.
inline constexpr std::uint64_t kMaxBtabDemand = std::uint64_t{1} << 31;

/// The subtree demand the reader expects for a cut id — the coordinator
/// answers from the megatree's SubtreeRequests. The decoder asks it for
/// every TABLE record before reading its entries, so a record whose demand
/// field lies under a valid CRC is refused early. Throws InvalidArgument for a
/// cut the reader does not know.
using CutDemand = std::function<Requests(NodeId cut)>;

/// Phase-1 export: one cut subtree's boundary table.
struct BoundaryTable {
  NodeId cut = kInvalidNode;   ///< cut subtree root, MEGATREE (global) id
  std::uint64_t demand = 0;    ///< subtree demand
  std::uint32_t subtree_nodes = 0;  ///< nodes in the cut subtree
  // Worker-side work counters, aggregated by the coordinator.
  std::uint64_t table_entries = 0;
  std::uint64_t convolve_cells = 0;
  /// The cut root's F table as on the wire: inv[c - vmin] = the smallest u
  /// with F(u) <= c, for c = vmin..vmin + inv.size() - 1.
  multiple::NodDpEngine::Cost vmin = 0;
  multiple::NodDpEngine::InvTable inv;
};

/// Phase-2 export: one cut subtree's reconstructed solution at `budget`.
/// Node ids are LOCAL slice ids (SubtreeSlice::to_global translates); the
/// forwarded list preserves the backtrack's chain order — load-bearing, the
/// spine's replicas absorb it prefix-greedily.
struct SolutionFragment {
  NodeId cut = kInvalidNode;   ///< cut subtree root, MEGATREE (global) id
  std::uint64_t budget = 0;    ///< forwarded budget the fragment answers
  Solution solution;
  std::vector<std::pair<NodeId, Requests>> forwarded;
};

/// One decoded/encodable btab file.
struct BtabFile {
  std::vector<BoundaryTable> tables;
  std::vector<SolutionFragment> fragments;
};

/// Serializes to rpt-btab v1 bytes.
[[nodiscard]] std::string EncodeBtab(const BtabFile& file);

/// Parses rpt-btab v1 bytes; throws InvalidArgument on ANY damage (see the
/// corruption contract above) and on a table whose demand differs from
/// `demand_of(table.cut)`.
[[nodiscard]] BtabFile DecodeBtab(std::string_view bytes, const CutDemand& demand_of);

/// Writes the encoded file to `path`; throws InvalidArgument on I/O error.
void WriteBtabFile(const std::string& path, const BtabFile& file);

/// Reads and decodes `path`; throws InvalidArgument on I/O error or damage.
[[nodiscard]] BtabFile ReadBtabFile(const std::string& path, const CutDemand& demand_of);

}  // namespace rpt::shard
