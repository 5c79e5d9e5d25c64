#include "model/solution.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>

#include "support/common.hpp"

namespace rpt {

namespace {

// Stable LSD radix sort by a key of `key_bits` bits, 11 bits a pass. One
// pre-pass counts every digit's histogram; a digit that is the same for
// every item is skipped (its pass would be the identity). O(items) time
// with fixed 2^11-entry histograms (no term in the largest id) and one
// scratch copy of `items`.
template <class T, class KeyOf>
void RadixSortByKey(std::vector<T>& items, KeyOf key_of, unsigned key_bits) {
  constexpr unsigned kDigitBits = 11;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  const std::size_t n = items.size();
  const unsigned digits = (key_bits + kDigitBits - 1) / kDigitBits;
  if (n < 2 || digits == 0) return;
  std::vector<std::uint32_t> counts(digits * kRadix, 0);
  for (const T& item : items) {
    const std::uint64_t key = key_of(item);
    for (unsigned d = 0; d < digits; ++d) {
      ++counts[d * kRadix + ((key >> (d * kDigitBits)) & (kRadix - 1))];
    }
  }
  std::vector<T> scratch(n);
  T* src = items.data();
  T* dst = scratch.data();
  const std::uint64_t first_key = key_of(items.front());
  for (unsigned d = 0; d < digits; ++d) {
    const unsigned shift = d * kDigitBits;
    std::uint32_t* count = counts.data() + d * kRadix;
    if (count[(first_key >> shift) & (kRadix - 1)] == n) continue;
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < kRadix; ++b) offset += std::exchange(count[b], offset);
    for (std::size_t i = 0; i < n; ++i) dst[count[(key_of(src[i]) >> shift) & (kRadix - 1)]++] = src[i];
    std::swap(src, dst);
  }
  if (src != items.data()) items.swap(scratch);
}

}  // namespace

void Solution::Canonicalize() {
  // Keys are offsets from the smallest id, so a narrow id range (a shard
  // fragment, a subtree) sorts in as few passes as a small tree.
  if (!replicas.empty()) {
    const auto [lo, hi] = std::minmax_element(replicas.begin(), replicas.end());
    const NodeId base = *lo;
    RadixSortByKey(replicas, [base](NodeId id) { return std::uint64_t{id - base}; },
                   std::bit_width(std::uint64_t{*hi - base}));
    replicas.erase(std::unique(replicas.begin(), replicas.end()), replicas.end());
  }
  // Sort by (client, server), then merge duplicates in place — same
  // canonical order a (client, server)-keyed map would produce.
  if (!assignment.empty()) {
    NodeId client_lo = kInvalidNode, client_hi = 0, server_lo = kInvalidNode, server_hi = 0;
    for (const ServiceEntry& entry : assignment) {
      client_lo = std::min(client_lo, entry.client);
      client_hi = std::max(client_hi, entry.client);
      server_lo = std::min(server_lo, entry.server);
      server_hi = std::max(server_hi, entry.server);
    }
    const unsigned server_bits = std::bit_width(std::uint64_t{server_hi - server_lo});
    const unsigned client_bits = std::bit_width(std::uint64_t{client_hi - client_lo});
    RadixSortByKey(
        assignment,
        [=](const ServiceEntry& entry) {
          return (std::uint64_t{entry.client - client_lo} << server_bits) |
                 (entry.server - server_lo);
        },
        client_bits + server_bits);
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < assignment.size();) {
    const NodeId client = assignment[i].client;
    const NodeId server = assignment[i].server;
    Requests amount = 0;
    for (; i < assignment.size() && assignment[i].client == client &&
           assignment[i].server == server;
         ++i) {
      amount += assignment[i].amount;
    }
    if (amount > 0) assignment[out++] = ServiceEntry{client, server, amount};
  }
  assignment.resize(out);
}

Solution MapNodeIds(const Solution& solution, std::span<const NodeId> map) {
  const auto remap = [&map](NodeId id) {
    RPT_REQUIRE(id < map.size() && map[id] != kInvalidNode,
                "MapNodeIds: solution references an unmapped node id");
    return map[id];
  };
  Solution out;
  out.replicas.reserve(solution.replicas.size());
  for (NodeId replica : solution.replicas) out.replicas.push_back(remap(replica));
  out.assignment.reserve(solution.assignment.size());
  for (const ServiceEntry& entry : solution.assignment) {
    out.assignment.push_back(ServiceEntry{remap(entry.client), remap(entry.server), entry.amount});
  }
  return out;
}

LoadSummary SummarizeLoads(const Tree& tree, Requests capacity, const Solution& solution) {
  (void)tree;
  RPT_REQUIRE(capacity > 0, "SummarizeLoads: capacity must be positive");
  std::map<NodeId, Requests> load;
  for (NodeId replica : solution.replicas) load[replica] = 0;
  for (const ServiceEntry& entry : solution.assignment) load[entry.server] += entry.amount;
  LoadSummary summary;
  for (const auto& [server, amount] : load) {
    summary.max_load = std::max(summary.max_load, amount);
    summary.total_load += amount;
  }
  if (!load.empty()) {
    summary.mean_load =
        static_cast<double>(summary.total_load) / static_cast<double>(load.size());
    summary.utilization = static_cast<double>(summary.total_load) /
                          (static_cast<double>(load.size()) * static_cast<double>(capacity));
  }
  return summary;
}

}  // namespace rpt
