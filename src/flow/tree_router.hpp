// Exact bottom-up feasibility check for a fixed replica placement under the
// Multiple policy — the probe every placement search calls, with no flow
// network.
//
// Under Multiple a client may only be served by replicas on its own root
// path, within dmax. The servers a request can use therefore form an upward
// path from the client to its *reach top*, the highest ancestor within dmax.
// Seen from any node s, the pending requests of subtree(s) all reach s, and
// their remaining options are nested prefixes of the path above s. So a
// post-order sweep is exact: each replica serves, up to W, the pending
// requests whose reach ends lowest first; the check fails as soon as a
// pending request cannot reach the current node's parent, or when demand is
// still pending after the root. docs/ARCHITECTURE.md ("Multiple feasibility
// without max-flow") has the exchange argument.
//
// Two regimes, chosen once per instance:
//  * every requesting client reaches the root (NoD, or dmax at least the
//    deepest client's root distance): per-node pending counters, O(n);
//  * otherwise: pending requests live in leftist max-heaps keyed by the
//    lowest root distance a server may have (DistFromRoot(client) - dmax,
//    saturating at 0), merged child into parent, O(n log n).
// All scratch is flat arrays owned by the router and reused across probes,
// so a probe allocates nothing per node. flow::RouteMultiple (Dinic) stays
// the path that produces an assignment, and the oracle the tests hold this
// router to.
//
// Thread-safety: Feasible mutates the scratch, so one router per thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/instance.hpp"

namespace rpt::flow {

class MultipleRouter {
 public:
  /// Binds the router to `instance`, which must outlive it.
  explicit MultipleRouter(const Instance& instance);

  /// True iff `replicas` can serve every request under the Multiple policy
  /// (capacity W, distance dmax). Duplicate ids count once; an id outside
  /// the tree throws InvalidArgument, as RouteMultiple does.
  [[nodiscard]] bool Feasible(std::span<const NodeId> replicas);

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  /// One client's pending requests in a leftist max-heap on `floor`.
  struct HeapNode {
    Distance floor;  ///< lowest root distance a server of this client may have
    Requests amount;
    std::uint32_t left;
    std::uint32_t right;
    std::uint32_t rank;  ///< null-path length; kNil children have rank 0
  };

  bool FeasibleCounters();
  bool FeasibleHeaps();
  std::uint32_t Rank(std::uint32_t node) const { return node == kNil ? 0 : heap_[node].rank; }
  std::uint32_t Merge(std::uint32_t a, std::uint32_t b);

  const Instance& instance_;
  const Tree& tree_;
  bool counters_only_ = true;       ///< every requesting client reaches the root
  std::vector<char> is_replica_;    ///< per node; cleared after every probe
  std::vector<Requests> pending_;   ///< counters regime: requests pending per node
  std::vector<std::uint32_t> root_of_;  ///< heap regime: pending heap per node
  std::vector<HeapNode> heap_;      ///< heap regime: node pool, one per requesting client
};

}  // namespace rpt::flow
