// Local search for the Multiple policy with distance constraints — this
// library's extension beyond the paper, motivated by the Theorem 6 finding
// (see docs/EXPERIMENTS.md E6): Algorithm 3 can strand one extra replica when
// dmax binds, and the paper's conclusion lists approximation algorithms for
// the general Multiple problem as future work.
//
// Strategy: start from the best applicable constructive solution
// (multiple-bin on binary trees, the greedy elsewhere), prune redundant
// replicas (PruneReplicas), then iterate relocation moves: try to
// move one replica to a nearby free node (its ancestors or the nodes of its
// old neighbourhood) and re-prune; accept whenever the replica count drops.
// Every candidate placement is certified by flow::MultipleFeasible and
// routed by max-flow, so the result is always feasible.
#pragma once

#include "model/instance.hpp"
#include "model/solution.hpp"

namespace rpt::multiple {

/// Tuning for the local search.
struct LocalSearchOptions {
  /// Full improvement rounds over the replica set.
  std::uint32_t max_rounds = 3;
  /// Add-then-prune moves always consider free internal nodes; client nodes
  /// are also considered when the tree has at most this many nodes (client
  /// adds matter on small trees but multiply the probe and routing cost on big
  /// ones).
  std::size_t client_add_limit = 64;
};

/// Counters describing the search.
struct LocalSearchStats {
  std::uint64_t pruned_initial = 0;   ///< replicas removed from the start solution
  std::uint64_t relocations = 0;      ///< accepted relocation moves
  std::uint64_t additions = 0;        ///< accepted add-then-prune moves
  std::uint64_t pruned_during = 0;    ///< replicas removed after moves
  std::uint64_t rounds = 0;           ///< rounds actually executed
};

/// Result of the local search.
struct LocalSearchResult {
  Solution solution;
  LocalSearchStats stats;
};

/// Runs construction + pruning + relocation local search. Requires
/// r_i <= W (throws InvalidArgument otherwise); any arity, any dmax.
[[nodiscard]] LocalSearchResult SolveMultipleLocalSearch(const Instance& instance,
                                                         const LocalSearchOptions& options = {});

}  // namespace rpt::multiple
