// Flow-based replica pruning — a repair pass this reproduction adds on top
// of the paper's Algorithm 3.
//
// Background (see docs/EXPERIMENTS.md, E6): our reproduction found that
// Algorithm 3 as specified in RR-7750 is *not* always optimal once distance
// constraints bind — a capacity trigger can pin requests below a node even
// though an optimal solution lets them travel past it (a 13-node
// counterexample is checked in tests/test_multiple_bin.cpp). On Multiple-NoD
// binary instances we observed no deviation (0/500 per configuration).
//
// PruneReplicas greedily removes replicas while the remaining placement can
// still route all requests (probed with the exact tree router,
// flow/tree_router.hpp), then routes the final set once with max-flow.
// It never increases the count and in our sweeps repairs almost every
// deviation (17 of 18 over 2500 instances). No optimality guarantee.
#pragma once

#include "model/instance.hpp"
#include "model/solution.hpp"

namespace rpt::multiple {

/// Result of a pruning pass.
struct PruneResult {
  Solution solution;          ///< pruned placement with re-routed assignment
  std::uint64_t removed = 0;  ///< how many replicas were eliminated
};

/// Greedily removes redundant replicas from a feasible Multiple-policy
/// solution: replicas are tried lightest-load first; each removal is kept iff
/// the remaining placement still routes all requests within capacity and
/// distance limits. Throws InvalidArgument if the input placement is not
/// routable to begin with.
[[nodiscard]] PruneResult PruneReplicas(const Instance& instance, const Solution& solution);

}  // namespace rpt::multiple
