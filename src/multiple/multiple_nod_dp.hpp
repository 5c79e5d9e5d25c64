// Exact solver for Multiple-NoD (Multiple policy, no distance constraints)
// on arbitrary trees, via a tree knapsack DP.
//
// The paper cites [3] (Benoit, Rehn-Sonigo, Robert, TPDS 2008) for a
// polynomial-time optimal Multiple-NoD algorithm. We use an equivalent
// tree-knapsack DP: for each node j and each forwarded amount u, F_j(u) =
// minimum number of replicas in subtree(j) such that at most u requests are
// forwarded above j. The optimum is F_root(0). Every F_j is convex, so the
// engine holds it as a list of slopes (one per replica) rather than a table
// over u: a merge is linear in the slope counts, and the whole run is
// O(sum over nodes of the subtree's replica count) plus an O(log) search per
// lookup — strongly polynomial, independent of the demand magnitudes
// (demands and W may approach 2^63).
//
// Unlike multiple-bin, this solver allows r_i > W (a client may split its
// own requests between itself and ancestors), works for any arity, and is
// exact — we use it both as a baseline for the policy-gap experiments and to
// cross-check multiple-bin on NoD binary instances at sizes the brute-force
// solver cannot reach.
// The forward pass is one serial post-order sweep: with linear merges a
// level-parallel sweep on the solver pool measured no faster.
// The DP core itself (inverse-staircase tables, slope merges, budget split)
// lives in multiple/nod_dp_engine.hpp — this header keeps the batch-solve
// entry point; the incremental re-solver (src/incremental/) drives the same
// engine across update batches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "model/instance.hpp"
#include "model/solution.hpp"
#include "multiple/nod_dp_engine.hpp"

namespace rpt::multiple {

/// Counters describing the work and footprint of one DP run.
struct MultipleNodDpStats {
  /// Inverse-staircase entries (8 bytes each) held across all stored F and
  /// prefix tables — the tables' footprint, since they live until
  /// backtracking ends (NodDpWork::table_entries).
  std::uint64_t table_entries = 0;
  /// Slope-merge steps of the forward pass (NodDpWork::convolve_cells).
  std::uint64_t convolve_cells = 0;
};

/// Result of the Multiple-NoD DP.
struct MultipleNodDpResult {
  /// True iff a feasible Multiple-NoD solution exists (it may not, e.g. a
  /// chain too short to absorb a giant client demand).
  bool feasible = false;
  /// The optimal solution (empty when infeasible).
  Solution solution;
  /// Work/footprint counters of the run (filled even when infeasible).
  MultipleNodDpStats stats;
};

/// Runs the DP and reconstructs an optimal placement plus routing.
/// Requires no distance constraint; throws InvalidArgument otherwise.
[[nodiscard]] MultipleNodDpResult SolveMultipleNodDp(const Instance& instance);

}  // namespace rpt::multiple
