// Exhaustive optimal solvers for small instances.
//
// Both Single variants are NP-hard (Theorems 1 and 5 cover the hardest
// corners), so no polynomial optimal algorithm can exist unless P=NP. These
// solvers enumerate replica placements by increasing cardinality, starting
// from the lower bound ceil(total/W), and test assignment feasibility —
// backtracking for Single (whole-client bins), the exact tree router for
// Multiple (splittable; flow/tree_router.hpp), which then has the returned
// set routed by max-flow. The first feasible cardinality is optimal by
// construction.
//
// They exist to certify the approximation ratios of single-gen/single-nod
// and the optimality of multiple-bin in the property tests and experiment
// tables. Deliberately exponential; guarded by a node-count limit.
#pragma once

#include <cstdint>
#include <optional>

#include "model/instance.hpp"
#include "model/solution.hpp"

namespace rpt::exact {

/// Tuning/limits for the exhaustive search.
struct ExactConfig {
  /// Hard cap on the number of candidate replica locations; the solver
  /// throws InvalidArgument beyond it (2^max_candidates blowup).
  std::uint32_t max_candidates = 24;
  /// Optional cap on feasibility checks; 0 = unlimited. When exceeded the
  /// solver gives up and reports `aborted`.
  std::uint64_t max_checks = 0;
};

/// Outcome of an exact solve.
struct ExactResult {
  /// True iff any feasible solution exists (with Single and r_i <= W it
  /// always does; with r_i > W under Single it never does).
  bool feasible = false;
  /// True iff the search hit ExactConfig::max_checks and stopped early.
  bool aborted = false;
  /// An optimal solution when feasible.
  Solution solution;
  /// Number of placements whose feasibility was evaluated.
  std::uint64_t checked_placements = 0;
};

/// Optimal Single-policy solver (any tree, any dmax).
[[nodiscard]] ExactResult SolveExactSingle(const Instance& instance, const ExactConfig& config = {});

/// Optimal Multiple-policy solver (any tree, any dmax); feasibility per
/// placement is a tree-router probe that splits requests, so r_i > W is
/// supported.
[[nodiscard]] ExactResult SolveExactMultiple(const Instance& instance,
                                             const ExactConfig& config = {});

/// Checks whether a *given* replica set admits a feasible Single assignment;
/// returns the assignment if so. Exposed for the NP-hardness experiments
/// (e.g. "is there a solution with K servers placed here?").
[[nodiscard]] std::optional<std::vector<ServiceEntry>> RouteSingle(
    const Instance& instance, std::span<const NodeId> replicas);

}  // namespace rpt::exact
