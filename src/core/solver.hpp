// Public facade: a uniform interface over every placement algorithm in the
// library. Examples and the benchmark harness run solvers through this
// registry so each experiment names algorithms rather than hard-coding calls.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/instance.hpp"
#include "model/solution.hpp"
#include "model/validate.hpp"

namespace rpt::core {

/// Identifiers of all bundled solvers.
enum class Algorithm : std::uint8_t {
  kSingleGen,       ///< Algorithm 1: (∆+1)-approx, Single, with distances
  kSingleNod,       ///< Algorithm 2: 2-approx, Single, no distances
  kClientLocal,     ///< trivial: replica at every requesting client
  kGreedyBestFit,   ///< greedy Single baseline
  kSinglePushRoot,  ///< push-toward-root strategy from the paper's conclusion
  kMultipleBin,        ///< Algorithm 3: Multiple, binary, r_i <= W (optimal on NoD;
                       ///< see docs/EXPERIMENTS.md E6 for the distance-constrained gap)
  kMultipleBinPruned,  ///< Algorithm 3 followed by flow-based replica pruning
  kMultipleGreedy,      ///< greedy Multiple baseline with splitting
  kMultipleLocalSearch, ///< construction + pruning + relocation local search
  kMultipleNodDp,   ///< exact Multiple-NoD tree-knapsack DP
  kExactSingle,     ///< exhaustive optimal Single (small instances)
  kExactMultiple,   ///< exhaustive optimal Multiple (small instances)
};

/// All algorithms, in a stable order for iteration.
[[nodiscard]] const std::vector<Algorithm>& AllAlgorithms();

/// Stable string name (e.g. "single-gen").
[[nodiscard]] std::string_view AlgorithmName(Algorithm algorithm);

/// Parses a name back to an Algorithm; throws InvalidArgument on unknown.
[[nodiscard]] Algorithm ParseAlgorithm(std::string_view name);

/// The policy whose constraints the algorithm's output satisfies. (A Single
/// solution is also feasible under Multiple.)
[[nodiscard]] Policy AlgorithmPolicy(Algorithm algorithm);

/// True iff the algorithm is guaranteed optimal on instances it accepts.
[[nodiscard]] bool IsOptimal(Algorithm algorithm);

/// Checks applicability; returns an explanation when not applicable
/// (e.g. "requires a binary tree"), std::nullopt when applicable.
[[nodiscard]] std::optional<std::string> WhyNotApplicable(Algorithm algorithm,
                                                          const Instance& instance);

/// Outcome of one solver run.
struct RunResult {
  Algorithm algorithm{};
  bool feasible = false;       ///< a solution was produced
  Solution solution;           ///< empty when infeasible
  double elapsed_ms = 0.0;     ///< wall time of the solve call
  ValidationReport validation; ///< independent re-check of the solution
};

/// Runs one algorithm on the instance, times it, and validates the output
/// against the algorithm's policy. Throws InvalidArgument when the algorithm
/// is not applicable (check WhyNotApplicable first for graceful skipping).
[[nodiscard]] RunResult Run(Algorithm algorithm, const Instance& instance);

}  // namespace rpt::core
