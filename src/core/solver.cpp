#include "core/solver.hpp"

#include <string>

#include "exact/exact.hpp"
#include "multiple/greedy.hpp"
#include "multiple/multiple_bin.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "multiple/local_search.hpp"
#include "multiple/prune.hpp"
#include "single/baselines.hpp"
#include "single/push_root.hpp"
#include "single/single_gen.hpp"
#include "single/single_nod.hpp"
#include "support/timer.hpp"

namespace rpt::core {

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm> all = {
      Algorithm::kSingleGen,     Algorithm::kSingleNod,      Algorithm::kClientLocal,
      Algorithm::kGreedyBestFit, Algorithm::kSinglePushRoot, Algorithm::kMultipleBin,
      Algorithm::kMultipleBinPruned, Algorithm::kMultipleGreedy, Algorithm::kMultipleLocalSearch,
      Algorithm::kMultipleNodDp, Algorithm::kExactSingle,    Algorithm::kExactMultiple,
  };
  return all;
}

std::string_view AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSingleGen: return "single-gen";
    case Algorithm::kSingleNod: return "single-nod";
    case Algorithm::kClientLocal: return "client-local";
    case Algorithm::kGreedyBestFit: return "greedy-best-fit";
    case Algorithm::kSinglePushRoot: return "single-push";
    case Algorithm::kMultipleBin: return "multiple-bin";
    case Algorithm::kMultipleBinPruned: return "multiple-bin-pruned";
    case Algorithm::kMultipleGreedy: return "multiple-greedy";
    case Algorithm::kMultipleLocalSearch: return "multiple-local-search";
    case Algorithm::kMultipleNodDp: return "multiple-nod-dp";
    case Algorithm::kExactSingle: return "exact-single";
    case Algorithm::kExactMultiple: return "exact-multiple";
  }
  detail::ThrowInvalid("AlgorithmName: unknown algorithm");
}

Algorithm ParseAlgorithm(std::string_view name) {
  for (const Algorithm algorithm : AllAlgorithms()) {
    if (AlgorithmName(algorithm) == name) return algorithm;
  }
  detail::ThrowInvalid("ParseAlgorithm: unknown algorithm: " + std::string(name));
}

Policy AlgorithmPolicy(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSingleGen:
    case Algorithm::kSingleNod:
    case Algorithm::kClientLocal:
    case Algorithm::kGreedyBestFit:
    case Algorithm::kSinglePushRoot:
    case Algorithm::kExactSingle:
      return Policy::kSingle;
    case Algorithm::kMultipleBin:
    case Algorithm::kMultipleBinPruned:
    case Algorithm::kMultipleGreedy:
    case Algorithm::kMultipleLocalSearch:
    case Algorithm::kMultipleNodDp:
    case Algorithm::kExactMultiple:
      return Policy::kMultiple;
  }
  detail::ThrowInvalid("AlgorithmPolicy: unknown algorithm");
}

bool IsOptimal(Algorithm algorithm) {
  switch (algorithm) {
    // Note: the paper's Theorem 6 claims multiple-bin is optimal on all
    // Multiple-Bin instances. Our reproduction found distance-constrained
    // counterexamples (docs/EXPERIMENTS.md, E6), so the flag is honest: the
    // guarantee we could verify holds only without distance constraints,
    // and kMultipleBin is therefore not flagged unconditionally optimal.
    case Algorithm::kMultipleNodDp:
    case Algorithm::kExactSingle:
    case Algorithm::kExactMultiple:
      return true;
    default:
      return false;
  }
}

std::optional<std::string> WhyNotApplicable(Algorithm algorithm, const Instance& instance) {
  const bool fits_locally = instance.AllRequestsFitLocally();
  switch (algorithm) {
    case Algorithm::kSingleGen:
    case Algorithm::kClientLocal:
    case Algorithm::kGreedyBestFit:
    case Algorithm::kSinglePushRoot:
      if (!fits_locally) return "some client has r_i > W (no Single solution exists)";
      return std::nullopt;
    case Algorithm::kSingleNod:
      if (instance.HasDistanceConstraint()) return "requires no distance constraint (NoD)";
      if (!fits_locally) return "some client has r_i > W (no Single solution exists)";
      return std::nullopt;
    case Algorithm::kMultipleBin:
    case Algorithm::kMultipleBinPruned:
      if (!instance.GetTree().IsBinary()) return "requires a binary tree";
      if (!fits_locally) return "requires r_i <= W (Theorem 6 precondition)";
      return std::nullopt;
    case Algorithm::kMultipleGreedy:
    case Algorithm::kMultipleLocalSearch:
      if (!fits_locally) return "requires r_i <= W for a guaranteed feasible start";
      return std::nullopt;
    case Algorithm::kMultipleNodDp:
      if (instance.HasDistanceConstraint()) return "requires no distance constraint (NoD)";
      return std::nullopt;
    case Algorithm::kExactSingle:
    case Algorithm::kExactMultiple:
      if (instance.GetTree().Size() > 24) return "instance too large for exhaustive search";
      return std::nullopt;
  }
  detail::ThrowInvalid("WhyNotApplicable: unknown algorithm");
}

RunResult Run(Algorithm algorithm, const Instance& instance) {
  if (const auto reason = WhyNotApplicable(algorithm, instance)) {
    detail::ThrowInvalid(std::string(AlgorithmName(algorithm)) + ": not applicable: " + *reason);
  }
  RunResult result;
  result.algorithm = algorithm;
  Timer timer;
  switch (algorithm) {
    case Algorithm::kSingleGen:
      result.solution = single::SolveSingleGen(instance).solution;
      result.feasible = true;
      break;
    case Algorithm::kSingleNod:
      result.solution = single::SolveSingleNod(instance).solution;
      result.feasible = true;
      break;
    case Algorithm::kClientLocal:
      result.solution = single::SolveClientLocal(instance);
      result.feasible = true;
      break;
    case Algorithm::kGreedyBestFit:
      result.solution = single::SolveGreedyBestFit(instance);
      result.feasible = true;
      break;
    case Algorithm::kSinglePushRoot:
      result.solution = single::SolveSinglePushRoot(instance).solution;
      result.feasible = true;
      break;
    case Algorithm::kMultipleBin:
      result.solution = multiple::SolveMultipleBin(instance).solution;
      result.feasible = true;
      break;
    case Algorithm::kMultipleBinPruned: {
      const auto base = multiple::SolveMultipleBin(instance);
      result.solution = multiple::PruneReplicas(instance, base.solution).solution;
      result.feasible = true;
      break;
    }
    case Algorithm::kMultipleGreedy:
      result.solution = multiple::SolveMultipleGreedy(instance);
      result.feasible = true;
      break;
    case Algorithm::kMultipleLocalSearch:
      result.solution = multiple::SolveMultipleLocalSearch(instance).solution;
      result.feasible = true;
      break;
    case Algorithm::kMultipleNodDp: {
      auto dp = multiple::SolveMultipleNodDp(instance);
      result.feasible = dp.feasible;
      result.solution = std::move(dp.solution);
      break;
    }
    case Algorithm::kExactSingle: {
      auto exact = exact::SolveExactSingle(instance);
      result.feasible = exact.feasible;
      result.solution = std::move(exact.solution);
      break;
    }
    case Algorithm::kExactMultiple: {
      auto exact = exact::SolveExactMultiple(instance);
      result.feasible = exact.feasible;
      result.solution = std::move(exact.solution);
      break;
    }
  }
  result.elapsed_ms = timer.ElapsedMs();
  if (result.feasible) {
    result.validation = ValidateSolution(instance, AlgorithmPolicy(algorithm), result.solution);
    RPT_CHECK(result.validation.ok);
  }
  return result;
}

}  // namespace rpt::core
