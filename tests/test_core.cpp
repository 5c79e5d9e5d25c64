// Tests for the core solver facade: names, applicability, and the Run()
// wrapper's timing/validation contract.
#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "gen/random_tree.hpp"

namespace rpt::core {
namespace {

Instance BinaryNodInstance(std::uint64_t seed = 1) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 10;
  cfg.min_requests = 1;
  cfg.max_requests = 6;
  return Instance(gen::GenerateFullBinaryTree(cfg, seed), /*capacity=*/6, kNoDistanceLimit);
}

TEST(Registry, NamesRoundTrip) {
  for (const Algorithm algorithm : AllAlgorithms()) {
    EXPECT_EQ(ParseAlgorithm(AlgorithmName(algorithm)), algorithm);
  }
  EXPECT_THROW((void)ParseAlgorithm("does-not-exist"), InvalidArgument);
}

TEST(Registry, PolicyAndOptimalityFlags) {
  EXPECT_EQ(AlgorithmPolicy(Algorithm::kSingleGen), Policy::kSingle);
  EXPECT_EQ(AlgorithmPolicy(Algorithm::kMultipleBin), Policy::kMultiple);
  EXPECT_FALSE(IsOptimal(Algorithm::kSingleGen));
  EXPECT_FALSE(IsOptimal(Algorithm::kSingleNod));
  // The paper claims multiple-bin is optimal (Theorem 6); our reproduction
  // found distance-constrained counterexamples, so the registry does not
  // advertise an unconditional guarantee (see docs/EXPERIMENTS.md, E6).
  EXPECT_FALSE(IsOptimal(Algorithm::kMultipleBin));
  EXPECT_TRUE(IsOptimal(Algorithm::kMultipleNodDp));
  EXPECT_TRUE(IsOptimal(Algorithm::kExactSingle));
}

TEST(Registry, ApplicabilityRules) {
  const Instance binary_nod = BinaryNodInstance();
  EXPECT_FALSE(WhyNotApplicable(Algorithm::kSingleGen, binary_nod).has_value());
  EXPECT_FALSE(WhyNotApplicable(Algorithm::kSingleNod, binary_nod).has_value());
  EXPECT_FALSE(WhyNotApplicable(Algorithm::kMultipleBin, binary_nod).has_value());

  // Distance constraint disables the NoD-only solvers.
  gen::BinaryTreeConfig cfg;
  cfg.clients = 6;
  const Instance with_dmax(gen::GenerateFullBinaryTree(cfg, 2), 10, /*dmax=*/4);
  EXPECT_TRUE(WhyNotApplicable(Algorithm::kSingleNod, with_dmax).has_value());
  EXPECT_TRUE(WhyNotApplicable(Algorithm::kMultipleNodDp, with_dmax).has_value());
  EXPECT_FALSE(WhyNotApplicable(Algorithm::kSingleGen, with_dmax).has_value());

  // Ternary tree disables multiple-bin.
  gen::RandomTreeConfig ternary;
  ternary.internal_nodes = 3;
  ternary.clients = 7;
  ternary.max_children = 3;
  const Instance wide(gen::GenerateRandomTree(ternary, 3), 10, kNoDistanceLimit);
  if (wide.GetTree().Arity() > 2) {
    EXPECT_TRUE(WhyNotApplicable(Algorithm::kMultipleBin, wide).has_value());
  }

  // Oversized clients disable the Single solvers.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId mid = b.AddInternal(root, 1);
  b.AddClient(mid, 1, 50);
  const Instance oversized(b.Build(), 10, kNoDistanceLimit);
  EXPECT_TRUE(WhyNotApplicable(Algorithm::kSingleGen, oversized).has_value());
  EXPECT_TRUE(WhyNotApplicable(Algorithm::kMultipleBin, oversized).has_value());
  EXPECT_FALSE(WhyNotApplicable(Algorithm::kMultipleNodDp, oversized).has_value());
}

TEST(RunFacade, ProducesValidatedSolutions) {
  const Instance inst = BinaryNodInstance(7);
  for (const Algorithm algorithm : AllAlgorithms()) {
    if (WhyNotApplicable(algorithm, inst).has_value()) continue;
    const RunResult result = rpt::core::Run(algorithm, inst);
    EXPECT_TRUE(result.feasible) << AlgorithmName(algorithm);
    EXPECT_TRUE(result.validation.ok) << AlgorithmName(algorithm);
    EXPECT_GE(result.elapsed_ms, 0.0);
    EXPECT_GE(result.solution.ReplicaCount(), inst.CapacityLowerBound())
        << AlgorithmName(algorithm);
  }
}

TEST(RunFacade, OptimalSolversAgreeWithEachOther) {
  const Instance inst = BinaryNodInstance(11);
  const auto bin = rpt::core::Run(Algorithm::kMultipleBin, inst);
  const auto dp = rpt::core::Run(Algorithm::kMultipleNodDp, inst);
  EXPECT_EQ(bin.solution.ReplicaCount(), dp.solution.ReplicaCount());
}

TEST(RunFacade, ThrowsOnInapplicableAlgorithm) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 6;
  const Instance with_dmax(gen::GenerateFullBinaryTree(cfg, 2), 10, /*dmax=*/4);
  EXPECT_THROW((void)rpt::core::Run(Algorithm::kSingleNod, with_dmax), InvalidArgument);
}

TEST(RunFacade, ApproximationOrderingHolds) {
  // exact <= multiple-bin(=opt for Multiple) <= single exact <= approx <=
  // client-local, on a binary NoD instance where everything applies.
  const Instance inst = BinaryNodInstance(13);
  const auto exact_multiple = rpt::core::Run(Algorithm::kExactMultiple, inst);
  const auto bin = rpt::core::Run(Algorithm::kMultipleBin, inst);
  const auto exact_single = rpt::core::Run(Algorithm::kExactSingle, inst);
  const auto gen_result = rpt::core::Run(Algorithm::kSingleGen, inst);
  const auto local = rpt::core::Run(Algorithm::kClientLocal, inst);
  EXPECT_EQ(exact_multiple.solution.ReplicaCount(), bin.solution.ReplicaCount());
  EXPECT_LE(bin.solution.ReplicaCount(), exact_single.solution.ReplicaCount());
  EXPECT_LE(exact_single.solution.ReplicaCount(), gen_result.solution.ReplicaCount());
  EXPECT_LE(gen_result.solution.ReplicaCount(), local.solution.ReplicaCount());
}

}  // namespace
}  // namespace rpt::core
