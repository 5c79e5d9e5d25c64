// End-to-end integration tests crossing all modules: generate -> serialize ->
// reload -> solve with every applicable algorithm -> validate -> compare, and
// a full paper-workflow smoke test (reductions + tightness families through
// the facade).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "gen/paper_instances.hpp"
#include "gen/random_tree.hpp"
#include "npc/reductions.hpp"
#include "tree/serialize.hpp"

namespace rpt {
namespace {

TEST(Integration, SerializeSolveRoundTrip) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 12;
  cfg.min_requests = 1;
  cfg.max_requests = 8;
  const Tree original = gen::GenerateFullBinaryTree(cfg, 42);

  // Round-trip through the text format, then solve on the reloaded tree.
  std::stringstream buffer;
  WriteTree(buffer, original);
  const Tree reloaded = ReadTree(buffer);
  const Instance inst(reloaded, /*capacity=*/8, /*dmax=*/7);

  const auto algo = core::Run(core::Algorithm::kMultipleBin, inst);
  EXPECT_TRUE(algo.feasible);
  EXPECT_TRUE(algo.validation.ok);

  // The same instance built from the original tree yields the same count.
  const Instance direct(original, 8, 7);
  const auto again = core::Run(core::Algorithm::kMultipleBin, direct);
  EXPECT_EQ(algo.solution.ReplicaCount(), again.solution.ReplicaCount());
}

TEST(Integration, AllAlgorithmsAgreeOnRelativeOrder) {
  // On small binary NoD instances every solver applies; optimal counts must
  // bracket heuristic counts across the whole registry.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = 7;
    cfg.min_requests = 1;
    cfg.max_requests = 5;
    const Instance inst(gen::GenerateFullBinaryTree(cfg, 100 + seed), /*capacity=*/5,
                        kNoDistanceLimit);
    std::map<core::Algorithm, std::size_t> counts;
    for (const core::Algorithm algorithm : core::AllAlgorithms()) {
      if (core::WhyNotApplicable(algorithm, inst).has_value()) continue;
      const auto result = core::Run(algorithm, inst);
      ASSERT_TRUE(result.feasible) << core::AlgorithmName(algorithm) << " seed=" << seed;
      counts[algorithm] = result.solution.ReplicaCount();
    }
    const std::size_t opt_multiple = counts.at(core::Algorithm::kExactMultiple);
    const std::size_t opt_single = counts.at(core::Algorithm::kExactSingle);
    EXPECT_EQ(counts.at(core::Algorithm::kMultipleBin), opt_multiple) << seed;
    EXPECT_EQ(counts.at(core::Algorithm::kMultipleNodDp), opt_multiple) << seed;
    EXPECT_LE(opt_multiple, opt_single) << seed;
    EXPECT_GE(counts.at(core::Algorithm::kSingleGen), opt_single) << seed;
    EXPECT_GE(counts.at(core::Algorithm::kSingleNod), opt_single) << seed;
    EXPECT_GE(counts.at(core::Algorithm::kMultipleGreedy), opt_multiple) << seed;
    EXPECT_GE(counts.at(core::Algorithm::kGreedyBestFit), opt_single) << seed;
  }
}

TEST(Integration, PaperArtifactsEndToEnd) {
  // Fig. 3: single-gen hits exactly its worst case while the optimum stays
  // m+1 (verified exactly for a small instance).
  const gen::TightnessIm im = gen::BuildTightnessIm(2, 2);
  const auto im_algo = core::Run(core::Algorithm::kSingleGen, im.instance);
  EXPECT_EQ(im_algo.solution.ReplicaCount(), im.single_gen_expected);
  const auto im_opt = core::Run(core::Algorithm::kExactSingle, im.instance);
  EXPECT_EQ(im_opt.solution.ReplicaCount(), im.optimal);

  // Fig. 4: single-nod hits exactly 2K while K+1 is optimal.
  const gen::TightnessFig4 fig = gen::BuildTightnessFig4(3);
  const auto fig_algo = core::Run(core::Algorithm::kSingleNod, fig.instance);
  EXPECT_EQ(fig_algo.solution.ReplicaCount(), fig.single_nod_expected);
  const auto fig_opt = core::Run(core::Algorithm::kExactSingle, fig.instance);
  EXPECT_EQ(fig_opt.solution.ReplicaCount(), fig.optimal);

  // Fig. 5 / Theorem 5: the constructed instance defeats multiple-bin's
  // precondition (a client exceeds W) but the greedy with splitting is not
  // applicable either; the facade reports both cleanly.
  Rng rng(55);
  const auto values = npc::NormalizeForI6(npc::MakeTwoPartitionEqualYes(3, 10, rng));
  const npc::Reduction red = npc::BuildI6(values);
  EXPECT_TRUE(core::WhyNotApplicable(core::Algorithm::kMultipleBin, red.instance).has_value());
  EXPECT_TRUE(
      core::WhyNotApplicable(core::Algorithm::kMultipleGreedy, red.instance).has_value());
}

TEST(Integration, ParallelSolvesAreRaceFree) {
  // Solves on concurrent threads, as BatchRunner's workers run them: results
  // must equal the serial run (catches accidental shared state inside
  // solvers).
  constexpr std::size_t kRuns = 32;
  std::vector<std::size_t> serial(kRuns);
  std::vector<std::size_t> parallel_counts(kRuns);
  auto make_instance = [](std::size_t i) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = 20;
    cfg.min_requests = 1;
    cfg.max_requests = 9;
    return Instance(gen::GenerateFullBinaryTree(cfg, 500 + i), /*capacity=*/9, /*dmax=*/8);
  };
  for (std::size_t i = 0; i < kRuns; ++i) {
    serial[i] = core::Run(core::Algorithm::kMultipleBin, make_instance(i)).solution.ReplicaCount();
  }
  constexpr std::size_t kThreads = 4;
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < kRuns; i += kThreads) {
          parallel_counts[i] =
              core::Run(core::Algorithm::kMultipleBin, make_instance(i)).solution.ReplicaCount();
        }
      });
    }
  }  // jthreads join here
  EXPECT_EQ(serial, parallel_counts);
}

TEST(Integration, LargeInstanceSmokeTest) {
  // 20k-node tree solved by every linear-ish solver in well under a second.
  gen::BinaryTreeConfig cfg;
  cfg.clients = 10000;
  cfg.min_requests = 1;
  cfg.max_requests = 50;
  cfg.balanced = true;
  const Instance inst(gen::GenerateFullBinaryTree(cfg, 7), /*capacity=*/200, /*dmax=*/40);
  const auto gen_result = core::Run(core::Algorithm::kSingleGen, inst);
  EXPECT_TRUE(gen_result.validation.ok);
  const auto bin_result = core::Run(core::Algorithm::kMultipleBin, inst);
  EXPECT_TRUE(bin_result.validation.ok);
  EXPECT_LE(bin_result.solution.ReplicaCount(), gen_result.solution.ReplicaCount());
}

}  // namespace
}  // namespace rpt
