// Determinism guards for intra-instance parallelism: the Multiple-NoD DP
// must be byte-identical at every solver-pool width. Runs the same inputs at
// widths 1 (serial path), 2, and 7 (more workers than the machine may have
// cores, which is exactly the oversubscribed case worth exercising) and
// compares every solver output. (The DP sweep itself is serial since its
// merges became linear; these guards keep any future parallel path honest.)
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "model/instance.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "support/thread_pool.hpp"

namespace rpt {
namespace {

// Restores serial solving on scope exit so test order cannot leak a pool
// width into unrelated tests.
struct SolverThreadsGuard {
  explicit SolverThreadsGuard(std::size_t threads) { SetSolverThreads(threads); }
  ~SolverThreadsGuard() { SetSolverThreads(1); }
};

// FNV-1a over the canonicalized solution, matching the golden-test hash in
// test_hotpath_equivalence.cpp.
std::uint64_t HashSolution(Solution solution) {
  solution.Canonicalize();
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(solution.replicas.size());
  for (NodeId r : solution.replicas) mix(r);
  mix(solution.assignment.size());
  for (const ServiceEntry& e : solution.assignment) {
    mix(e.client);
    mix(e.server);
    mix(e.amount);
  }
  return h;
}

TEST(ParallelMultipleNodDp, ByteIdenticalToSerialAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = 400;
    cfg.clients = 1600;
    cfg.max_children = 5;
    cfg.min_requests = 1;
    cfg.max_requests = 9;
    SetSolverThreads(1);
    const Instance instance(gen::GenerateRandomTree(cfg, seed), /*capacity=*/30,
                            kNoDistanceLimit);
    const auto serial = multiple::SolveMultipleNodDp(instance);
    ASSERT_TRUE(serial.feasible);
    const std::uint64_t serial_hash = HashSolution(serial.solution);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
      SolverThreadsGuard guard(threads);
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " + std::to_string(threads));
      const auto parallel = multiple::SolveMultipleNodDp(instance);
      ASSERT_TRUE(parallel.feasible);
      EXPECT_EQ(parallel.solution.ReplicaCount(), serial.solution.ReplicaCount());
      EXPECT_EQ(HashSolution(parallel.solution), serial_hash);
      // The work counters are exact integer sums, so they must match too.
      EXPECT_EQ(parallel.stats.table_entries, serial.stats.table_entries);
      EXPECT_EQ(parallel.stats.convolve_cells, serial.stats.convolve_cells);
    }
  }
}

TEST(ParallelMultipleNodDp, InfeasibleDetectionMatchesAcrossThreadCounts) {
  // A giant client demand on a short chain is infeasible; every solver-pool
  // width must agree with the serial verdict.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  NodeId cur = root;
  for (int i = 0; i < 4; ++i) cur = b.AddInternal(cur, 1);
  b.AddClient(cur, 1, 50000);
  const Instance instance(b.Build(), /*capacity=*/10, kNoDistanceLimit);
  SetSolverThreads(1);
  const auto serial = multiple::SolveMultipleNodDp(instance);
  EXPECT_FALSE(serial.feasible);
  {
    SolverThreadsGuard guard(7);
    const auto parallel = multiple::SolveMultipleNodDp(instance);
    EXPECT_FALSE(parallel.feasible);
    EXPECT_EQ(parallel.stats.table_entries, serial.stats.table_entries);
    EXPECT_EQ(parallel.stats.convolve_cells, serial.stats.convolve_cells);
  }
}

}  // namespace
}  // namespace rpt
