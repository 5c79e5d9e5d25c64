// Differential sweep: the cost-domain NodDpEngine (inverse staircases, slope
// merges, level-walk budget split) against the demand-domain DP it replaced
// (tests/nod_dp_reference.hpp), over every generator family. Every table
// value, every reconstructed solution, every budgeted reconstruction with
// its forwarded chain, and every imported-leaf budget sweep must agree
// exactly. A second test scales demands and W toward 2^62 to show the
// solver no longer depends on demand magnitudes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "flow/assignment.hpp"
#include "gen/random_tree.hpp"
#include "gen/shapes.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "nod_dp_reference.hpp"
#include "support/rng.hpp"

namespace rpt::multiple {
namespace {

using reference::NodDpReference;

std::vector<Requests> DrawDemands(Rng& rng, std::size_t count, Requests max_demand) {
  std::vector<Requests> demands(count);
  for (Requests& r : demands) r = rng.NextInRange(0, max_demand);
  return demands;
}

// One tree of the named family; demands lie in [0, max_demand].
Tree MakeFamilyTree(int family, Rng& rng, Requests max_demand) {
  switch (family) {
    case 0: {  // random arity <= 12
      gen::RandomTreeConfig cfg;
      cfg.internal_nodes = static_cast<std::uint32_t>(rng.NextInRange(1, 10));
      cfg.max_children = static_cast<std::uint32_t>(rng.NextInRange(2, 12));
      // Child slots must fit every non-root node.
      const std::uint32_t slots = cfg.internal_nodes * (cfg.max_children - 1) + 1;
      cfg.clients = std::min<std::uint32_t>(
          slots, cfg.internal_nodes + static_cast<std::uint32_t>(rng.NextInRange(0, 20)));
      cfg.min_requests = 0;
      cfg.max_requests = max_demand;
      cfg.request_skew = rng.NextBool(0.5) ? 1.0 : 2.0;
      return gen::GenerateRandomTree(cfg, rng.Next());
    }
    case 1:
    case 2: {  // full binary, unbalanced / balanced
      gen::BinaryTreeConfig cfg;
      cfg.clients = static_cast<std::uint32_t>(rng.NextInRange(1, 32));
      cfg.min_requests = 0;
      cfg.max_requests = max_demand;
      cfg.balanced = family == 2;
      return gen::GenerateFullBinaryTree(cfg, rng.Next());
    }
    case 3: {
      const auto demands = DrawDemands(rng, rng.NextInRange(1, 24), max_demand);
      return gen::MakeStar(static_cast<std::uint32_t>(demands.size()), demands);
    }
    case 4:
      return gen::MakeChain(static_cast<std::uint32_t>(rng.NextInRange(1, 8)),
                            rng.NextInRange(0, max_demand));
    case 5:
      return gen::MakeCaterpillar(DrawDemands(rng, rng.NextInRange(2, 24), max_demand));
    default:
      return gen::MakeComb(DrawDemands(rng, rng.NextInRange(1, 10), max_demand),
                           static_cast<std::uint32_t>(rng.NextInRange(1, 4)));
  }
}
constexpr int kFamilies = 7;

// Spine of `tree` with every cut subtree collapsed to one client leaf that
// demands the subtree total (the sharded solve's spine construction).
// Returns the spine and, per spine node, its id in `tree`.
std::pair<Tree, std::vector<NodeId>> BuildSpine(const Tree& tree, const std::vector<char>& is_cut) {
  std::vector<NodeId> to_spine(tree.Size(), kInvalidNode);
  std::vector<NodeId> to_tree;
  TreeBuilder builder;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (id == tree.Root()) {
      to_spine[id] = builder.AddRoot();
    } else {
      const NodeId parent = tree.Parent(id);
      if (to_spine[parent] == kInvalidNode || is_cut[parent]) continue;  // inside a cut
      if (is_cut[id]) {
        to_spine[id] =
            builder.AddClient(to_spine[parent], tree.DistToParent(id), tree.SubtreeRequests(id));
      } else if (tree.IsClient(id)) {
        to_spine[id] =
            builder.AddClient(to_spine[parent], tree.DistToParent(id), tree.RequestsOf(id));
      } else {
        to_spine[id] = builder.AddInternal(to_spine[parent], tree.DistToParent(id));
      }
    }
    to_tree.push_back(id);
  }
  return {builder.Build(), std::move(to_tree)};
}

struct SweepTotals {
  std::uint64_t trees = 0;
  std::uint64_t nodes = 0;
  std::uint64_t feasible = 0;
  std::uint64_t budgeted = 0;
  std::uint64_t spines = 0;
};

void CheckTree(const Tree& tree, Requests capacity, Rng& rng, SweepTotals& totals) {
  NodDpEngine engine(tree, capacity);
  engine.ComputeAll();
  NodDpReference oracle(tree, capacity);
  oracle.Compute();
  ++totals.trees;
  totals.nodes += tree.Size();

  // F(u) at every node and every u.
  for (NodeId id = 0; id < tree.Size(); ++id) {
    const auto inv = engine.TableOf(id);
    const auto& table = oracle.TableOf(id);
    ASSERT_EQ(inv[0], tree.SubtreeRequests(id)) << "node " << id;
    ASSERT_EQ(table.size(), tree.SubtreeRequests(id) + 1) << "node " << id;
    for (Requests u = 0; u < table.size(); ++u) {
      ASSERT_EQ(NodDpEngine::CostAt(inv, u), table[u])
          << "node " << id << " u " << u;
    }
  }
  ASSERT_EQ(engine.Feasible(), oracle.Feasible());
  if (!engine.Feasible()) return;
  ++totals.feasible;

  // The solution, byte for byte.
  const Solution solution = engine.Backtrack();
  const Solution expected = oracle.Backtrack();
  ASSERT_EQ(solution.replicas, expected.replicas);
  ASSERT_EQ(solution.assignment, expected.assignment);

  // Budgeted reconstructions (fragment replays included) with their
  // forwarded chains in order.
  const Requests total = tree.TotalRequests();
  for (int probe = 0; probe < 3 && total > 0; ++probe) {
    const Requests budget = rng.NextInRange(1, total + 2);  // past the total clamps
    auto got = engine.BacktrackWithBudget(budget);
    auto want = oracle.BacktrackWithBudget(budget);
    ASSERT_EQ(got.solution.replicas, want.solution.replicas) << "budget " << budget;
    ASSERT_EQ(got.solution.assignment, want.solution.assignment) << "budget " << budget;
    ASSERT_EQ(got.forwarded, want.forwarded) << "budget " << budget;
    ++totals.budgeted;
  }

  // Imported leaves: cut disjoint subtrees, import their tables on a spine,
  // and compare the downward budget sweep.
  std::vector<char> is_cut(tree.Size(), 0);
  std::vector<char> under_cut(tree.Size(), 0);
  bool any_cut = false;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (id == tree.Root()) continue;
    const NodeId parent = tree.Parent(id);
    under_cut[id] = under_cut[parent] || is_cut[parent];
    if (!under_cut[id] && rng.NextBool(0.3)) {
      is_cut[id] = 1;
      any_cut = true;
    }
  }
  if (!any_cut) return;
  const auto [spine, to_tree] = BuildSpine(tree, is_cut);
  NodDpEngine spine_engine(spine, capacity);
  NodDpReference spine_oracle(spine, capacity);
  for (NodeId s = 0; s < spine.Size(); ++s) {
    if (!is_cut[to_tree[s]]) continue;
    spine_engine.ImportLeafTable(s, 0, engine.TableOf(to_tree[s]));
    spine_oracle.ImportLeafTable(s, oracle.TableOf(to_tree[s]));
  }
  spine_engine.ComputeAll();
  spine_oracle.Compute();
  for (NodeId s = 0; s < spine.Size(); ++s) {
    ASSERT_EQ(spine_engine.TableOf(s), engine.TableOf(to_tree[s])) << "spine node " << s;
  }
  ASSERT_TRUE(spine_engine.Feasible());
  const auto budgets = spine_engine.AssignImportedBudgets();
  const auto expected_budgets = spine_oracle.AssignImportedBudgets();
  ASSERT_EQ(budgets.size(), expected_budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_EQ(budgets[i].leaf, expected_budgets[i].first);
    EXPECT_EQ(budgets[i].budget, expected_budgets[i].second);
  }
  ++totals.spines;
}

TEST(NodDpCostDomain, MatchesDemandDomainReferenceOnEveryFamily) {
  SweepTotals totals;
  Rng rng(20261020);
  constexpr int kTreesPerFamily = 1000;
  for (int family = 0; family < kFamilies; ++family) {
    for (int i = 0; i < kTreesPerFamily; ++i) {
      const Requests capacity = rng.NextInRange(1, 61);
      const Tree tree = MakeFamilyTree(family, rng, 2 * capacity + 5);
      SCOPED_TRACE("family " + std::to_string(family) + " tree " + std::to_string(i) + " W " +
                   std::to_string(capacity));
      CheckTree(tree, capacity, rng, totals);
      if (HasFatalFailure()) return;
    }
  }
  // The sweep must exercise every path, infeasible trees included.
  EXPECT_EQ(totals.trees, std::uint64_t{kFamilies} * kTreesPerFamily);
  EXPECT_GT(totals.feasible, totals.trees / 2);
  EXPECT_LT(totals.feasible, totals.trees);
  EXPECT_GT(totals.spines, totals.trees / 4);
  RecordProperty("trees", std::to_string(totals.trees));
  RecordProperty("nodes", std::to_string(totals.nodes));
  RecordProperty("feasible", std::to_string(totals.feasible));
  std::cout << "cost-domain sweep: " << totals.trees << " trees, " << totals.nodes << " nodes, "
            << totals.feasible << " feasible, " << totals.budgeted << " budgeted backtracks, "
            << totals.spines << " spines\n";
}

// `tree` with every demand multiplied by k.
Tree ScaleDemands(const Tree& tree, Requests k) {
  TreeBuilder builder;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (id == tree.Root()) {
      builder.AddRoot();
    } else if (tree.IsClient(id)) {
      builder.AddClient(tree.Parent(id), tree.DistToParent(id), tree.RequestsOf(id) * k);
    } else {
      builder.AddInternal(tree.Parent(id), tree.DistToParent(id));
    }
  }
  return builder.Build();
}

// Scaling every demand and W by k scales every feasible flow by k and maps
// integral flows back (flow integrality), so the optimal replica count is
// unchanged. The tables hold one entry per replica, so the solve does not
// grow with k either, and nothing overflows with the total near 2^62.
TEST(NodDpCostDomain, CostIsInvariantUnderScalingTowardTwoToTheSixtyTwo) {
  Rng rng(62);
  int feasible = 0;
  for (int i = 0; i < 40; ++i) {
    const Requests capacity = rng.NextInRange(1, 61);
    const Tree tree = MakeFamilyTree(i % kFamilies, rng, 2 * capacity + 5);
    const Requests total = tree.TotalRequests();
    if (total == 0) continue;
    // The larger of the total and W lands just below 2^62.
    const Requests top = std::max(total, capacity);
    const Requests k = (Requests{1} << 62) / top;
    const Instance small(ScaleDemands(tree, 1), capacity, kNoDistanceLimit);
    const Instance scaled(ScaleDemands(tree, k), capacity * k, kNoDistanceLimit);
    ASSERT_GT(top * k, (Requests{1} << 62) - top);
    const auto base = SolveMultipleNodDp(small);
    const auto big = SolveMultipleNodDp(scaled);
    ASSERT_EQ(big.feasible, base.feasible) << "tree " << i;
    EXPECT_EQ(big.stats.table_entries, base.stats.table_entries) << "tree " << i;
    if (!big.feasible) continue;
    ++feasible;
    EXPECT_EQ(big.solution.ReplicaCount(), base.solution.ReplicaCount()) << "tree " << i;
    const auto report = ValidateSolution(scaled, Policy::kMultiple, big.solution);
    EXPECT_TRUE(report.ok) << "tree " << i << ": " << report.Describe();
    EXPECT_TRUE(flow::MultipleFeasible(scaled, big.solution.replicas)) << "tree " << i;
  }
  EXPECT_GT(feasible, 10);
}

}  // namespace
}  // namespace rpt::multiple
