// Tests for the Dinic max-flow substrate, the Multiple-policy routing built
// on top of it, and the exact tree router held to Dinic as its oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flow/assignment.hpp"
#include "flow/dinic.hpp"
#include "flow/tree_router.hpp"
#include "gen/random_tree.hpp"
#include "gen/shapes.hpp"
#include "model/validate.hpp"
#include "support/rng.hpp"

namespace rpt::flow {
namespace {

TEST(Dinic, SingleEdge) {
  MaxFlow net(2);
  net.AddEdge(0, 1, 7);
  EXPECT_EQ(net.Compute(0, 1), 7u);
}

TEST(Dinic, SeriesBottleneck) {
  MaxFlow net(3);
  net.AddEdge(0, 2, 10);
  net.AddEdge(2, 1, 4);
  EXPECT_EQ(net.Compute(0, 1), 4u);
}

TEST(Dinic, ParallelPathsAdd) {
  MaxFlow net(4);
  net.AddEdge(0, 2, 3);
  net.AddEdge(2, 1, 3);
  net.AddEdge(0, 3, 5);
  net.AddEdge(3, 1, 5);
  EXPECT_EQ(net.Compute(0, 1), 8u);
}

TEST(Dinic, ClassicResidualRerouting) {
  // Diamond with a cross edge: requires augmenting through the residual
  // graph to reach max flow 2 when capacities are 1.
  MaxFlow net(4);
  net.AddEdge(0, 2, 1);
  net.AddEdge(0, 3, 1);
  net.AddEdge(2, 3, 1);
  net.AddEdge(2, 1, 1);
  net.AddEdge(3, 1, 1);
  EXPECT_EQ(net.Compute(0, 1), 2u);
}

TEST(Dinic, DisconnectedSinkGivesZero) {
  MaxFlow net(4);
  net.AddEdge(0, 2, 5);
  EXPECT_EQ(net.Compute(0, 1), 0u);
}

TEST(Dinic, FlowOnReportsPerEdgeFlow) {
  MaxFlow net(4);
  const EdgeId a = net.AddEdge(0, 2, 3);
  const EdgeId b = net.AddEdge(2, 1, 2);
  EXPECT_EQ(net.Compute(0, 1), 2u);
  EXPECT_EQ(net.FlowOn(a), 2u);
  EXPECT_EQ(net.FlowOn(b), 2u);
  EXPECT_THROW((void)net.FlowOn(a + 1), InvalidArgument);  // backward edge handle
}

TEST(Dinic, LargeLayeredGraph) {
  // 200 parallel middle nodes, capacity 1 each: max flow 200.
  constexpr std::size_t kMiddle = 200;
  MaxFlow net(2 + kMiddle);
  for (std::size_t i = 0; i < kMiddle; ++i) {
    net.AddEdge(0, 2 + i, 1);
    net.AddEdge(2 + i, 1, 1);
  }
  EXPECT_EQ(net.Compute(0, 1), kMiddle);
}

TEST(Dinic, RejectsBadConstruction) {
  EXPECT_THROW(MaxFlow{0}, InvalidArgument);
  MaxFlow net(3);
  EXPECT_THROW(net.AddEdge(0, 0, 1), InvalidArgument);
  EXPECT_THROW(net.AddEdge(0, 9, 1), InvalidArgument);
  EXPECT_THROW((void)net.Compute(0, 9), InvalidArgument);
}

TEST(Dinic, ZeroCapacityEdgeCarriesNoFlow) {
  MaxFlow net(2);
  const EdgeId e = net.AddEdge(0, 1, 0);
  EXPECT_EQ(net.Compute(0, 1), 0u);
  EXPECT_EQ(net.FlowOn(e), 0u);
}

TEST(Dinic, ZeroCapacityEdgeDoesNotOpenAPath) {
  // A saturated route next to a zero-capacity shortcut: only the real
  // capacity counts.
  MaxFlow net(3);
  net.AddEdge(0, 2, 4);
  net.AddEdge(2, 1, 4);
  net.AddEdge(0, 1, 0);
  EXPECT_EQ(net.Compute(0, 1), 4u);
}

TEST(Dinic, SingleNodeGraphReportsZeroFlow) {
  MaxFlow net(1);
  EXPECT_EQ(net.NodeCount(), 1u);
  EXPECT_EQ(net.Compute(0, 0), 0u);  // degenerate source == sink, no crash
}

TEST(Dinic, SourceEqualsSinkReportsZeroFlow) {
  MaxFlow net(2);
  net.AddEdge(0, 1, 5);
  EXPECT_EQ(net.Compute(1, 1), 0u);
}

TEST(Dinic, DisconnectedSourceAndSinkComponents) {
  // Edges exist on both sides, but the source component {0,2} never reaches
  // the sink component {1,3}: zero flow, no crash.
  MaxFlow net(4);
  const EdgeId a = net.AddEdge(0, 2, 5);
  const EdgeId b = net.AddEdge(3, 1, 7);
  EXPECT_EQ(net.Compute(0, 1), 0u);
  EXPECT_EQ(net.FlowOn(a), 0u);
  EXPECT_EQ(net.FlowOn(b), 0u);
}

// --- RouteMultiple -------------------------------------------------------

// root(0) - n1(1) - {c2: 8 req, c3: 8 req}, edges all length 1.
Instance ChainInstance(Requests w, Distance dmax) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 8);
  b.AddClient(n1, 1, 8);
  return Instance(b.Build(), w, dmax);
}

TEST(RouteMultiple, SplitsAcrossServers) {
  const Instance inst = ChainInstance(10, kNoDistanceLimit);
  const std::vector<NodeId> replicas{0, 1};
  const auto routing = RouteMultiple(inst, replicas);
  ASSERT_TRUE(routing.has_value());
  Solution s;
  s.replicas = replicas;
  s.assignment = *routing;
  const auto report = ValidateSolution(inst, Policy::kMultiple, s);
  EXPECT_TRUE(report.ok) << report.Describe();
}

TEST(RouteMultiple, InfeasibleWhenCapacityShort) {
  const Instance inst = ChainInstance(10, kNoDistanceLimit);
  EXPECT_FALSE(MultipleFeasible(inst, std::vector<NodeId>{1}));   // 16 > 10
  EXPECT_TRUE(MultipleFeasible(inst, std::vector<NodeId>{0, 1}));
}

TEST(RouteMultiple, DistanceConstraintsExcludeFarServers) {
  // dmax = 1: the root (distance 2 from clients) cannot help.
  const Instance inst = ChainInstance(10, 1);
  EXPECT_FALSE(MultipleFeasible(inst, std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(MultipleFeasible(inst, std::vector<NodeId>{1, 2}));  // n1 + one client
}

TEST(RouteMultiple, ClientBiggerThanWNeedsSplitting) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 25);  // r_i = 25 > W = 10
  const Instance inst(b.Build(), 10, kNoDistanceLimit);
  EXPECT_FALSE(MultipleFeasible(inst, std::vector<NodeId>{0, 1}));      // 20 < 25
  EXPECT_TRUE(MultipleFeasible(inst, std::vector<NodeId>{0, 1, 2}));    // 30 >= 25
}

TEST(RouteMultiple, EmptyReplicaSetOnlyWorksWithoutRequests) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 0);
  const Instance no_requests(b.Build(), 5, kNoDistanceLimit);
  EXPECT_TRUE(MultipleFeasible(no_requests, std::vector<NodeId>{}));
  const Instance with_requests = ChainInstance(10, kNoDistanceLimit);
  EXPECT_FALSE(MultipleFeasible(with_requests, std::vector<NodeId>{}));
}

// --- MultipleRouter vs Dinic ---------------------------------------------

/// Dinic's verdict on the placement; the router must match it.
bool DinicFeasible(const Instance& instance, std::span<const NodeId> replicas) {
  return RouteMultiple(instance, replicas).has_value();
}

/// Checks the router (fresh and reused) and MultipleFeasible against Dinic.
void ExpectAgrees(const Instance& instance, MultipleRouter& router,
                  std::span<const NodeId> replicas) {
  const bool dinic = DinicFeasible(instance, replicas);
  EXPECT_EQ(router.Feasible(replicas), dinic) << instance.Summary();
  EXPECT_EQ(MultipleFeasible(instance, replicas), dinic) << instance.Summary();
}

TEST(MultipleRouter, DmaxZeroOnlyTheClientOrZeroLengthEdgesServe) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId flat = b.AddInternal(root, 0);  // zero-length edge: same point as root
  const NodeId far = b.AddInternal(root, 3);
  const NodeId c1 = b.AddClient(flat, 0, 6);
  const NodeId c2 = b.AddClient(far, 1, 4);
  const Instance inst(b.Build(), 10, 0);
  MultipleRouter router(inst);
  EXPECT_FALSE(router.Feasible(std::vector<NodeId>{root, flat, far}));
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{root, c2}));  // c1 reaches the root at distance 0
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{c1, c2}));
  EXPECT_FALSE(router.Feasible(std::vector<NodeId>{c1, far}));
  for (const auto& set : {std::vector<NodeId>{root, flat, far}, std::vector<NodeId>{root, c2},
                          std::vector<NodeId>{c1, c2}, std::vector<NodeId>{c1, far}}) {
    ExpectAgrees(inst, router, set);
  }
}

TEST(MultipleRouter, BindingDmaxServesTheLowestReachFirst) {
  // root -3- a -3- c (8 req, reach ends at a), and a -1- mid -1- d (8 req,
  // reaches the root). Replica a (W=10) must give c its 8 and leave 6 of
  // d's for the root, not the other way round.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId a = b.AddInternal(root, 3);
  b.AddClient(a, 3, 8);  // c
  const NodeId mid = b.AddInternal(a, 1);
  b.AddClient(mid, 1, 8);  // d
  const Instance inst(b.Build(), 10, 5);
  MultipleRouter router(inst);
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{a, root}));
  EXPECT_FALSE(router.Feasible(std::vector<NodeId>{a}));
  EXPECT_FALSE(router.Feasible(std::vector<NodeId>{mid, root}));  // c cannot reach the root
  ExpectAgrees(inst, router, std::vector<NodeId>{a, root});
  ExpectAgrees(inst, router, std::vector<NodeId>{a});
  ExpectAgrees(inst, router, std::vector<NodeId>{mid, root});
}

TEST(MultipleRouter, ReplicasOnClientsAndDuplicateIds) {
  const Instance inst = ChainInstance(10, 1);
  MultipleRouter router(inst);
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{1, 1, 2, 2}));
  EXPECT_FALSE(router.Feasible(std::vector<NodeId>{1, 1, 1}));  // a duplicate adds no capacity
  for (const auto& set : {std::vector<NodeId>{2, 3}, std::vector<NodeId>{1, 1, 2, 2},
                          std::vector<NodeId>{1, 1, 1}, std::vector<NodeId>{0, 0, 3}}) {
    ExpectAgrees(inst, router, set);
  }
}

TEST(MultipleRouter, ZeroDemandClientsNeedNoServer) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 5);
  b.AddClient(n1, 1, 0);
  b.AddClient(root, 1, 3);
  const Instance inst(b.Build(), 4, 1);
  MultipleRouter router(inst);
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{root}));
  EXPECT_FALSE(router.Feasible(std::vector<NodeId>{n1}));
  ExpectAgrees(inst, router, std::vector<NodeId>{root});
  ExpectAgrees(inst, router, std::vector<NodeId>{n1});
  ExpectAgrees(inst, router, std::vector<NodeId>{});
}

TEST(MultipleRouter, SingleNodeTree) {
  TreeBuilder b;
  b.AddRoot();
  const Instance inst(b.Build(), 1, 0);
  MultipleRouter router(inst);
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{}));
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{0}));
  ExpectAgrees(inst, router, std::vector<NodeId>{});
  ExpectAgrees(inst, router, std::vector<NodeId>{0});
}

TEST(MultipleRouter, DemandAboveCapacitySplitsAlongThePath) {
  for (const Distance dmax : {Distance{1}, Distance{2}, kNoDistanceLimit}) {
    const Instance inst(gen::MakeChain(4, 25), 10, dmax);  // client 4 at distance 4
    MultipleRouter router(inst);
    for (const auto& set : {std::vector<NodeId>{4, 3}, std::vector<NodeId>{4, 3, 2},
                            std::vector<NodeId>{4, 3, 2, 1, 0}, std::vector<NodeId>{2, 1, 0}}) {
      ExpectAgrees(inst, router, set);
    }
    EXPECT_EQ(router.Feasible(std::vector<NodeId>{4, 3, 2}), dmax != 1);
  }
}

TEST(MultipleRouter, DemandsNearTwoToTheSixtyThird) {
  // Two clients near 2^63 each: the total still fits in Requests.
  constexpr Requests kBig = (Requests{1} << 63) - 5;
  constexpr Requests kSmall = (Requests{1} << 63) - 7;
  static_assert(kBig + kSmall > kBig);  // no wrap-around
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 2);
  const NodeId c1 = b.AddClient(n1, 1, kBig);
  const NodeId c2 = b.AddClient(root, 1, kSmall);
  const Tree tree = b.Build();
  for (const Distance dmax : {Distance{1}, Distance{3}, kNoDistanceLimit}) {
    const Instance inst(tree, kBig, dmax);
    MultipleRouter router(inst);
    for (const auto& set :
         {std::vector<NodeId>{c1, c2}, std::vector<NodeId>{n1, root}, std::vector<NodeId>{root},
          std::vector<NodeId>{n1, c2}, std::vector<NodeId>{c1, n1, root}}) {
      ExpectAgrees(inst, router, set);
    }
    EXPECT_TRUE(router.Feasible(std::vector<NodeId>{c1, c2}));
    EXPECT_FALSE(router.Feasible(std::vector<NodeId>{root}));
  }
}

TEST(MultipleRouter, OutOfRangeReplicaThrowsLikeRouteMultiple) {
  const Instance inst = ChainInstance(10, kNoDistanceLimit);
  MultipleRouter router(inst);
  const std::vector<NodeId> bad{0, 99};
  EXPECT_THROW((void)RouteMultiple(inst, bad), InvalidArgument);
  EXPECT_THROW((void)router.Feasible(bad), InvalidArgument);
  EXPECT_THROW((void)MultipleFeasible(inst, bad), InvalidArgument);
  // A refused probe leaves no replica marked behind.
  EXPECT_FALSE(router.Feasible(std::vector<NodeId>{}));
  EXPECT_TRUE(router.Feasible(std::vector<NodeId>{0, 1}));
}

/// One seeded instance from every generator family, with a dmax that is 0,
/// binding (drawn below the deepest client's distance) or kNoDistanceLimit.
Instance SweepInstance(Rng& rng) {
  const std::uint64_t family = rng.NextBelow(8);
  const Distance min_edge = rng.NextBool(0.2) ? 0 : 1;
  Tree tree = [&]() {
    switch (family) {
      case 0:
      case 1: {
        gen::RandomTreeConfig cfg;
        cfg.internal_nodes = static_cast<std::uint32_t>(rng.NextInRange(1, 12));
        cfg.clients = cfg.internal_nodes + static_cast<std::uint32_t>(rng.NextBelow(14));
        // Enough child slots for every non-root node.
        const std::uint32_t non_root = cfg.internal_nodes - 1 + cfg.clients;
        const std::uint32_t need = (non_root + cfg.internal_nodes - 1) / cfg.internal_nodes;
        cfg.max_children = std::max(need, static_cast<std::uint32_t>(rng.NextInRange(2, 6)));
        cfg.min_edge = min_edge;
        cfg.min_requests = 0;
        cfg.max_requests = 12;
        return gen::GenerateRandomTree(cfg, rng.Next());
      }
      case 2:
      case 3: {
        gen::BinaryTreeConfig cfg;
        cfg.clients = static_cast<std::uint32_t>(rng.NextInRange(1, 24));
        cfg.min_edge = min_edge;
        cfg.min_requests = 0;
        cfg.max_requests = 12;
        cfg.balanced = family == 3;
        return gen::GenerateFullBinaryTree(cfg, rng.Next());
      }
      default: {
        std::vector<Requests> requests(rng.NextInRange(1, 10));
        for (Requests& r : requests) r = rng.NextBelow(13);
        const Distance edge = rng.NextBelow(3);
        const auto count = static_cast<std::uint32_t>(requests.size());
        if (family == 4) return gen::MakeStar(count, requests, edge);
        if (family == 5) return gen::MakeChain(count, requests[0], edge);
        if (family == 6 && count >= 2) return gen::MakeCaterpillar(requests, edge);
        return gen::MakeComb(requests, static_cast<std::uint32_t>(rng.NextInRange(1, 3)), edge);
      }
    }
  }();
  Distance deepest = 0;
  for (const NodeId client : tree.Clients()) deepest = std::max(deepest, tree.DistFromRoot(client));
  const Requests capacity = rng.NextInRange(1, 25);
  const std::uint64_t dmax_kind = rng.NextBelow(4);
  const Distance dmax = dmax_kind == 0   ? 0
                        : dmax_kind == 1 ? kNoDistanceLimit
                                         : rng.NextBelow(deepest + 1);
  return Instance(std::move(tree), capacity, dmax);
}

/// A replica set: random density, sometimes with duplicates or all clients.
std::vector<NodeId> SweepReplicas(Rng& rng, const Tree& tree) {
  const double density = 0.1 + 0.9 * rng.NextUnit();
  const bool with_clients = rng.NextBool(0.5);
  std::vector<NodeId> replicas;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (tree.IsClient(id) && !with_clients) continue;
    if (rng.NextBool(density)) replicas.push_back(id);
  }
  if (!replicas.empty() && rng.NextBool(0.2)) {
    replicas.push_back(replicas[rng.NextBelow(replicas.size())]);  // a duplicate id
  }
  rng.Shuffle(replicas);
  return replicas;
}

TEST(MultipleRouter, SeededSweepAgreesWithDinic) {
  constexpr int kInstances = 6000;
  constexpr int kSetsPerInstance = 2;
  Rng rng(0x7EE0A7E5ull);
  int feasible = 0;
  int feasible_with_dmax = 0;
  int counters_regime = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Instance inst = SweepInstance(rng);
    if (!inst.HasDistanceConstraint()) ++counters_regime;
    MultipleRouter router(inst);  // reused across the instance's probes
    for (int k = 0; k < kSetsPerInstance; ++k) {
      const std::vector<NodeId> replicas = SweepReplicas(rng, inst.GetTree());
      const bool dinic = DinicFeasible(inst, replicas);
      ASSERT_EQ(router.Feasible(replicas), dinic)
          << "instance " << i << " set " << k << ": " << inst.Summary();
      feasible += dinic ? 1 : 0;
      feasible_with_dmax += dinic && inst.HasDistanceConstraint() ? 1 : 0;
    }
  }
  EXPECT_GE(feasible, 1000);
  EXPECT_GE(feasible_with_dmax, 1000);
  EXPECT_GE(counters_regime, kInstances / 5);
  ::testing::Test::RecordProperty("feasible", feasible);
  ::testing::Test::RecordProperty("feasible_with_dmax", feasible_with_dmax);
}

}  // namespace
}  // namespace rpt::flow
