// Property tests for the paged, copy-on-write PlacementSnapshot: a snapshot
// built on a base must equal a from-scratch Build of the same state in every
// accessor, every ServersOf span and CanonicalHash — whatever the base is.
// Seeded traces drive an IncrementalSolver through demand churn, client
// add/remove, capacity events, attach/detach/migrate/link topology events
// and feasible <-> infeasible transitions; every state is built both ways.
// The trees are large enough to span several pages (kSnapshotPageNodes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "serve/placement_snapshot.hpp"

namespace rpt::serve {
namespace {

using incremental::IncrementalSolver;
using incremental::TraceConfig;
using incremental::UpdateEvent;
using incremental::UpdateTrace;

Instance MakeInstance(std::uint64_t seed, std::uint32_t clients, Requests capacity) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = clients / 2;
  cfg.clients = clients;
  cfg.max_children = 4;
  cfg.min_requests = 0;
  cfg.max_requests = 9;
  return Instance(gen::GenerateRandomTree(cfg, seed), capacity);
}

std::unique_ptr<const PlacementSnapshot> BuildFrom(const IncrementalSolver& solver,
                                                   std::uint64_t version,
                                                   const PlacementSnapshot* base) {
  return PlacementSnapshot::Build(solver.View(), solver.Capacity(), solver.Demands(),
                                  solver.Current(), version, base);
}

std::vector<RouteEntry> RoutesOf(const PlacementSnapshot& snapshot, NodeId id) {
  const auto span = snapshot.ServersOf(id);
  return {span.begin(), span.end()};
}

// Every accessor of `got` against `want`, node by node.
void ExpectSameSnapshot(const PlacementSnapshot& got, const PlacementSnapshot& want) {
  ASSERT_EQ(got.Size(), want.Size());
  EXPECT_EQ(got.Version(), want.Version());
  EXPECT_EQ(got.Capacity(), want.Capacity());
  EXPECT_EQ(got.Feasible(), want.Feasible());
  EXPECT_EQ(got.ReplicaCount(), want.ReplicaCount());
  EXPECT_EQ(got.TotalDemand(), want.TotalDemand());
  EXPECT_EQ(got.CanonicalHash(), want.CanonicalHash());
  for (NodeId id = 0; id < want.Size(); ++id) {
    SCOPED_TRACE("node " + std::to_string(id));
    ASSERT_EQ(got.IsLive(id), want.IsLive(id));
    ASSERT_EQ(got.ParentOf(id), want.ParentOf(id));
    ASSERT_EQ(got.DemandOf(id), want.DemandOf(id));
    ASSERT_EQ(got.IsReplica(id), want.IsReplica(id));
    ASSERT_EQ(got.LoadOf(id), want.LoadOf(id));
    ASSERT_EQ(got.ResidualOf(id), want.ResidualOf(id));
    ASSERT_EQ(got.ResidualUnder(id), want.ResidualUnder(id));
    ASSERT_EQ(got.ReplicasUnder(id), want.ReplicasUnder(id));
    ASSERT_EQ(RoutesOf(got, id), RoutesOf(want, id));
    ASSERT_EQ(got.PrimaryServerOf(id), want.PrimaryServerOf(id));
    ASSERT_EQ(got.AttachAt(id, 0), want.AttachAt(id, 0));
    ASSERT_EQ(got.AttachAt(id, 3), want.AttachAt(id, 3));
    if (want.IsLive(id)) {
      ASSERT_EQ(got.DistToAncestor(id, 0), want.DistToAncestor(id, 0));
    }
  }
}

struct ReplayCounts {
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
};

// Replays `trace`; after each batch the snapshot built on the previous
// based snapshot must equal a from-scratch build. With `surges`, every
// fifth batch is followed by a one-batch demand surge on an active client
// (infeasible) and its undo (feasible again).
ReplayCounts ExpectBasedBuildsMatchScratch(const Instance& instance, const UpdateTrace& trace,
                                           bool surges) {
  ReplayCounts counts;
  IncrementalSolver solver(instance);
  std::uint64_t version = 1;
  auto based = BuildFrom(solver, version, nullptr);
  const auto step = [&](const std::vector<UpdateEvent>& batch, const std::string& label) {
    (void)solver.Apply(batch);
    ++version;
    auto next = BuildFrom(solver, version, based.get());
    const auto scratch = BuildFrom(solver, version, nullptr);
    SCOPED_TRACE(label);
    ExpectSameSnapshot(*next, *scratch);
    (solver.Feasible() ? counts.feasible : counts.infeasible) += 1;
    based = std::move(next);
  };
  for (std::size_t tick = 0; tick < trace.size() && !testing::Test::HasFailure(); ++tick) {
    step(trace[tick], "tick " + std::to_string(tick));
    if (!surges || tick % 5 != 4) continue;
    for (const NodeId client : solver.View().Clients()) {
      if (solver.DemandOf(client) == 0) continue;
      step({UpdateEvent::DemandDelta(client, 1000)}, "surge after tick " + std::to_string(tick));
      step({UpdateEvent::DemandDelta(client, -1000)}, "undo after tick " + std::to_string(tick));
      break;
    }
  }
  return counts;
}

TEST(SnapshotPages, DemandChurnAndSurgesMatchScratch) {
  const Instance instance = MakeInstance(11, 3000, /*capacity=*/20);
  TraceConfig config;
  config.ticks = 30;
  config.touches_per_tick = 8;
  config.max_demand = 9;
  config.add_remove_fraction = 0.25;
  const ReplayCounts counts = ExpectBasedBuildsMatchScratch(
      instance, MakeRandomTrace(instance.GetTree(), config, 5), /*surges=*/true);
  EXPECT_GT(counts.feasible, 0u);
  EXPECT_GT(counts.infeasible, 0u);
}

TEST(SnapshotPages, CapacityEventsMatchScratch) {
  const Instance instance = MakeInstance(12, 2500, /*capacity=*/20);
  TraceConfig config;
  config.ticks = 24;
  config.touches_per_tick = 6;
  config.max_demand = 9;
  config.capacity_period = 3;
  config.capacity_min = 12;
  config.capacity_max = 30;
  (void)ExpectBasedBuildsMatchScratch(instance, MakeRandomTrace(instance.GetTree(), config, 6),
                                      /*surges=*/false);
}

TEST(SnapshotPages, TopologyEventsMatchScratch) {
  const Instance instance = MakeInstance(13, 2500, /*capacity=*/20);
  TraceConfig config;
  config.ticks = 30;
  config.touches_per_tick = 6;
  config.max_demand = 9;
  config.add_remove_fraction = 0.2;
  config.join_rate = 0.15;
  config.leave_rate = 0.10;
  config.failure_rate = 0.10;
  config.link_rate = 0.05;
  config.max_attach_nodes = 40;
  config.max_move_size = 60;
  const ReplayCounts counts = ExpectBasedBuildsMatchScratch(
      instance, MakeRandomTrace(instance.GetTree(), config, 7), /*surges=*/true);
  EXPECT_GT(counts.infeasible, 0u);
}

TEST(SnapshotPages, AnyBaseGivesTheScratchResult) {
  // A base from another instance (other size, other topology, other
  // capacity) only changes which pages get shared, never the result.
  const Instance small = MakeInstance(21, 700, /*capacity=*/15);
  const Instance large = MakeInstance(22, 2600, /*capacity=*/20);
  IncrementalSolver small_solver(small);
  IncrementalSolver large_solver(large);
  const auto small_snapshot = BuildFrom(small_solver, 4, nullptr);
  const auto large_snapshot = BuildFrom(large_solver, 4, nullptr);
  {
    SCOPED_TRACE("larger base");
    ExpectSameSnapshot(*BuildFrom(small_solver, 5, large_snapshot.get()),
                       *BuildFrom(small_solver, 5, nullptr));
  }
  {
    SCOPED_TRACE("smaller base");
    ExpectSameSnapshot(*BuildFrom(large_solver, 5, small_snapshot.get()),
                       *BuildFrom(large_solver, 5, nullptr));
  }
  {
    SCOPED_TRACE("itself as base");
    ExpectSameSnapshot(*BuildFrom(large_solver, 5, large_snapshot.get()),
                       *BuildFrom(large_solver, 5, nullptr));
  }
}

TEST(SnapshotPages, BasedBuildsKeepEveryInputCheck) {
  const Instance instance = MakeInstance(31, 2500, /*capacity=*/20);
  const Tree& tree = instance.GetTree();
  const auto solved = multiple::SolveMultipleNodDp(instance);
  ASSERT_TRUE(solved.feasible);
  const auto base = PlacementSnapshot::Build(tree, instance.Capacity(), tree.RequestsColumn(),
                                             solved.solution, 1);
  const auto build = [&](const Solution& solution) {
    return PlacementSnapshot::Build(tree, instance.Capacity(), tree.RequestsColumn(), solution,
                                    2, base.get());
  };
  ASSERT_NO_THROW((void)build(solved.solution));

  // A replica dropped while every route page stays unchanged: the entries
  // still targeting it now target a non-replica.
  Solution orphaned = solved.solution;
  const NodeId loaded = orphaned.assignment.front().server;
  std::erase(orphaned.replicas, loaded);
  EXPECT_THROW((void)build(orphaned), InvalidArgument);

  // The same inside a rebuilt route page: every client of the dropped
  // replica is unchanged, while a client before them in their page changes.
  const std::vector<ServiceEntry>& entries = solved.solution.assignment;
  std::map<NodeId, std::vector<std::size_t>> entries_of;
  for (std::size_t i = 0; i < entries.size(); ++i) entries_of[entries[i].server].push_back(i);
  const auto page_of = [&](std::size_t i) { return entries[i].client >> kSnapshotPageShift; };
  bool found = false;
  for (const auto& [dropped, at] : entries_of) {
    if (page_of(at.front()) != page_of(at.back())) continue;
    for (std::size_t i = at.front(); i-- > 0 && page_of(i) == page_of(at.front());) {
      if (entries[i].amount < 2 || entries[i].client == entries[at.front()].client) continue;
      Solution orphaned_in_changed_page = solved.solution;
      std::erase(orphaned_in_changed_page.replicas, dropped);
      orphaned_in_changed_page.assignment[i].amount -= 1;  // lowers a load: valid on its own
      EXPECT_THROW((void)build(orphaned_in_changed_page), InvalidArgument);
      found = true;
      break;
    }
    if (found) break;
  }
  EXPECT_TRUE(found);

  // One entry's amount pushed past the capacity of its server.
  Solution overloaded = solved.solution;
  overloaded.assignment.back().amount += instance.Capacity();
  EXPECT_THROW((void)build(overloaded), InvalidArgument);

  // Out-of-range ids and dead replicas are refused however the pages line up.
  Solution out_of_range = solved.solution;
  out_of_range.assignment.push_back({static_cast<NodeId>(tree.Size()), loaded, 1});
  EXPECT_THROW((void)build(out_of_range), InvalidArgument);
  Solution bad_replica = solved.solution;
  bad_replica.replicas.push_back(static_cast<NodeId>(tree.Size()));
  EXPECT_THROW((void)build(bad_replica), InvalidArgument);

  // Out-of-order input is accepted exactly as a from-scratch build takes
  // it (each client's routes in input order).
  Solution shuffled = solved.solution;
  std::reverse(shuffled.assignment.begin(), shuffled.assignment.end());
  std::reverse(shuffled.replicas.begin(), shuffled.replicas.end());
  ExpectSameSnapshot(*build(shuffled),
                     *PlacementSnapshot::Build(tree, instance.Capacity(), tree.RequestsColumn(),
                                               shuffled, 2));
}

}  // namespace
}  // namespace rpt::serve
