// Tests for the incremental re-solve engine (src/incremental/).
//
// The load-bearing property is oracle equivalence: after EVERY applied
// event batch, the incremental solver's solution must be byte-identical
// (cost and canonical-solution hash) to a from-scratch solve of the same
// state — checked against both SolveMultipleNodDp on the materialized
// instance and a second IncrementalSolver running the kFullResolve oracle
// engine, on paper-style shapes (chain/star/caterpillar/comb), random
// general trees, and full binary trees, at solver-pool widths 1 and 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "gen/shapes.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "runner/batch_runner.hpp"
#include "single/single_nod.hpp"
#include "support/thread_pool.hpp"

namespace rpt::incremental {
namespace {

// FNV-1a over the canonicalized solution (same scheme as the hot-path
// golden tests).
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

struct Topology {
  std::string name;
  Tree tree;
  Requests capacity;
};

std::vector<Topology> MakeTopologies(std::uint64_t seed) {
  std::vector<Topology> topologies;
  const std::vector<Requests> caterpillar_requests{3, 7, 0, 12, 5, 9, 1, 4};
  const std::vector<Requests> comb_requests{6, 2, 8, 4, 10};
  const std::vector<Requests> star_requests{5, 9, 2};
  topologies.push_back({"chain", gen::MakeChain(/*depth=*/6, /*requests=*/9), 10});
  topologies.push_back({"star", gen::MakeStar(/*clients=*/12, star_requests), 15});
  topologies.push_back({"caterpillar", gen::MakeCaterpillar(caterpillar_requests), 12});
  topologies.push_back({"comb", gen::MakeComb(comb_requests, /*tooth_depth=*/3), 14});
  {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = 40;
    cfg.clients = 120;
    cfg.max_children = 4;
    cfg.min_requests = 0;
    cfg.max_requests = 9;
    topologies.push_back({"random", gen::GenerateRandomTree(cfg, seed), 25});
  }
  {
    gen::BinaryTreeConfig cfg;
    cfg.clients = 96;
    cfg.min_requests = 1;
    cfg.max_requests = 10;
    topologies.push_back({"binary", gen::GenerateFullBinaryTree(cfg, seed + 1), 30});
  }
  return topologies;
}

// Asserts the incremental solver's state equals a from-scratch solve of the
// materialized instance, byte for byte.
void ExpectMatchesOracle(const IncrementalSolver& solver, const std::string& context) {
  SCOPED_TRACE(context);
  const Instance materialized = solver.MaterializeInstance();
  const auto oracle = multiple::SolveMultipleNodDp(materialized);
  ASSERT_EQ(solver.Feasible(), oracle.feasible);
  if (!oracle.feasible) return;
  EXPECT_EQ(solver.Current().ReplicaCount(), oracle.solution.ReplicaCount());
  EXPECT_EQ(HashSolution(solver.Current()), HashSolution(oracle.solution));
  const auto validation = ValidateSolution(materialized, Policy::kMultiple, solver.Current());
  EXPECT_TRUE(validation.ok) << validation.Describe();
}

class IncrementalEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { SetSolverThreads(GetParam()); }
  void TearDown() override { SetSolverThreads(1); }
};

TEST_P(IncrementalEquivalence, RandomizedEventStreamsMatchOracleAfterEveryBatch) {
  const std::vector<Topology> topologies = MakeTopologies(/*seed=*/7);
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Topology& topology = topologies[t];
    const Instance instance(topology.tree, topology.capacity);
    TraceConfig config;
    config.ticks = 24;
    config.touches_per_tick = 2;
    config.max_demand = 13;  // occasionally above W on the tighter topologies
    config.add_remove_fraction = 0.3;
    const UpdateTrace trace =
        MakeRandomTrace(instance.GetTree(), config, runner::DeriveSeed(101, t));

    IncrementalSolver solver(instance);
    IncrementalSolver oracle(instance, {Engine::kFullResolve, Policy::kMultiple});
    ExpectMatchesOracle(solver, topology.name + "/initial");
    for (std::size_t tick = 0; tick < trace.size(); ++tick) {
      const bool feasible = solver.Apply(trace[tick]);
      const bool oracle_feasible = oracle.Apply(trace[tick]);
      ASSERT_EQ(feasible, oracle_feasible) << topology.name << " tick " << tick;
      ASSERT_EQ(HashSolution(solver.Current()), HashSolution(oracle.Current()))
          << topology.name << " tick " << tick;
      ExpectMatchesOracle(solver, topology.name + "/tick " + std::to_string(tick));
    }
    // The incremental engine must actually be incremental: with 2 touches
    // per tick it re-processes at most the oracle's node count, and strictly
    // fewer whenever the dirty root paths cannot cover the whole tree (on
    // the chain topology the single client's path IS the tree, so equality
    // there is correct, not a bug).
    EXPECT_LE(solver.Stats().nodes_recomputed, oracle.Stats().nodes_recomputed)
        << topology.name;
    if (topology.tree.ClientCount() > 1) {
      EXPECT_LT(solver.Stats().nodes_recomputed, oracle.Stats().nodes_recomputed)
          << topology.name;
      EXPECT_GT(solver.Stats().nodes_reused, 0u) << topology.name;
    }
  }
}

TEST_P(IncrementalEquivalence, CapacityChangesForceEquivalentFullRecompute) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 64;
  cfg.min_requests = 1;
  cfg.max_requests = 10;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 3), /*capacity=*/20);
  IncrementalSolver solver(instance);
  const std::uint64_t full_before = solver.Stats().full_recomputes;

  const std::vector<UpdateEvent> batch{
      UpdateEvent::DemandDelta(instance.GetTree().Clients()[0], 5),
      UpdateEvent::Capacity(35),
  };
  EXPECT_TRUE(solver.Apply(batch));
  EXPECT_EQ(solver.Capacity(), 35u);
  EXPECT_EQ(solver.Stats().full_recomputes, full_before + 1);
  ExpectMatchesOracle(solver, "after capacity change");

  // Dropping W back also recomputes everything and still matches.
  const std::vector<UpdateEvent> back{UpdateEvent::Capacity(20)};
  EXPECT_TRUE(solver.Apply(back));
  ExpectMatchesOracle(solver, "after capacity restore");
}

TEST_P(IncrementalEquivalence, InfeasibleAndBackToFeasibleTransitions) {
  // A chain of depth 3 can absorb at most 4*W requests (client + three
  // ancestors); push the single client far past that, then back.
  const Instance instance(gen::MakeChain(/*depth=*/3, /*requests=*/5), /*capacity=*/10);
  IncrementalSolver solver(instance);
  ASSERT_TRUE(solver.Feasible());
  const NodeId client = instance.GetTree().Clients()[0];

  const std::vector<UpdateEvent> surge{UpdateEvent::DemandDelta(client, 100)};
  EXPECT_FALSE(solver.Apply(surge));
  EXPECT_TRUE(solver.Current().replicas.empty());
  ExpectMatchesOracle(solver, "infeasible state");

  const std::vector<UpdateEvent> calm{UpdateEvent::DemandDelta(client, -90)};
  EXPECT_TRUE(solver.Apply(calm));
  EXPECT_EQ(solver.DemandOf(client), 15u);
  ExpectMatchesOracle(solver, "feasible again");
}

// Churn mix for the mixed-batch topology tests: demand updates, client
// add/remove transitions, joins, leaves, failure re-homes, and link
// reconfigurations all interleave within single batches.
TraceConfig ChurnConfig() {
  TraceConfig config;
  config.ticks = 20;
  config.touches_per_tick = 3;
  config.max_demand = 11;
  config.add_remove_fraction = 0.25;
  config.join_rate = 0.15;
  config.leave_rate = 0.10;
  config.failure_rate = 0.10;
  config.link_rate = 0.05;
  return config;
}

std::size_t CountTopologyEvents(const UpdateTrace& trace) {
  std::size_t count = 0;
  for (const auto& batch : trace) {
    for (const UpdateEvent& event : batch) count += event.IsTopology() ? 1 : 0;
  }
  return count;
}

TEST_P(IncrementalEquivalence, MixedTopologyStreamsMatchOracleAfterEveryBatch) {
  const std::vector<Topology> topologies = MakeTopologies(/*seed=*/19);
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Topology& topology = topologies[t];
    SCOPED_TRACE(topology.name);
    const Instance instance(topology.tree, topology.capacity);
    const UpdateTrace trace =
        MakeRandomTrace(instance.GetTree(), ChurnConfig(), runner::DeriveSeed(211, t));
    ASSERT_GT(CountTopologyEvents(trace), 0u);  // churn knobs must actually churn

    IncrementalSolver solver(instance);
    IncrementalSolver oracle(instance, {Engine::kFullResolve, Policy::kMultiple});
    for (std::size_t tick = 0; tick < trace.size(); ++tick) {
      SCOPED_TRACE("tick " + std::to_string(tick));
      const bool feasible = solver.Apply(trace[tick]);
      const bool oracle_feasible = oracle.Apply(trace[tick]);
      ASSERT_EQ(feasible, oracle_feasible);
      // Byte-identical in view ids against the compact-solve-remap oracle.
      ASSERT_EQ(HashSolution(solver.Current()), HashSolution(oracle.Current()));
      if (!feasible) continue;
      // And independently anchored: compact the state through
      // TreeBuilder::Build, solve from scratch, and check the incremental
      // solution translates onto it with the same cost.
      const auto materialized = solver.MaterializeCompact();
      const auto batch = multiple::SolveMultipleNodDp(materialized.instance);
      ASSERT_TRUE(batch.feasible);
      EXPECT_EQ(solver.Current().ReplicaCount(), batch.solution.ReplicaCount());
      const Solution mapped = MapNodeIds(solver.Current(), materialized.remap);
      const auto validation =
          ValidateSolution(materialized.instance, Policy::kMultiple, mapped);
      EXPECT_TRUE(validation.ok) << validation.Describe();
    }
    EXPECT_LE(solver.Stats().nodes_recomputed, oracle.Stats().nodes_recomputed);
    if (topology.tree.Size() > 100) {
      // On the large shapes the dirty chains cannot cover the whole tree.
      EXPECT_LT(solver.Stats().nodes_recomputed, oracle.Stats().nodes_recomputed);
      EXPECT_GT(solver.Stats().nodes_reused, 0u);
    }
  }
}

TEST_P(IncrementalEquivalence, SinglePolicyMixedTopologyMatchesOracle) {
  const std::vector<Topology> topologies = MakeTopologies(/*seed=*/23);
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const Topology& topology = topologies[t];
    SCOPED_TRACE(topology.name);
    const Instance instance(topology.tree, topology.capacity);
    const UpdateTrace trace =
        MakeRandomTrace(instance.GetTree(), ChurnConfig(), runner::DeriveSeed(223, t));
    ASSERT_GT(CountTopologyEvents(trace), 0u);

    IncrementalSolver solver(instance, {Engine::kIncremental, Policy::kSingle});
    IncrementalSolver oracle(instance, {Engine::kFullResolve, Policy::kSingle});
    for (std::size_t tick = 0; tick < trace.size(); ++tick) {
      SCOPED_TRACE("tick " + std::to_string(tick));
      const bool feasible = solver.Apply(trace[tick]);
      const bool oracle_feasible = oracle.Apply(trace[tick]);
      ASSERT_EQ(feasible, oracle_feasible);
      ASSERT_EQ(HashSolution(solver.Current()), HashSolution(oracle.Current()));
      if (!feasible) continue;
      const auto materialized = solver.MaterializeCompact();
      const Solution mapped = MapNodeIds(solver.Current(), materialized.remap);
      const auto validation =
          ValidateSolution(materialized.instance, Policy::kSingle, mapped);
      EXPECT_TRUE(validation.ok) << validation.Describe();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SolverPoolWidths, IncrementalEquivalence, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// Every observable facet of a solver's state, for byte-identity checks
// after rejected batches (the solution hash alone would not catch a
// partially applied demand column that happens to re-solve to the same
// placement, or a corrupted stats counter).
struct SolverStateImage {
  std::vector<Requests> demands;
  Requests capacity = 0;
  Requests total_demand = 0;
  bool feasible = false;
  std::uint64_t solution_hash = 0;
  IncrementalStats stats;
};

SolverStateImage CaptureState(const IncrementalSolver& solver) {
  SolverStateImage image;
  image.demands.assign(solver.Demands().begin(), solver.Demands().end());
  image.capacity = solver.Capacity();
  image.total_demand = solver.TotalDemand();
  image.feasible = solver.Feasible();
  image.solution_hash = HashSolution(solver.Current());
  image.stats = solver.Stats();
  return image;
}

void ExpectStateEquals(const SolverStateImage& before, const IncrementalSolver& solver) {
  const SolverStateImage after = CaptureState(solver);
  EXPECT_EQ(after.demands, before.demands);
  EXPECT_EQ(after.capacity, before.capacity);
  EXPECT_EQ(after.total_demand, before.total_demand);
  EXPECT_EQ(after.feasible, before.feasible);
  EXPECT_EQ(after.solution_hash, before.solution_hash);
  EXPECT_EQ(after.stats.events_applied, before.stats.events_applied);
  EXPECT_EQ(after.stats.resolves, before.stats.resolves);
  EXPECT_EQ(after.stats.full_recomputes, before.stats.full_recomputes);
  EXPECT_EQ(after.stats.nodes_recomputed, before.stats.nodes_recomputed);
  EXPECT_EQ(after.stats.nodes_reused, before.stats.nodes_reused);
}

TEST(IncrementalSolver, BadEventsThrowAndLeaveStateUntouched) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 16;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 9), /*capacity=*/20);
  IncrementalSolver solver(instance);
  const SolverStateImage before = CaptureState(solver);
  const NodeId client = instance.GetTree().Clients()[0];
  const NodeId other = instance.GetTree().Clients()[1];
  const NodeId dark = instance.GetTree().Clients()[2];
  ASSERT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::ClientRemove(dark)}));
  const SolverStateImage with_dark = CaptureState(solver);
  constexpr std::int64_t kMaxDelta = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMinDelta = std::numeric_limits<std::int64_t>::min();

  const std::vector<std::vector<UpdateEvent>> bad_batches{
      {UpdateEvent::DemandDelta(instance.GetTree().Root(), 1)},  // not a client
      {UpdateEvent::DemandDelta(kInvalidNode, 1)},               // out of range
      {UpdateEvent::DemandDelta(client, -1000)},                 // below zero
      {UpdateEvent::ClientAdd(client, 5)},                       // already active
      {UpdateEvent::ClientAdd(client, 0)},                       // zero-demand add
      {UpdateEvent::Capacity(0)},                                // zero capacity
      // A good event followed by a bad one: atomicity means neither lands.
      {UpdateEvent::DemandDelta(client, 2), UpdateEvent::Capacity(0)},
      // Wrap-through-unsigned attempts. Two max deltas on one client would
      // wrap its demand past 2^64; the split across two clients would wrap
      // the total instead; INT64_MIN's magnitude is UB to negate naively.
      {UpdateEvent::DemandDelta(client, kMaxDelta), UpdateEvent::DemandDelta(client, kMaxDelta),
       UpdateEvent::DemandDelta(client, 2)},
      {UpdateEvent::DemandDelta(client, kMaxDelta), UpdateEvent::DemandDelta(other, kMaxDelta),
       UpdateEvent::DemandDelta(other, 2)},
      {UpdateEvent::DemandDelta(client, kMinDelta)},
      // A batch-internal add then an overflowing delta on the same client.
      {UpdateEvent::ClientAdd(dark, 5), UpdateEvent::DemandDelta(dark, kMaxDelta),
       UpdateEvent::DemandDelta(dark, kMaxDelta)},
  };
  for (std::size_t i = 0; i < bad_batches.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    EXPECT_THROW((void)solver.Apply(bad_batches[i]), InvalidArgument);
    ExpectStateEquals(with_dark, solver);
  }

  // The solver is not poisoned: a good batch after the rejections applies
  // normally and the state still matches the from-scratch oracle.
  ASSERT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::ClientAdd(dark, 4),
                                                    UpdateEvent::DemandDelta(client, 3)}));
  EXPECT_EQ(solver.Stats().events_applied, before.stats.events_applied + 3);
  ExpectMatchesOracle(solver, "after rejected batches");
}

TEST(IncrementalSolver, NearLimitDemandsApplyWithoutWrapping) {
  // Deltas that stop just short of the unsigned ceiling must be accepted —
  // the overflow guard rejects wraps, not big numbers. The Single overlay
  // policy is the one that can represent such a state cheaply (its
  // feasibility scan is O(clients)); the Multiple DP sizes tables by demand
  // and would never be asked to solve a 2^64-request client.
  const std::vector<Requests> requests{0, 0};
  const Instance instance(gen::MakeStar(2, requests), /*capacity=*/10);
  IncrementalSolver solver(instance, {Engine::kIncremental, Policy::kSingle});
  const NodeId client = instance.GetTree().Clients()[0];
  constexpr std::int64_t kMaxDelta = std::numeric_limits<std::int64_t>::max();

  ASSERT_FALSE(solver.Apply(std::vector<UpdateEvent>{
      UpdateEvent::DemandDelta(client, kMaxDelta), UpdateEvent::DemandDelta(client, kMaxDelta),
      UpdateEvent::DemandDelta(client, 1)}));  // exactly 2^64 - 1
  EXPECT_EQ(solver.DemandOf(client), std::numeric_limits<Requests>::max());
  EXPECT_EQ(solver.TotalDemand(), std::numeric_limits<Requests>::max());

  // One more unit on any client would wrap the per-client or total demand.
  EXPECT_THROW((void)solver.Apply(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(client, 1)}),
               InvalidArgument);
  EXPECT_THROW((void)solver.Apply(std::vector<UpdateEvent>{
                   UpdateEvent::ClientAdd(instance.GetTree().Clients()[1], 1)}),
               InvalidArgument);

  // And the whole mountain comes back down without UB: -INT64_MAX twice,
  // then the final unit.
  ASSERT_TRUE(solver.Apply(std::vector<UpdateEvent>{
      UpdateEvent::DemandDelta(client, -kMaxDelta), UpdateEvent::DemandDelta(client, -kMaxDelta),
      UpdateEvent::DemandDelta(client, -1)}));
  EXPECT_EQ(solver.TotalDemand(), 0u);
  EXPECT_TRUE(solver.Feasible());
}

TEST(IncrementalSolver, AddRemoveLifecycle) {
  const std::vector<Requests> requests{4, 0, 6};  // client 1 starts dark
  const Instance instance(gen::MakeStar(3, requests), /*capacity=*/10);
  IncrementalSolver solver(instance);
  const Tree& tree = instance.GetTree();
  const NodeId dark = tree.Clients()[1];
  ASSERT_EQ(solver.DemandOf(dark), 0u);

  EXPECT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::ClientAdd(dark, 8)}));
  EXPECT_EQ(solver.DemandOf(dark), 8u);
  EXPECT_EQ(solver.TotalDemand(), 18u);
  ExpectMatchesOracle(solver, "after add");

  EXPECT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::ClientRemove(dark)}));
  EXPECT_EQ(solver.DemandOf(dark), 0u);
  EXPECT_EQ(solver.TotalDemand(), 10u);
  ExpectMatchesOracle(solver, "after remove");

  // Removed clients may come back.
  EXPECT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::ClientAdd(dark, 3)}));
  ExpectMatchesOracle(solver, "after re-add");
}

TEST(IncrementalSolver, RejectsDistanceConstrainedInstances) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 8;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 1), /*capacity=*/20, /*dmax=*/5);
  EXPECT_THROW(IncrementalSolver{instance}, InvalidArgument);
}

TEST(IncrementalSolver, SinglePolicyOverlayMatchesMaterializedSolve) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 30;
  cfg.clients = 90;
  cfg.max_children = 5;
  cfg.min_requests = 0;
  cfg.max_requests = 10;
  const Instance instance(gen::GenerateRandomTree(cfg, 11), /*capacity=*/12);
  IncrementalSolver solver(instance, {Engine::kIncremental, Policy::kSingle});
  TraceConfig trace_config;
  trace_config.ticks = 12;
  trace_config.touches_per_tick = 3;
  trace_config.max_demand = 12;  // keep r_i <= W so Single stays feasible
  const UpdateTrace trace = MakeRandomTrace(instance.GetTree(), trace_config, 77);

  for (std::size_t tick = 0; tick < trace.size(); ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    ASSERT_TRUE(solver.Apply(trace[tick]));
    const Instance materialized = solver.MaterializeInstance();
    auto oracle = single::SolveSingleNod(materialized);
    EXPECT_EQ(HashSolution(solver.Current()), HashSolution(oracle.solution));
    const auto validation = ValidateSolution(materialized, Policy::kSingle, solver.Current());
    EXPECT_TRUE(validation.ok) << validation.Describe();
  }

  // r_i > W flips Single infeasible (a state, not an error), and back.
  const NodeId client = instance.GetTree().Clients()[0];
  const Requests current = solver.DemandOf(client);
  EXPECT_FALSE(solver.Apply(std::vector<UpdateEvent>{
      UpdateEvent::DemandDelta(client, 13 - static_cast<std::int64_t>(current))}));
  EXPECT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(client, -13)}));
}

TEST(IncrementalSolver, StatsCountReusedWork) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 128;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 5), /*capacity=*/20);
  IncrementalSolver solver(instance);
  const std::size_t n = instance.GetTree().Size();
  EXPECT_EQ(solver.Stats().resolves, 1u);
  EXPECT_EQ(solver.Stats().nodes_recomputed, n);  // initial solve touches all

  const NodeId client = instance.GetTree().Clients()[3];
  ASSERT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(client, 1)}));
  EXPECT_EQ(solver.Stats().resolves, 2u);
  const std::uint64_t chain = solver.Stats().nodes_recomputed - n;
  // One touched leaf re-processes exactly its root path.
  EXPECT_EQ(chain, instance.GetTree().Depth(client) + 1u);
  EXPECT_EQ(solver.Stats().nodes_reused, n - chain);

  // An empty batch re-solves nothing and changes nothing.
  const std::uint64_t recomputed_before = solver.Stats().nodes_recomputed;
  ASSERT_TRUE(solver.Apply(std::vector<UpdateEvent>{}));
  EXPECT_EQ(solver.Stats().nodes_recomputed, recomputed_before);

  // A delta of zero is legal but touches nothing.
  ASSERT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(client, 0)}));
  EXPECT_EQ(solver.Stats().nodes_recomputed, recomputed_before);
}

TEST(TraceGenerator, DeterministicAndLegal) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 32;
  const Tree tree = gen::GenerateFullBinaryTree(cfg, 2);
  TraceConfig config;
  config.ticks = 30;
  config.touches_per_tick = 3;
  config.add_remove_fraction = 0.5;
  const UpdateTrace a = MakeRandomTrace(tree, config, 42);
  const UpdateTrace b = MakeRandomTrace(tree, config, 42);
  ASSERT_EQ(a.size(), 30u);
  EXPECT_EQ(a, b);
  const UpdateTrace c = MakeRandomTrace(tree, config, 43);
  EXPECT_NE(a, c);

  // Legality: the whole trace applies without throwing.
  const Instance instance(tree, /*capacity=*/40);
  IncrementalSolver solver(instance);
  for (const auto& batch : a) {
    ASSERT_EQ(batch.size(), 3u);
    (void)solver.Apply(batch);
  }
}

TEST(TraceGenerator, CapacityWobbleAndValidation) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 8;
  const Tree tree = gen::GenerateFullBinaryTree(cfg, 2);
  TraceConfig config;
  config.ticks = 9;
  config.capacity_period = 3;
  config.capacity_min = 10;
  config.capacity_max = 20;
  const UpdateTrace trace = MakeRandomTrace(tree, config, 1);
  std::size_t capacity_events = 0;
  for (const auto& batch : trace) {
    for (const UpdateEvent& event : batch) {
      if (event.kind == UpdateEvent::Kind::kCapacity) {
        ++capacity_events;
        EXPECT_GE(event.value, 10u);
        EXPECT_LE(event.value, 20u);
      }
    }
  }
  EXPECT_EQ(capacity_events, 3u);

  EXPECT_THROW((void)MakeRandomTrace(tree, TraceConfig{.touches_per_tick = 0}, 1),
               InvalidArgument);
  EXPECT_THROW((void)MakeRandomTrace(tree, TraceConfig{.add_remove_fraction = 1.5}, 1),
               InvalidArgument);
  EXPECT_THROW(
      (void)MakeRandomTrace(tree, TraceConfig{.capacity_period = 2, .capacity_min = 0}, 1),
      InvalidArgument);
}

TEST(TraceGenerator, TopologyChurnDeterministicAndLegal) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 25;
  cfg.clients = 75;
  cfg.max_children = 4;
  cfg.min_requests = 0;
  cfg.max_requests = 9;
  const Tree tree = gen::GenerateRandomTree(cfg, 6);
  TraceConfig config;
  config.ticks = 40;
  config.touches_per_tick = 4;
  config.join_rate = 0.2;
  config.leave_rate = 0.15;
  config.failure_rate = 0.15;
  config.link_rate = 0.1;
  const UpdateTrace a = MakeRandomTrace(tree, config, 9);
  const UpdateTrace b = MakeRandomTrace(tree, config, 9);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, MakeRandomTrace(tree, config, 10));

  // Every enabled churn kind shows up on a tree this roomy...
  std::size_t attaches = 0, detaches = 0, migrates = 0, links = 0;
  for (const auto& batch : a) {
    for (const UpdateEvent& event : batch) {
      attaches += event.kind == UpdateEvent::Kind::kAttachSubtree;
      detaches += event.kind == UpdateEvent::Kind::kDetachSubtree;
      migrates += event.kind == UpdateEvent::Kind::kMigrateSubtree;
      links += event.kind == UpdateEvent::Kind::kLinkCapacity;
    }
  }
  EXPECT_GT(attaches, 0u);
  EXPECT_GT(detaches, 0u);
  EXPECT_GT(migrates, 0u);
  EXPECT_GT(links, 0u);

  // ...and the whole trace is legal: it applies without throwing.
  const Instance instance(tree, /*capacity=*/25);
  IncrementalSolver solver(instance);
  for (const auto& batch : a) ASSERT_NO_THROW((void)solver.Apply(batch));
}

TEST(TraceGenerator, ChurnNeverOrphansTheRoot) {
  // On a chain every internal node (the root included) has exactly one
  // child, so no leave or failure is ever legal — the generator must fall
  // back to demand events instead of emitting something the overlay (and
  // the solver) would reject.
  const Tree tree = gen::MakeChain(/*depth=*/5, /*requests=*/7);
  TraceConfig config;
  config.ticks = 30;
  config.touches_per_tick = 2;
  config.leave_rate = 0.5;
  config.failure_rate = 0.5;
  const UpdateTrace trace = MakeRandomTrace(tree, config, 4);
  EXPECT_EQ(CountTopologyEvents(trace), 0u);
  const Instance instance(tree, /*capacity=*/10);
  IncrementalSolver solver(instance);
  for (const auto& batch : trace) ASSERT_NO_THROW((void)solver.Apply(batch));
}

TEST(TraceGenerator, ChurnConfigValidation) {
  const Tree tree = gen::MakeChain(/*depth=*/2, /*requests=*/3);
  EXPECT_THROW((void)MakeRandomTrace(tree, TraceConfig{.join_rate = 1.5}, 1), InvalidArgument);
  EXPECT_THROW((void)MakeRandomTrace(tree, TraceConfig{.leave_rate = -0.1}, 1),
               InvalidArgument);
  EXPECT_THROW((void)MakeRandomTrace(tree, TraceConfig{.join_rate = 0.6, .leave_rate = 0.6}, 1),
               InvalidArgument);
  EXPECT_THROW((void)MakeRandomTrace(tree, TraceConfig{.max_attach_nodes = 0}, 1),
               InvalidArgument);
  EXPECT_THROW((void)MakeRandomTrace(tree, TraceConfig{.max_move_size = 0}, 1),
               InvalidArgument);
  EXPECT_THROW((void)MakeRandomTrace(tree, TraceConfig{.max_link_delta = 0}, 1),
               InvalidArgument);
}

TEST(IncrementalSolver, TopologyBatchesAreAtomicAndRejectRootOrphans) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 16;
  cfg.min_requests = 1;
  cfg.max_requests = 8;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 12), /*capacity=*/20);
  IncrementalSolver solver(instance);

  // Warm up with one real topology change so the overlay exists.
  const Tree& tree = instance.GetTree();
  NodeId internal = kInvalidNode;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (!tree.IsClient(id)) internal = id;  // deepest internal node
  }
  ASSERT_NE(internal, kInvalidNode);
  ASSERT_NO_THROW((void)solver.Apply(std::vector<UpdateEvent>{
      UpdateEvent::AttachSubtree(internal, SubtreeSpec::SingleClient(2, 5))}));

  const SolverStateImage before = CaptureState(solver);

  // Detaching the root's only... the root of a binary tree has two children,
  // so target a node whose removal WOULD orphan its parent: any internal
  // node's single remaining child after its sibling is detached in the same
  // batch. The second event must fail validation and roll back the first.
  const auto children_of_root = [&] {
    std::vector<NodeId> out;
    for (NodeId id = 1; id < tree.Size(); ++id) {
      if (tree.Parent(id) == tree.Root()) out.push_back(id);
    }
    return out;
  }();
  ASSERT_EQ(children_of_root.size(), 2u);
  EXPECT_THROW((void)solver.Apply(std::vector<UpdateEvent>{
                   UpdateEvent::DetachSubtree(children_of_root[0]),
                   UpdateEvent::DetachSubtree(children_of_root[1]),  // would orphan the root
               }),
               InvalidArgument);
  ExpectStateEquals(before, solver);

  // A migrate that would cycle (new parent inside the moved subtree) is
  // rejected just as atomically.
  EXPECT_THROW((void)solver.Apply(std::vector<UpdateEvent>{
                   UpdateEvent::MigrateSubtree(children_of_root[0], internal, 1),
                   UpdateEvent::MigrateSubtree(children_of_root[1], children_of_root[1], 1),
               }),
               InvalidArgument);
  ExpectStateEquals(before, solver);
}

TEST(TreeWithRequests, SwapsDemandAndReaggregates) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 20;
  cfg.clients = 60;
  const Tree tree = gen::GenerateRandomTree(cfg, 4);
  std::vector<Requests> demands(tree.Size(), 0);
  Requests total = 0;
  for (const NodeId client : tree.Clients()) {
    demands[client] = (client * 7) % 11;
    total += demands[client];
  }
  const Tree swapped = tree.WithRequests(demands);

  ASSERT_EQ(swapped.Size(), tree.Size());
  EXPECT_EQ(swapped.TotalRequests(), total);
  for (NodeId id = 0; id < tree.Size(); ++id) {
    EXPECT_EQ(swapped.RequestsOf(id), demands[id]);
    EXPECT_EQ(swapped.Parent(id), tree.Parent(id));
    EXPECT_EQ(swapped.Depth(id), tree.Depth(id));
    EXPECT_EQ(swapped.DistToParent(id), tree.DistToParent(id));
  }
  // Subtree totals match a rebuild from scratch through TreeBuilder.
  TreeBuilder builder;
  builder.Reserve(tree.Size());
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (id == tree.Root()) {
      (void)builder.AddRoot();
    } else if (tree.IsClient(id)) {
      (void)builder.AddClient(tree.Parent(id), tree.DistToParent(id), demands[id]);
    } else {
      (void)builder.AddInternal(tree.Parent(id), tree.DistToParent(id));
    }
  }
  const Tree rebuilt = builder.Build();
  for (NodeId id = 0; id < tree.Size(); ++id) {
    EXPECT_EQ(swapped.SubtreeRequests(id), rebuilt.SubtreeRequests(id));
  }

  EXPECT_THROW((void)tree.WithRequests(std::vector<Requests>(3)), InvalidArgument);
  std::vector<Requests> bad(tree.Size(), 0);
  bad[tree.Root()] = 1;  // internal nodes issue no requests
  EXPECT_THROW((void)tree.WithRequests(bad), InvalidArgument);
}

}  // namespace
}  // namespace rpt::incremental
