// Tests for the sharded forest solve (src/shard/): planner invariants,
// subtree slicing, the rpt-btab v1 wire format, and — the load-bearing
// suite — the ORACLE MATRIX: sharded solves across topology shapes × shard
// counts must be byte-identical (cost AND canonical solution hash) to the
// single-process SolveMultipleNodDp. The btab
// corruption corpus follows test_event_wal.cpp's rule: a damaged artifact
// must load loudly-failing, never silently wrong — and since a btab is a
// complete artifact (not a log), even a torn tail is a loud failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/random_tree.hpp"
#include "gen/shapes.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "shard/boundary_table.hpp"
#include "shard/coordinator.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"
#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/wire.hpp"

namespace rpt::shard {
namespace {

/// FNV-1a over the canonical solution (same fingerprint as the incremental
/// oracle tests): equal hashes <=> byte-identical canonical solutions.
std::uint64_t HashSolution(const Solution& solution) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(solution.replicas.size());
  for (const NodeId id : solution.replicas) mix(id);
  mix(solution.assignment.size());
  for (const ServiceEntry& entry : solution.assignment) {
    mix(entry.client);
    mix(entry.server);
    mix(entry.amount);
  }
  return hash;
}

Tree RandomTree(std::uint64_t seed, std::uint32_t internal, std::uint32_t clients) {
  gen::RandomTreeConfig config;
  config.internal_nodes = internal;
  config.clients = clients;
  config.max_children = 5;
  config.max_requests = 13;
  config.request_skew = 1.5;
  return gen::GenerateRandomTree(config, seed);
}

std::vector<Requests> PatternRequests(std::size_t count) {
  std::vector<Requests> requests(count);
  for (std::size_t i = 0; i < count; ++i) requests[i] = (i * 5) % 13 + 1;
  return requests;
}

/// The equivalence assertion every oracle test routes through.
void ExpectOracleEqual(const Instance& instance, std::uint32_t shards) {
  const auto oracle = multiple::SolveMultipleNodDp(instance);
  ShardOptions options;
  options.shards = shards;
  const ShardedSolveResult sharded = SolveSharded(instance, options);
  ASSERT_EQ(oracle.feasible, sharded.feasible) << "k=" << shards;
  EXPECT_EQ(oracle.solution.ReplicaCount(), sharded.solution.ReplicaCount()) << "k=" << shards;
  EXPECT_EQ(HashSolution(oracle.solution), HashSolution(sharded.solution)) << "k=" << shards;
  EXPECT_TRUE(sharded.failures.empty());
}

// ---------------------------------------------------------------------------
// Planner.
// ---------------------------------------------------------------------------

TEST(ShardPlan, StarHasNothingToCut) {
  const std::vector<Requests> requests{3, 7, 11};
  const Tree star = gen::MakeStar(32, requests);
  const ShardPlan plan = PlanShards(star, PlanOptions{});
  EXPECT_EQ(plan.shard_count, 0u);
  EXPECT_TRUE(plan.cuts.empty());
}

TEST(ShardPlan, CutsAreDisjointInternalNonRootAndDeterministic) {
  const Tree tree = RandomTree(7, 80, 240);
  PlanOptions options;
  options.shards = 4;
  const ShardPlan plan = PlanShards(tree, options);
  ASSERT_EQ(plan.shard_count, 4u);
  ASSERT_FALSE(plan.cuts.empty());
  for (const Cut& cut : plan.cuts) {
    EXPECT_NE(cut.node, tree.Root());
    EXPECT_FALSE(tree.IsClient(cut.node));
    EXPECT_LT(cut.shard, plan.shard_count);
  }
  for (std::size_t a = 0; a < plan.cuts.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.cuts.size(); ++b) {
      EXPECT_FALSE(tree.IsAncestorOrSelf(plan.cuts[a].node, plan.cuts[b].node));
      EXPECT_FALSE(tree.IsAncestorOrSelf(plan.cuts[b].node, plan.cuts[a].node));
    }
  }
  // shard_cuts is exactly the cuts list bucketed by shard, ascending.
  std::size_t bucketed = 0;
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    bucketed += plan.shard_cuts[s].size();
    for (std::size_t i = 1; i < plan.shard_cuts[s].size(); ++i) {
      EXPECT_LT(plan.shard_cuts[s][i - 1], plan.shard_cuts[s][i]);
    }
  }
  EXPECT_EQ(bucketed, plan.cuts.size());

  const ShardPlan again = PlanShards(tree, options);
  ASSERT_EQ(again.cuts.size(), plan.cuts.size());
  for (std::size_t i = 0; i < plan.cuts.size(); ++i) {
    EXPECT_EQ(again.cuts[i].node, plan.cuts[i].node);
    EXPECT_EQ(again.cuts[i].shard, plan.cuts[i].shard);
    EXPECT_EQ(again.cuts[i].weight, plan.cuts[i].weight);
  }
}

// ---------------------------------------------------------------------------
// Subtree slicing.
// ---------------------------------------------------------------------------

TEST(SubtreeSliceTest, PreservesStructureDemandsAndOrder) {
  const Tree tree = RandomTree(11, 40, 120);
  for (const NodeId child : tree.Children(tree.Root())) {
    if (tree.IsClient(child)) continue;
    const SubtreeSlice slice = tree.SliceSubtree(child);
    ASSERT_EQ(slice.tree.Size(), tree.SubtreeSize(child));
    ASSERT_EQ(slice.to_global.size(), slice.tree.Size());
    EXPECT_EQ(slice.to_global[0], child);
    EXPECT_EQ(slice.tree.TotalRequests(), tree.SubtreeRequests(child));
    for (std::size_t local = 1; local < slice.to_global.size(); ++local) {
      // Monotone remap: ascending global ids, parent links preserved.
      EXPECT_LT(slice.to_global[local - 1], slice.to_global[local]);
      const NodeId global = slice.to_global[local];
      EXPECT_EQ(slice.to_global[slice.tree.Parent(static_cast<NodeId>(local))],
                tree.Parent(global));
      EXPECT_EQ(slice.tree.IsClient(static_cast<NodeId>(local)), tree.IsClient(global));
      EXPECT_EQ(slice.tree.RequestsOf(static_cast<NodeId>(local)), tree.RequestsOf(global));
      EXPECT_EQ(slice.tree.DistToParent(static_cast<NodeId>(local)), tree.DistToParent(global));
    }
  }
  EXPECT_THROW((void)tree.SliceSubtree(tree.Clients()[0]), InvalidArgument);
}

// ---------------------------------------------------------------------------
// rpt-btab v1 codec.
// ---------------------------------------------------------------------------

BtabFile SampleBtab() {
  BtabFile file;
  BoundaryTable plain;
  plain.cut = 17;
  plain.demand = 6;
  plain.subtree_nodes = 9;
  plain.table_entries = 41;
  plain.convolve_cells = 120;
  plain.vmin = 0;  // F = {3, 3, 2, 2, 1, 1, 0}
  plain.inv = {6, 4, 2, 0};
  file.tables.push_back(plain);

  BoundaryTable leading_inf;  // locally infeasible at small u: leading +inf
  leading_inf.cut = 23;
  leading_inf.demand = 6;
  leading_inf.subtree_nodes = 4;
  leading_inf.table_entries = 7;
  leading_inf.convolve_cells = 9;
  leading_inf.vmin = 0;  // F = {inf, inf, 2, 1, 1, 0, 0}
  leading_inf.inv = {5, 3, 2};
  file.tables.push_back(leading_inf);

  SolutionFragment fragment;
  fragment.cut = 17;
  fragment.budget = 3;
  fragment.solution.replicas = {0, 2};
  fragment.solution.assignment = {{3, 0, 5}, {4, 2, 7}};
  fragment.forwarded = {{1, 4}, {5, 2}};
  file.fragments.push_back(fragment);
  return file;
}

/// The reader's expectation for SampleBtab: both tables cut demand 6.
Requests SampleDemand(NodeId cut) {
  RPT_REQUIRE(cut == 17 || cut == 23, "test: unknown cut");
  return 6;
}

TEST(BoundaryTableCodec, RoundTripsTablesAndFragments) {
  const BtabFile file = SampleBtab();
  const BtabFile back = DecodeBtab(EncodeBtab(file), SampleDemand);
  ASSERT_EQ(back.tables.size(), file.tables.size());
  for (std::size_t i = 0; i < file.tables.size(); ++i) {
    EXPECT_EQ(back.tables[i].cut, file.tables[i].cut);
    EXPECT_EQ(back.tables[i].demand, file.tables[i].demand);
    EXPECT_EQ(back.tables[i].subtree_nodes, file.tables[i].subtree_nodes);
    EXPECT_EQ(back.tables[i].table_entries, file.tables[i].table_entries);
    EXPECT_EQ(back.tables[i].convolve_cells, file.tables[i].convolve_cells);
    EXPECT_EQ(back.tables[i].vmin, file.tables[i].vmin);
    EXPECT_EQ(back.tables[i].inv, file.tables[i].inv);
  }
  ASSERT_EQ(back.fragments.size(), file.fragments.size());
  EXPECT_EQ(back.fragments[0].cut, file.fragments[0].cut);
  EXPECT_EQ(back.fragments[0].budget, file.fragments[0].budget);
  EXPECT_EQ(back.fragments[0].solution.replicas, file.fragments[0].solution.replicas);
  EXPECT_EQ(back.fragments[0].solution.assignment, file.fragments[0].solution.assignment);
  EXPECT_EQ(back.fragments[0].forwarded, file.fragments[0].forwarded);
}

TEST(BoundaryTableCodec, TruncationAtEveryByteFailsLoudly) {
  const std::string bytes = EncodeBtab(SampleBtab());
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)DecodeBtab(std::string_view(bytes).substr(0, len), SampleDemand),
                 InvalidArgument)
        << "prefix length " << len;
  }
}

TEST(BoundaryTableCodec, EveryBitFlipFailsLoudly) {
  const std::string bytes = EncodeBtab(SampleBtab());
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = bytes;
      damaged[pos] = static_cast<char>(damaged[pos] ^ (1 << bit));
      EXPECT_THROW((void)DecodeBtab(damaged, SampleDemand), InvalidArgument)
          << "byte " << pos << " bit " << bit;
    }
  }
}

// The lying-length corpus: each fragment count inflated under a resealed
// CRC. DecodeBtab must refuse with InvalidArgument, never try to reserve
// the claimed elements.
TEST(BoundaryTableCodec, LyingFragmentCountsUnderValidCrcThrowInvalidArgument) {
  BtabFile file;
  file.fragments = SampleBtab().fragments;
  const std::string bytes = EncodeBtab(file);
  // magic 8 | header frame 8 + 16 | record frame header 8 | payload
  constexpr std::size_t kPayload = 8 + 24 + 8;
  const std::size_t replicas_at = kPayload + 1 + 4 + 8;
  const std::size_t entries_at = replicas_at + 4 + 2 * 4;
  const std::size_t forwarded_at = entries_at + 4 + 2 * 16;
  const auto lying = [&](std::size_t at, std::uint32_t value) {
    std::string out = bytes;
    for (int i = 0; i < 4; ++i) out[at + i] = static_cast<char>(value >> (8 * i));
    const std::uint32_t crc = support::Crc32(out.data() + kPayload, out.size() - kPayload);
    for (int i = 0; i < 4; ++i) out[kPayload - 4 + i] = static_cast<char>(crc >> (8 * i));
    return out;
  };
  for (const std::size_t at : {replicas_at, entries_at, forwarded_at}) {
    for (const std::uint32_t lie : {3u, 0x00FFFFFFu, 0xFFFFFFFFu}) {
      EXPECT_THROW((void)DecodeBtab(lying(at, lie), SampleDemand), InvalidArgument)
          << "count at byte " << at << " = " << lie;
    }
  }
}

/// A one-table btab built field by field, with valid frames and CRCs.
std::string RawTableBtab(NodeId cut, std::uint64_t demand, std::uint32_t vmin,
                         std::uint32_t vmax, const std::vector<std::uint32_t>& inv) {
  std::string payload;
  support::wire::ByteWriter record(payload);
  record.U8(1).U32(cut).U64(demand).U32(4).U64(7).U64(9).U32(vmin).U32(vmax);
  for (const std::uint32_t v : inv) record.U32(v);
  std::string body;
  support::wire::AppendFrame(body, payload);
  std::string header;
  support::wire::ByteWriter(header).U32(1).U32(1).U64(body.size());
  std::string out(kBtabMagic, sizeof(kBtabMagic));
  support::wire::AppendFrame(out, header);
  return out + body;
}

// The leading_inf sample table, {inf, inf, 2, 1, 1, 0, 0}, as raw fields.
TEST(BoundaryTableCodec, RawTableMatchesTheEncoder) {
  const std::string raw = RawTableBtab(23, 6, 0, 2, {5, 3, 2});
  BtabFile file;
  file.tables.push_back(SampleBtab().tables[1]);
  EXPECT_EQ(raw, EncodeBtab(file));
  EXPECT_EQ(DecodeBtab(raw, SampleDemand).tables[0].inv, file.tables[0].inv);
}

// A table whose demand is not the reader's expectation for its cut is
// refused before its entries are read — a 2^30 lie under a valid CRC costs
// no allocation — and so is a cut the reader does not know.
TEST(BoundaryTableCodec, DemandOtherThanTheCutsIsRefusedBeforeAllocation) {
  for (const std::uint64_t lie : {std::uint64_t{5}, std::uint64_t{7}, std::uint64_t{1} << 30,
                                  kMaxBtabDemand, ~std::uint64_t{0}}) {
    EXPECT_THROW((void)DecodeBtab(RawTableBtab(23, lie, 0, 2, {5, 3, 2}), SampleDemand),
                 InvalidArgument)
        << "demand " << lie;
  }
  EXPECT_THROW((void)DecodeBtab(RawTableBtab(99, 6, 0, 2, {5, 3, 2}), SampleDemand),
               InvalidArgument);
}

// The inverse form has one encoding per staircase: a top cost that no entry
// takes (inv repeats at the top) is refused, not decoded to a table that
// re-encodes differently.
TEST(BoundaryTableCodec, StaircaseTopThatNoEntryTakesIsRefused) {
  EXPECT_THROW((void)DecodeBtab(RawTableBtab(23, 6, 0, 3, {5, 3, 2, 2}), SampleDemand),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Importing a boundary table at a spine leaf.
// ---------------------------------------------------------------------------

// The engine merges an imported table's slopes linearly, which is exact only
// for a cut root's F table; every other shape is refused, never imported.
TEST(ImportLeafTable, RefusesAnythingButAConvexFTableOfTheLeafDemand) {
  TreeBuilder builder;
  const NodeId root = builder.AddRoot();
  const NodeId leaf = builder.AddClient(root, 1, 6);
  builder.AddClient(root, 1, 3);
  const Tree spine = builder.Build();
  multiple::NodDpEngine engine(spine, 4);
  using Inv = multiple::NodDpEngine::InvTable;
  EXPECT_THROW(engine.ImportLeafTable(leaf, 1, Inv{6, 4, 2, 0}), InvalidArgument);  // vmin != 0
  EXPECT_THROW(engine.ImportLeafTable(leaf, 0, Inv{}), InvalidArgument);            // no entry
  EXPECT_THROW(engine.ImportLeafTable(leaf, 0, Inv{5, 3, 2}), InvalidArgument);     // inv[0] != 6
  EXPECT_THROW(engine.ImportLeafTable(leaf, 0, Inv{7, 4, 2}), InvalidArgument);     // inv[0] != 6
  EXPECT_THROW(engine.ImportLeafTable(leaf, 0, Inv{6, 4, 4}), InvalidArgument);     // flat step
  EXPECT_THROW(engine.ImportLeafTable(leaf, 0, Inv{6, 3, 5}), InvalidArgument);     // rises
  EXPECT_THROW(engine.ImportLeafTable(leaf, 0, Inv{6, 5, 2, 0}), InvalidArgument);  // slopes 1, 3
  EXPECT_THROW(engine.ImportLeafTable(root, 0, Inv{9, 5, 1, 0}), InvalidArgument);  // not a leaf

  // The leaf's own F table, {6, 2} (one replica serves W = 4), solves like
  // the plain leaf; a convex two-replica table behind the leaf absorbs all
  // 6, leaving the root one replica for the other client's 3.
  const Instance plain(gen::MakeStar(2, std::vector<Requests>{6, 3}), 4, kNoDistanceLimit);
  engine.ImportLeafTable(leaf, 0, Inv{6, 2});
  engine.ComputeAll();
  ASSERT_TRUE(engine.Feasible());
  EXPECT_EQ(multiple::NodDpEngine::CostAt(engine.TableOf(root), 0),
            multiple::SolveMultipleNodDp(plain).solution.ReplicaCount());
  engine.ImportLeafTable(leaf, 0, Inv{6, 3, 0});
  engine.ComputeAll();
  EXPECT_EQ(multiple::NodDpEngine::CostAt(engine.TableOf(root), 0), 3u);
}

// ---------------------------------------------------------------------------
// Oracle equivalence matrix.
// ---------------------------------------------------------------------------

TEST(ShardOracle, MatrixMatchesUnshardedByteForByte) {
  struct Case {
    const char* name;
    Tree tree;
    Requests capacity;
  };
  std::vector<Case> cases;
  cases.push_back({"chain", gen::MakeChain(24, 100), 9});
  cases.push_back({"star", gen::MakeStar(48, PatternRequests(48)), 10});
  cases.push_back({"caterpillar", gen::MakeCaterpillar(PatternRequests(40)), 12});
  cases.push_back({"comb", gen::MakeComb(PatternRequests(24), 3), 8});
  cases.push_back({"random-a", RandomTree(1, 60, 180), 25});
  cases.push_back({"random-b", RandomTree(2, 60, 180), 17});

  for (const Case& test_case : cases) {
    const Instance instance(test_case.tree, test_case.capacity);
    for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(std::string(test_case.name) + " k=" + std::to_string(shards));
      ExpectOracleEqual(instance, shards);
    }
  }
}

TEST(ShardOracle, StarFallsBackToTheLocalSolve) {
  const Instance instance(gen::MakeStar(48, PatternRequests(48)), 10);
  ShardOptions options;
  options.shards = 4;
  const ShardedSolveResult sharded = SolveSharded(instance, options);
  EXPECT_EQ(sharded.stats.shard_count, 0u);
  const auto oracle = multiple::SolveMultipleNodDp(instance);
  EXPECT_EQ(oracle.feasible, sharded.feasible);
  EXPECT_EQ(HashSolution(oracle.solution), HashSolution(sharded.solution));
}

TEST(ShardOracle, InfeasibleInstanceStaysInfeasible) {
  // A depth-4 chain can host at most 5 replicas: demand 1000 >> 5 * W.
  const Instance instance(gen::MakeChain(4, 1000), 10);
  const auto oracle = multiple::SolveMultipleNodDp(instance);
  ASSERT_FALSE(oracle.feasible);
  for (const std::uint32_t shards : {2u, 3u}) {
    ShardOptions options;
    options.shards = shards;
    const ShardedSolveResult sharded = SolveSharded(instance, options);
    EXPECT_FALSE(sharded.feasible);
    EXPECT_TRUE(sharded.solution.replicas.empty());
  }
}

TEST(ShardOracle, BudgetBoundariesAtCapacityMultiples) {
  // Demands pinned to exact multiples of W: every budget split and forwarded
  // total lands on a staircase knee, the off-by-one hot spots of the merge.
  const Requests capacity = 12;
  std::vector<Requests> exact(30);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    exact[i] = (i % 2 == 0) ? capacity : 2 * capacity;
  }
  const Instance caterpillar(gen::MakeCaterpillar(exact), capacity);
  const Instance comb(gen::MakeComb(exact, 2), capacity);
  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    ExpectOracleEqual(caterpillar, shards);
    ExpectOracleEqual(comb, shards);
  }
}

// ---------------------------------------------------------------------------
// Fault injection at the dispatch boundary.
// ---------------------------------------------------------------------------

TEST(ShardFaults, CrashedWorkerIsRedispatchedToTheIdenticalAnswer) {
  const Instance instance(RandomTree(3, 60, 180), 20);
  const auto oracle = multiple::SolveMultipleNodDp(instance);

  // The second per-cut solve dies (one-shot), so one shard's first attempt
  // fails mid-phase and its re-dispatch must recompute the whole shard.
  const fail::ScopedArm arm(kWorkerCrashPoint, fail::Action::kThrow, 2);
  ShardOptions options;
  options.shards = 3;
  options.max_attempts = 2;
  const ShardedSolveResult sharded = SolveSharded(instance, options);

  ASSERT_EQ(sharded.failures.size(), 1u);
  EXPECT_EQ(sharded.failures[0].phase, "solve");
  EXPECT_EQ(sharded.failures[0].attempt, 1u);
  ASSERT_EQ(oracle.feasible, sharded.feasible);
  EXPECT_EQ(oracle.solution.ReplicaCount(), sharded.solution.ReplicaCount());
  EXPECT_EQ(HashSolution(oracle.solution), HashSolution(sharded.solution));
}

TEST(ShardFaults, ExhaustedAttemptsThrowNamingTheShard) {
  const Instance instance(RandomTree(3, 60, 180), 20);
  const fail::ScopedArm arm(kWorkerCrashPoint, fail::Action::kThrow, 1);
  ShardOptions options;
  options.shards = 3;
  options.max_attempts = 1;
  try {
    (void)SolveSharded(instance, options);
    FAIL() << "a dead shard with max_attempts=1 must throw";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("solve"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace rpt::shard
