// bench_hotpath — per-kernel wall-time tracking for the hot solver paths.
//
// This is the perf trajectory anchor: it times each solver kernel (plus the
// tree-build substrate and the Dinic routing oracle) on large generated
// instances of the bench_scaling class and writes the aggregate report —
// *including* timing statistics — to the path given via --json (CI uploads
// it as the BENCH_hotpath.json artifact via scripts/bench_perf.sh). Unlike
// the other batch binaries, the JSON here deliberately contains wall-clock
// numbers, so it is NOT byte-identical across runs; the deterministic part
// (costs, feasibility, metric columns) still is — write it separately with
// --det-json to diff two runs or two commits.
//
// Cells run one at a time on a single batch worker, so each cell's wall
// time is one serial solve with the machine to itself. An untimed
// one-seed warm-up grid runs first, so the first timed cells are not
// charged for cold allocator and page state.
//
// Kernels (the N=1048576 "million-node" tier is the same workload at
// --big-clients):
//   tree-build         TreeBuilder::Build on a rebuilt copy of the instance
//                      tree (--build-reps builds per cell; timing/metric
//                      only, so no feasibility/cost columns)
//   single-gen         Algorithm 1 on a full binary tree, NoD
//   single-nod         Algorithm 2 on a full binary tree
//   single-push        push-toward-root improvement loop
//   multiple-bin       Algorithm 3 on a full binary tree
//   multiple-nod-dp    exact Multiple-NoD tree knapsack DP at --dp-clients
//                      and at --clients (the dp_table_mib metric is the
//                      footprint of the tables the DP engine stored)
//   flow-oracle        Dinic feasibility routing with a replica at every
//                      internal node
//   multiple-feasible  the tree router (flow::MultipleFeasible) on the same
//                      placement, NoD; multiple-feasible-dmax is the same
//                      probe with dmax=12 binding
//   serve-publish      the per-batch publish path of a serve node at
//                      --clients: a fixed seeded trace of 8-touch batches
//                      through IncrementalSolver::Apply, PlacementSnapshot::
//                      Build on the previous snapshot, and CanonicalHash
//                      (initial solve and snapshot untimed)
#include <atomic>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "flow/assignment.hpp"
#include "flow/tree_router.hpp"
#include "gen/random_tree.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "runner/batch_runner.hpp"
#include "serve/placement_snapshot.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace rpt;

// Same instance class as bench_scaling's BinaryWorkload: requests 1..10,
// W=40, so every solver precondition (r_i <= W) holds.
std::function<Instance(std::uint64_t)> BinaryWorkload(std::uint32_t clients,
                                                      Distance dmax = kNoDistanceLimit) {
  return [clients, dmax](std::uint64_t seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = clients;
    cfg.min_requests = 1;
    cfg.max_requests = 10;
    cfg.min_edge = 1;
    cfg.max_edge = 2;
    return Instance(gen::GenerateFullBinaryTree(cfg, seed), /*capacity=*/40, dmax);
  };
}

// Rebuilds the instance's tree through a fresh TreeBuilder `reps` times —
// a pure measurement of the arena construction + derived-data pass.
core::RunResult SolveTreeBuild(const Instance& instance, std::uint64_t reps) {
  const Tree& tree = instance.GetTree();
  core::RunResult result;
  std::size_t checksum = 0;
  Timer timer;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    TreeBuilder builder;
    builder.Reserve(tree.Size());
    for (NodeId id = 0; id < tree.Size(); ++id) {
      if (id == tree.Root()) {
        builder.AddRoot();
      } else if (tree.IsClient(id)) {
        builder.AddClient(tree.Parent(id), tree.DistToParent(id), tree.RequestsOf(id));
      } else {
        builder.AddInternal(tree.Parent(id), tree.DistToParent(id));
      }
    }
    const Tree rebuilt = builder.Build();
    checksum += rebuilt.SubtreeRequests(rebuilt.Root());
  }
  result.elapsed_ms = timer.ElapsedMs();
  RPT_CHECK(checksum == reps * static_cast<std::size_t>(tree.TotalRequests()));
  result.feasible = false;  // timing-only kernel; the group is metric_only
  return result;
}

// The placement consisting of every internal node (as in bench_scaling).
std::vector<NodeId> InternalNodes(const Tree& tree) {
  std::vector<NodeId> replicas;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (!tree.IsClient(id)) replicas.push_back(id);
  }
  return replicas;
}

// Dinic routing of the every-internal-node placement.
core::RunResult SolveFlowOracle(const Instance& instance) {
  core::RunResult result;
  Timer timer;
  std::vector<NodeId> replicas = InternalNodes(instance.GetTree());
  auto routing = flow::RouteMultiple(instance, replicas);
  result.elapsed_ms = timer.ElapsedMs();
  result.feasible = routing.has_value();
  if (routing) {
    result.solution.replicas = std::move(replicas);
    result.solution.assignment = std::move(*routing);
    result.validation = ValidateSolution(instance, Policy::kMultiple, result.solution);
  }
  return result;
}

// The tree router's verdict on the every-internal-node placement. It
// builds no assignment to validate, so the group is timing only.
core::RunResult SolveMultipleFeasible(const Instance& instance) {
  core::RunResult result;
  Timer timer;
  const std::vector<NodeId> replicas = InternalNodes(instance.GetTree());
  const bool feasible = flow::MultipleFeasible(instance, replicas);
  result.elapsed_ms = timer.ElapsedMs();
  RPT_CHECK(feasible);  // W=40 >= the two children's 20 requests at every parent
  return result;
}

std::atomic<std::uint64_t> g_publish_hash_sink{0};  // keeps the hashes observable

// The publish path of one serve node, batch by batch: re-solve, snapshot
// built on the previous one, hash (what a replication link ships).
core::RunResult SolvePublishTrace(const Instance& instance) {
  constexpr std::uint64_t kBatches = 32;
  incremental::TraceConfig config;
  config.ticks = kBatches;
  config.touches_per_tick = 8;
  config.max_demand = 10;
  config.add_remove_fraction = 0.2;
  const incremental::UpdateTrace trace =
      incremental::MakeRandomTrace(instance.GetTree(), config, /*seed=*/31);
  incremental::IncrementalSolver solver(instance);
  auto snapshot = serve::PlacementSnapshot::Build(solver.View(), solver.Capacity(),
                                                  solver.Demands(), solver.Current(), 1);
  std::uint64_t hashes = 0;
  core::RunResult result;
  Timer timer;
  for (std::uint64_t k = 0; k < kBatches; ++k) {
    (void)solver.Apply(trace[k]);
    snapshot = serve::PlacementSnapshot::Build(solver.View(), solver.Capacity(), solver.Demands(),
                                               solver.Current(), k + 2, snapshot.get());
    hashes ^= snapshot->CanonicalHash();
  }
  result.elapsed_ms = timer.ElapsedMs();
  g_publish_hash_sink.fetch_xor(hashes, std::memory_order_relaxed);
  result.feasible = solver.Feasible();
  result.solution = solver.Current();
  result.validation =
      ValidateSolution(solver.MaterializeInstance(), Policy::kMultiple, result.solution);
  return result;
}

// Footprint of the Multiple-NoD DP's stored tables, in MiB: the inverse
// staircase entries (8-byte forwarded amounts) the engine wrote in its one
// forward pass, from its own work counters. The tables live until the
// backtrack ends, so this is the memory the DP holds at its peak.
double DpTableMiB(const Instance& instance, const core::RunResult&) {
  const auto dp = multiple::SolveMultipleNodDp(instance);
  return static_cast<double>(dp.stats.table_entries * sizeof(Requests)) / (1024.0 * 1024.0);
}

std::string GroupName(const std::string& kernel, std::uint32_t clients) {
  return kernel + "/N=" + std::to_string(clients);
}

struct Kernel {
  std::string name;
  std::uint32_t clients;
  std::function<core::RunResult(const Instance&)> solve;
  std::vector<runner::Metric> metrics;
  bool metric_only = false;
  Distance dmax = kNoDistanceLimit;
};

// One full kernel grid. Cells run on a single batch worker so per-cell
// wall time measures one instance, not cells competing for cores.
runner::BatchReport RunGrid(const std::vector<Kernel>& kernels, std::uint64_t base_seed,
                            std::size_t seeds) {
  runner::BatchRunner batch(runner::BatchOptions{/*threads=*/1});
  for (const Kernel& kernel : kernels) {
    batch.AddSweep(GroupName(kernel.name, kernel.clients),
                   BinaryWorkload(kernel.clients, kernel.dmax),
                   kernel.solve, base_seed, seeds, kernel.metrics, kernel.metric_only);
  }
  return batch.Run();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpt;
  Cli cli("bench_hotpath",
          "per-kernel wall-time baseline for the hot solver paths (perf trajectory)");
  AddSeedsFlag(cli, /*default_seeds=*/3);
  cli.AddInt("clients", 65536, "client count for the near-linear kernels");
  cli.AddInt("big-clients", 1048576,
             "client count for the million-node tier (tree-build/single-nod/multiple-bin; "
             "0 disables the tier)");
  cli.AddInt("dp-clients", 8192, "client count for the multiple-nod-dp kernel");
  cli.AddInt("push-clients", 8192, "client count for the single-push kernel");
  cli.AddInt("flow-clients", 8192, "client count for the flow-oracle kernel");
  cli.AddInt("build-reps", 10, "tree rebuilds per tree-build cell");
  cli.AddInt("big-build-reps", 3, "tree rebuilds per million-node tree-build cell");
  cli.AddInt("base-seed", 1205, "base seed; per-cell seeds derive deterministically");
  cli.AddString("json", "", "write the report incl. timing stats here (BENCH_hotpath.json)");
  cli.AddString("det-json", "",
                "write the deterministic report (no timing) here; byte-identical across "
                "runs");
  cli.AddString("csv", "", "optional CSV output path (incl. timing)");
  if (!cli.Parse(argc, argv)) return 0;
  const std::size_t seeds = GetSeedsFlag(cli);
  const auto clients = static_cast<std::uint32_t>(cli.GetUint("clients", 1u << 26));
  const auto big_clients = static_cast<std::uint32_t>(cli.GetUint("big-clients", 1u << 26));
  const auto dp_clients = static_cast<std::uint32_t>(cli.GetUint("dp-clients", 1u << 18));
  const auto push_clients = static_cast<std::uint32_t>(cli.GetUint("push-clients", 1u << 18));
  const auto flow_clients = static_cast<std::uint32_t>(cli.GetUint("flow-clients", 1u << 18));
  const auto build_reps = cli.GetUint("build-reps", 1u << 20);
  const auto big_build_reps = cli.GetUint("big-build-reps", 1u << 20);
  const auto base_seed = cli.GetUint("base-seed");
  RPT_REQUIRE(clients >= 2 && dp_clients >= 2 && push_clients >= 2 && flow_clients >= 2,
              "bench_hotpath: client counts must be >= 2");
  RPT_REQUIRE(build_reps >= 1 && big_build_reps >= 1,
              "bench_hotpath: --build-reps/--big-build-reps must be >= 1");
  RPT_REQUIRE(big_clients == 0 || big_clients >= 2,
              "bench_hotpath: --big-clients must be 0 or >= 2");

  std::vector<Kernel> kernels;
  kernels.push_back({"tree-build", clients,
                     [build_reps](const Instance& instance) {
                       return SolveTreeBuild(instance, build_reps);
                     },
                     {},
                     /*metric_only=*/true});
  kernels.push_back(
      {"single-gen", clients, runner::SolveWith(core::Algorithm::kSingleGen), {}});
  kernels.push_back(
      {"single-nod", clients, runner::SolveWith(core::Algorithm::kSingleNod), {}});
  kernels.push_back(
      {"single-push", push_clients, runner::SolveWith(core::Algorithm::kSinglePushRoot), {}});
  kernels.push_back(
      {"multiple-bin", clients, runner::SolveWith(core::Algorithm::kMultipleBin), {}});
  kernels.push_back({"multiple-nod-dp", dp_clients,
                     runner::SolveWith(core::Algorithm::kMultipleNodDp),
                     {{"dp_table_mib", DpTableMiB}}});
  if (clients != dp_clients) {
    kernels.push_back({"multiple-nod-dp", clients,
                       runner::SolveWith(core::Algorithm::kMultipleNodDp),
                       {{"dp_table_mib", DpTableMiB}}});
  }
  kernels.push_back({"flow-oracle", flow_clients, SolveFlowOracle, {}});
  kernels.push_back(
      {"multiple-feasible", clients, SolveMultipleFeasible, {}, /*metric_only=*/true});
  kernels.push_back({"multiple-feasible-dmax", clients, SolveMultipleFeasible, {},
                     /*metric_only=*/true, /*dmax=*/12});
  kernels.push_back({"serve-publish", clients, SolvePublishTrace, {}});
  if (big_clients != 0) {
    // Million-node tier: the tree build plus two full solvers proving
    // million-node instances run end-to-end. The DP runs at --dp-clients
    // and --clients only.
    kernels.push_back({"tree-build", big_clients,
                       [big_build_reps](const Instance& instance) {
                         return SolveTreeBuild(instance, big_build_reps);
                       },
                       {},
                       /*metric_only=*/true});
    kernels.push_back(
        {"single-nod", big_clients, runner::SolveWith(core::Algorithm::kSingleNod), {}});
    kernels.push_back(
        {"multiple-bin", big_clients, runner::SolveWith(core::Algorithm::kMultipleBin), {}});
  }

  std::cout << "hot-path kernel sweep: " << kernels.size() << " kernels x " << seeds
            << " seeds (cells run sequentially, each solver serial)\n\n";

  // Untimed warm-up grid (one seed): pre-faults allocator/page state so the
  // timed grid is not penalized for being the cold run.
  (void)RunGrid(kernels, base_seed, /*seeds=*/1);
  const runner::BatchReport report = RunGrid(kernels, base_seed, seeds);
  report.PrintAscii(std::cout);

  Table table({"kernel", "N", "cells", "mean ms", "min ms", "max ms"});
  for (const Kernel& kernel : kernels) {
    const runner::GroupReport* group = report.FindGroup(GroupName(kernel.name, kernel.clients));
    RPT_CHECK(group != nullptr);
    table.NewRow()
        .Add(kernel.name)
        .Add(std::uint64_t{kernel.clients})
        .Add(group->cells)
        .Add(group->elapsed_ms.Mean(), 2)
        .Add(group->elapsed_ms.Min(), 2)
        .Add(group->elapsed_ms.Max(), 2);
  }
  std::cout << "\nper-kernel wall time:\n\n";
  table.PrintAscii(std::cout);

  if (const std::string json = cli.GetString("json"); !json.empty()) {
    report.WriteJsonFile(json, /*include_timing=*/true);
    std::cout << "wrote timing report to " << json << "\n";
  }
  if (const std::string det_json = cli.GetString("det-json"); !det_json.empty()) {
    report.WriteJsonFile(det_json, /*include_timing=*/false);
    std::cout << "wrote deterministic report to " << det_json << "\n";
  }
  if (const std::string csv = cli.GetString("csv"); !csv.empty()) {
    std::ofstream os(csv);
    RPT_REQUIRE(os.good(), "cannot open CSV output: " + csv);
    report.WriteCsv(os, /*include_timing=*/true);
    std::cout << "wrote timing CSV to " << csv << "\n";
  }
  return report.AllOk() ? 0 : 1;
}
