// bench_shard — the sharded forest solve measured two ways.
//
// 1. Oracle comparison sweep (deterministic, --det-json): the unsharded
//    Multiple-NoD DP as baseline vs SolveSharded at k=2/4/8 on identical
//    random instances. The paired ratio statistics must be ALL TIES — the
//    sharded solve is exact — and every produced solution re-validates
//    independently; the report is bit-identical across runs and --threads.
//
// 2. Forest tier (--forest-internal/--forest-clients, subprocess RSS leg,
//    timing JSON only): a megatree is solved twice through the SAME worker
//    harness — once by a single worker whose "shard" is the whole tree (the
//    unsharded footprint), once by SolveSharded fanning out --forest-shards
//    real worker processes. wait4's ru_maxrss per worker gives the honest
//    peak-RSS comparison: the per-shard cap the unsharded path exceeds is
//    the whole point of sharding. Costs are cross-checked for equality.
//    The 10^7-node group of ROADMAP's record:
//      ./bench_shard --seeds=0 --forest-internal=3000000 --forest-clients=7000000
//    RSS/timing go ONLY into the --json "shard_forest" section, never into
//    the deterministic report.
//
// This binary IS its own worker: the coordinator re-execs argv[0] with
// --rpt-shard-worker, so no other binary needs to exist at bench time.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "model/validate.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "runner/batch_runner.hpp"
#include "shard/boundary_table.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "tree/serialize.hpp"

namespace {

using namespace rpt;

std::function<Instance(std::uint64_t)> ForestWorkload(std::uint32_t internal,
                                                      std::uint32_t clients,
                                                      Requests capacity) {
  return [internal, clients, capacity](std::uint64_t seed) {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = internal;
    cfg.clients = clients;
    cfg.max_children = 6;
    cfg.min_requests = 1;
    cfg.max_requests = 12;
    return Instance(gen::GenerateRandomTree(cfg, seed), capacity, kNoDistanceLimit);
  };
}

/// Wraps SolveSharded (in-process dispatch) as a comparison-sweep solver.
std::function<core::RunResult(const Instance&)> SolveShardedWith(std::uint32_t shards) {
  return [shards](const Instance& instance) {
    shard::ShardOptions options;
    options.shards = shards;
    core::RunResult result;
    Timer timer;
    shard::ShardedSolveResult sharded = shard::SolveSharded(instance, options);
    result.elapsed_ms = timer.ElapsedMs();
    result.feasible = sharded.feasible;
    if (sharded.feasible) {
      result.solution = std::move(sharded.solution);
      result.validation = ValidateSolution(instance, Policy::kMultiple, result.solution);
    }
    return result;
  };
}

/// One spawned-and-collected worker run: exit status checked, peak RSS and
/// wall time captured, btab read back.
struct WorkerRun {
  shard::BtabFile btab;
  std::uint64_t rss_kb = 0;
  double elapsed_ms = 0.0;
};

WorkerRun RunWorkerProcess(const std::string& argv0, const std::string& manifest,
                           const std::string& out_path, const shard::CutDemand& demand_of) {
  const std::vector<std::string> args = {argv0, shard::kWorkerFlag, "--phase=solve",
                                         "--manifest=" + manifest, "--out=" + out_path};
  std::vector<char*> argv;
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  Timer timer;
  const pid_t pid = ::fork();
  RPT_REQUIRE(pid >= 0, "bench_shard: fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::perror("bench_shard: execv");
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage{};
  pid_t waited = -1;
  do {
    waited = ::wait4(pid, &status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  RPT_CHECK(waited == pid);
  RPT_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "bench_shard: whole-tree worker died");
  WorkerRun run;
  run.elapsed_ms = timer.ElapsedMs();
  run.rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
  run.btab = shard::ReadBtabFile(out_path, demand_of);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == shard::kWorkerFlag) {
    return shard::ShardWorkerMain(argc, argv);
  }

  Cli cli("bench_shard", "sharded forest solve: oracle equality sweep + subprocess RSS tier");
  AddBatchFlags(cli, /*default_seeds=*/3);
  cli.AddInt("internal", 1500, "internal nodes per oracle-sweep instance");
  cli.AddInt("clients", 4500, "clients per oracle-sweep instance");
  cli.AddInt("capacity", 30, "server capacity W");
  cli.AddInt("base-seed", 808, "base seed; per-cell seeds derive deterministically");
  cli.AddInt("forest-internal", 36000, "internal nodes of the forest RSS tier (0 disables)");
  cli.AddInt("forest-clients", 84000, "clients of the forest RSS tier");
  cli.AddInt("forest-shards", 8, "worker count of the forest RSS tier");
  cli.AddInt("forest-seed", 4242, "seed of the forest megatree");
  cli.AddString("work-dir", "/tmp/rpt-bench-shard", "subprocess file-exchange directory");
  cli.AddString("json", "", "write the report incl. the shard_forest RSS/timing section here");
  cli.AddString("det-json", "",
                "write the deterministic report (no timing, no RSS) here; byte-identical "
                "across runs and --threads values");
  if (!cli.Parse(argc, argv)) return 0;
  // Unlike GetBatchFlags, --seeds=0 is legal here: it skips the oracle sweep
  // so the forest RSS tier can run alone (the 10^7-node record invocation).
  const BatchFlags flags{static_cast<std::size_t>(cli.GetUint("threads")),
                         static_cast<std::size_t>(cli.GetUint("seeds"))};
  const auto internal = static_cast<std::uint32_t>(cli.GetUint("internal", 1u << 24));
  const auto clients = static_cast<std::uint32_t>(cli.GetUint("clients", 1u << 26));
  const auto capacity = static_cast<Requests>(cli.GetUint("capacity"));
  const std::uint64_t base_seed = cli.GetUint("base-seed");
  const auto forest_internal = static_cast<std::uint32_t>(cli.GetUint("forest-internal", 1u << 26));
  const auto forest_clients = static_cast<std::uint32_t>(cli.GetUint("forest-clients", 1u << 26));
  const auto forest_shards = static_cast<std::uint32_t>(cli.GetUint("forest-shards", 256));
  RPT_REQUIRE(forest_internal == 0 || forest_shards >= 1,
              "bench_shard: --forest-shards must be >= 1");

  // ---- 1. Oracle comparison sweep (deterministic). --------------------------
  runner::BatchReport report;
  if (flags.seeds > 0) {
    runner::BatchRunner batch(runner::BatchOptions{flags.threads});
    const std::string group =
        "shard-oracle/N=" + std::to_string(internal + clients);
    batch.AddComparisonSweep(group, ForestWorkload(internal, clients, capacity),
                             {{"unsharded", runner::SolveWith(core::Algorithm::kMultipleNodDp)},
                              {"shard-k2", SolveShardedWith(2)},
                              {"shard-k4", SolveShardedWith(4)},
                              {"shard-k8", SolveShardedWith(8)}},
                             base_seed, flags.seeds);
    report = batch.Run();
    report.PrintAscii(std::cout);
    const runner::ComparisonReport* comparison = report.FindComparison(group);
    RPT_CHECK(comparison != nullptr);
    for (const runner::RatioStat& ratio : comparison->ratios) {
      RPT_REQUIRE(ratio.ties == ratio.pairs,
                  "bench_shard: " + ratio.numerator + " diverged from the unsharded oracle");
    }
    std::cout << "\noracle: every sharded cost tied the unsharded baseline ("
              << comparison->ratios.size() << " solvers x " << flags.seeds << " seeds)\n";
  }

  // ---- 2. Forest tier: per-worker peak RSS, unsharded vs sharded. -----------
  std::string extra_json;
  if (forest_internal != 0) {
    namespace fs = std::filesystem;
    const std::string work_dir = cli.GetString("work-dir");
    fs::create_directories(work_dir);
    const std::uint64_t forest_seed = cli.GetUint("forest-seed");
    const Instance instance =
        ForestWorkload(forest_internal, forest_clients, capacity)(forest_seed);
    const std::size_t nodes = instance.GetTree().Size();
    std::cout << "\nforest tier: " << instance.Summary() << ", " << forest_shards
              << " worker processes\n";

    // Unsharded leg: ONE worker whose manifest is the whole megatree (cut at
    // the global root) — the identical harness, binary, and codec as the
    // sharded leg, so the RSS numbers differ only by what sharding changes.
    const std::string whole_path = work_dir + "/whole.tree";
    {
      std::ofstream os(whole_path, std::ios::trunc);
      RPT_REQUIRE(os.good(), "bench_shard: cannot write " + whole_path);
      WriteTree(os, instance.GetTree());
      os.flush();
      RPT_REQUIRE(os.good(), "bench_shard: write failed: " + whole_path);
    }
    const std::string whole_manifest = work_dir + "/whole.manifest";
    {
      std::ofstream os(whole_manifest, std::ios::trunc);
      os << "rpt-shard-manifest v1\ncapacity " << instance.Capacity() << "\ncut 0 "
         << whole_path << "\n";
      RPT_REQUIRE(os.good(), "bench_shard: write failed: " + whole_manifest);
    }
    const WorkerRun unsharded = RunWorkerProcess(
        argv[0], whole_manifest, work_dir + "/whole.btab", [&instance](NodeId cut) -> Requests {
          RPT_REQUIRE(cut == 0, "bench_shard: whole-tree table names a cut other than the root");
          return instance.GetTree().TotalRequests();
        });
    RPT_CHECK(unsharded.btab.tables.size() == 1);
    const auto& root_table = unsharded.btab.tables[0];
    RPT_CHECK(root_table.vmin == 0);
    const auto root_cost = multiple::NodDpEngine::CostAt(root_table.inv, 0);
    const bool unsharded_feasible = root_cost < multiple::NodDpEngine::kInfCost;
    const std::uint64_t unsharded_cost = unsharded_feasible ? root_cost : 0;

    // Sharded leg: the real coordinator fanning out worker processes.
    shard::ShardOptions options;
    options.shards = forest_shards;
    options.dispatch = shard::ShardOptions::Dispatch::kSubprocess;
    options.work_dir = work_dir;
    options.worker_argv0 = argv[0];
    Timer timer;
    const shard::ShardedSolveResult sharded = shard::SolveSharded(instance, options);
    const double sharded_ms = timer.ElapsedMs();
    RPT_REQUIRE(sharded.feasible == unsharded_feasible &&
                    sharded.solution.ReplicaCount() == unsharded_cost,
                "bench_shard: sharded forest cost diverged from the whole-tree worker");

    const double ratio = sharded.stats.max_worker_rss_kb > 0
                             ? static_cast<double>(unsharded.rss_kb) /
                                   static_cast<double>(sharded.stats.max_worker_rss_kb)
                             : 0.0;
    Table table({"leg", "workers", "peak RSS KiB", "wall ms", "cost"});
    table.NewRow()
        .Add("unsharded")
        .Add(std::uint64_t{1})
        .Add(unsharded.rss_kb)
        .Add(unsharded.elapsed_ms, 1)
        .Add(unsharded_cost);
    table.NewRow()
        .Add("sharded")
        .Add(std::uint64_t{sharded.stats.shard_count})
        .Add(sharded.stats.max_worker_rss_kb)
        .Add(sharded_ms, 1)
        .Add(std::uint64_t{sharded.solution.ReplicaCount()});
    std::cout << "\n";
    table.PrintAscii(std::cout);
    std::cout << "\nper-worker peak RSS shrank " << FormatCompactDouble(ratio)
              << "x (" << nodes << " nodes, " << sharded.stats.cut_count << " cuts, "
              << sharded.stats.boundary_bytes << " boundary bytes)\n";

    std::ostringstream js;
    js << "\"shard_forest\":{\"nodes\":" << nodes << ",\"shards\":" << forest_shards
       << ",\"capacity\":" << instance.Capacity() << ",\"cuts\":" << sharded.stats.cut_count
       << ",\"boundary_bytes\":" << sharded.stats.boundary_bytes
       << ",\"cost\":" << unsharded_cost << ",\"unsharded\":{\"rss_kb\":" << unsharded.rss_kb
       << ",\"ms\":" << FormatCompactDouble(unsharded.elapsed_ms)
       << "},\"sharded\":{\"rss_kb\":" << sharded.stats.max_worker_rss_kb
       << ",\"ms\":" << FormatCompactDouble(sharded_ms)
       << "},\"rss_ratio\":" << FormatCompactDouble(ratio) << "}";
    extra_json = js.str();
  }

  if (const std::string json = cli.GetString("json"); !json.empty()) {
    report.WriteJsonFile(json, /*include_timing=*/true, extra_json);
    std::cout << "wrote timing report to " << json << "\n";
  }
  if (const std::string det_json = cli.GetString("det-json"); !det_json.empty()) {
    report.WriteJsonFile(det_json, /*include_timing=*/false);
    std::cout << "wrote deterministic report to " << det_json << "\n";
  }
  return report.AllOk() ? 0 : 1;
}
