// shard-solve: the forest-scale cold solve through shard::SolveSharded.
//
// The instance is bench_shard's forest megatree (36000 internal nodes, 84000
// clients, W=30). Set-up generates it and solves it once unsharded with
// SolveMultipleNodDp; the window then solves it again and again with 4
// subprocess workers of one thread each, checking every answer against the
// unsharded cost and canonical-solution hash. This is the only workload that
// runs planning, fork/exec, slice and btab file I/O and the spine merge.
//
// The traced run adds, after the window, the pieces SolveSharded is built
// from, called one by one: PlanShards, an in-process SolveSharded, and per
// shard SolveCut + ExportTable and ExtractFragment.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "report.hpp"
#include "shard/coordinator.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"

namespace perfbench {

namespace {

using namespace rpt;
namespace fs = std::filesystem;

constexpr std::uint32_t kInternal = 36000;
constexpr std::uint32_t kClients = 84000;
constexpr Requests kCapacity = 30;
constexpr std::uint32_t kShards = 4;

Instance MakeForest(std::uint64_t seed) {
  gen::RandomTreeConfig config;
  config.internal_nodes = kInternal;
  config.clients = kClients;
  config.max_children = 6;
  config.min_requests = 1;
  config.max_requests = 12;
  return Instance(gen::GenerateRandomTree(config, seed), kCapacity, kNoDistanceLimit);
}

/// FNV-1a over the canonical form of a solution.
std::uint64_t CanonicalSolutionHash(Solution solution) {
  solution.Canonicalize();
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const NodeId replica : solution.replicas) mix(replica);
  for (const ServiceEntry& entry : solution.assignment) {
    mix(entry.client);
    mix(entry.server);
    mix(entry.amount);
  }
  return h;
}

template <typename Fn>
double MedianMs(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    fn(i);
    times.push_back(Ms(start, Clock::now()));
  }
  return Quantile(times, 0.5);
}

}  // namespace

Outcome RunShardSolve(const RunConfig& config, Tracer& tracer) {
  Outcome outcome;

  // ---- Set-up, repeated: generate the forest and solve it unsharded.
  std::vector<double> setup_s;
  std::vector<double> dp_ms;
  std::unique_ptr<const Instance> instance;
  multiple::MultipleNodDpResult reference;
  const std::string work_dir = config.work_dir + "/shard";
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    instance.reset();
    reference = {};
    const SetupPin pin(repeat);
    const auto start = Clock::now();
    instance = std::make_unique<const Instance>(MakeForest(config.seed));
    const auto dp_start = Clock::now();
    reference = multiple::SolveMultipleNodDp(*instance);
    dp_ms.push_back(Ms(dp_start, Clock::now()));
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    setup_s.push_back(Ms(start, Clock::now()) / 1000.0);
  }
  const std::uint64_t expected_hash = CanonicalSolutionHash(reference.solution);
  std::uint64_t expected_cost = reference.solution.ReplicaCount();
  if (config.control == "wrong-cost") ++expected_cost;  // negative control
  std::printf("instance: forest megatree, %zu nodes (%u internal, %u clients), W=%llu; "
              "unsharded cost %zu\n",
              instance->GetTree().Size(), kInternal, kClients,
              static_cast<unsigned long long>(kCapacity), reference.solution.ReplicaCount());

  shard::ShardOptions options;
  options.shards = kShards;
  options.max_attempts = 2;
  options.dispatch = shard::ShardOptions::Dispatch::kSubprocess;
  options.work_dir = work_dir;
  options.worker_argv0 = config.self_exe;
  options.worker_threads = 1;
  if (config.control == "worker-crash") {
    // Negative control: shard 0's first solve-phase worker dies (exit 137)
    // at its first cut, every solve; the re-dispatch must still be exact.
    options.crash_at_cut = 1;
    options.crash_shard = 0;
  }

  const auto check = [&](const shard::ShardedSolveResult& result, const char* how) {
    if (!result.feasible || result.solution.ReplicaCount() != expected_cost ||
        CanonicalSolutionHash(result.solution) != expected_hash) {
      outcome.Wrong(std::string(how) + " solve: cost " +
                    std::to_string(result.solution.ReplicaCount()) + " vs expected " +
                    std::to_string(expected_cost) + ", hash " +
                    (CanonicalSolutionHash(result.solution) == expected_hash ? "equal"
                                                                             : "differs"));
    }
  };

  // ---- The timed window: repeated subprocess solves.
  std::vector<double> solve_ms;
  std::vector<double> worker_rss_mib;
  std::uint64_t redispatches = 0;
  shard::ShardStats last_stats;
  const auto window_start = Clock::now();
  do {
    const std::uint64_t op = solve_ms.size() + 1;
    ++outcome.attempted;
    const auto start = Clock::now();
    shard::ShardedSolveResult result;
    try {
      Span span(tracer, "shard.solve_subprocess", 0, op);
      result = shard::SolveSharded(*instance, options);
    } catch (const std::exception& e) {
      ++outcome.failed;
      std::printf("solve %llu failed: %s\n", static_cast<unsigned long long>(op), e.what());
      continue;
    }
    solve_ms.push_back(Ms(start, Clock::now()));
    worker_rss_mib.push_back(static_cast<double>(result.stats.max_worker_rss_kb) / 1024.0);
    redispatches += result.failures.size();
    if (!result.failures.empty()) ++outcome.failed;
    last_stats = result.stats;
    check(result, "subprocess");
  } while (Ms(window_start, Clock::now()) < config.seconds * 1000.0);
  const double window_s = Ms(window_start, Clock::now()) / 1000.0;
  std::printf("window: %.3f s, %zu sharded solves over %u worker processes, %llu "
              "re-dispatch(es)\n",
              window_s, solve_ms.size(), kShards, static_cast<unsigned long long>(redispatches));

  auto& fig = outcome.figures;
  fig["solve_p50_ms"] = Quantile(solve_ms, 0.5);
  fig["worker_peak_rss_mib"] = Quantile(worker_rss_mib, 0.5);
  // The operation of the end-to-end metrics: one checked subprocess solve.
  auto& e2e = outcome.end_to_end;
  e2e["setup_s"] = Quantile(setup_s, 0.5);
  e2e["ops_per_s"] = static_cast<double>(solve_ms.size()) / window_s;
  e2e["op_p50_ms"] = fig["solve_p50_ms"];
  e2e["op_p90_ms"] = Quantile(solve_ms, 0.9);

  auto& layer = outcome.layer;
  layer["shard.cuts"] = last_stats.cut_count;
  layer["shard.boundary_bytes"] = static_cast<double>(last_stats.boundary_bytes);
  layer["shard.worker_table_entries"] = static_cast<double>(last_stats.worker_table_entries);
  layer["shard.worker_convolve_cells"] = static_cast<double>(last_stats.worker_convolve_cells);
  layer["shard.spine_table_entries"] = static_cast<double>(last_stats.spine_table_entries);
  layer["shard.redispatches"] = static_cast<double>(redispatches);
  layer["multiple.dp_ms"] = Quantile(dp_ms, 0.5);

  if (tracer.Enabled()) {
    const Tree& tree = instance->GetTree();
    shard::PlanOptions plan_options;  // the planner settings SolveSharded passes on
    plan_options.shards = options.shards;
    plan_options.max_imbalance = options.max_imbalance;
    plan_options.max_cuts = options.max_cuts;
    shard::ShardPlan plan;
    layer["shard.plan_ms"] = MedianMs(5, [&](int i) {
      Span span(tracer, "shard.plan", 0, static_cast<std::uint64_t>(i) + 1);
      plan = shard::PlanShards(tree, plan_options);
    });
    shard::ShardOptions in_process = options;
    in_process.dispatch = shard::ShardOptions::Dispatch::kInProcess;
    in_process.crash_at_cut = 0;
    layer["shard.inproc_solve_ms"] = MedianMs(3, [&](int i) {
      Span span(tracer, "shard.inproc_solve", 0, static_cast<std::uint64_t>(i) + 1);
      check(shard::SolveSharded(*instance, in_process), "in-process");
    });
    layer["shard.dispatch_ms"] = fig["solve_p50_ms"] - layer["shard.inproc_solve_ms"];

    // Per shard: SolveCut + ExportTable over its cuts (slicing excluded: the
    // coordinator slices before dispatch), then ExtractFragment at the
    // budget each cut forwards in the unsharded solution.
    std::vector<std::uint32_t> cut_of(tree.Size(), UINT32_MAX);
    std::vector<SubtreeSlice> slices;
    for (const shard::Cut& cut : plan.cuts) {
      slices.push_back(tree.SliceSubtree(cut.node));
      for (const NodeId global : slices.back().to_global) {
        cut_of[global] = static_cast<std::uint32_t>(slices.size() - 1);
      }
    }
    std::vector<std::uint64_t> forwarded(plan.cuts.size(), 0);
    for (const ServiceEntry& entry : reference.solution.assignment) {
      const std::uint32_t from = cut_of[entry.client];
      if (from != UINT32_MAX && cut_of[entry.server] != from) forwarded[from] += entry.amount;
    }
    std::vector<double> shard_solve_ms, shard_extract_ms;
    for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
      std::vector<shard::CutSolve> solves;
      std::vector<std::size_t> indices;
      auto start = Clock::now();
      {
        Span span(tracer, "shard.cut_solve", 0, s + 1);
        for (const NodeId cut : plan.shard_cuts[s]) {
          const auto it = std::lower_bound(
              plan.cuts.begin(), plan.cuts.end(), cut,
              [](const shard::Cut& c, NodeId node) { return c.node < node; });
          const auto index = static_cast<std::size_t>(it - plan.cuts.begin());
          solves.push_back(shard::SolveCut(cut, slices[index], kCapacity));
          (void)shard::ExportTable(solves.back());
          indices.push_back(index);
        }
      }
      shard_solve_ms.push_back(Ms(start, Clock::now()));
      start = Clock::now();
      {
        Span span(tracer, "shard.extract", 0, s + 1);
        for (std::size_t i = 0; i < solves.size(); ++i) {
          (void)shard::ExtractFragment(solves[i], forwarded[indices[i]]);
        }
      }
      shard_extract_ms.push_back(Ms(start, Clock::now()));
    }
    const double slowest = *std::max_element(shard_solve_ms.begin(), shard_solve_ms.end());
    const double mean = std::accumulate(shard_solve_ms.begin(), shard_solve_ms.end(), 0.0) /
                        static_cast<double>(shard_solve_ms.size());
    layer["shard.cut_solve_ms"] = slowest;
    layer["shard.imbalance"] = mean > 0.0 ? slowest / mean : 0.0;
    layer["shard.extract_ms"] =
        *std::max_element(shard_extract_ms.begin(), shard_extract_ms.end());
    const double all_cut_solves =
        std::accumulate(shard_solve_ms.begin(), shard_solve_ms.end(), 0.0);
    const double all_extracts =
        std::accumulate(shard_extract_ms.begin(), shard_extract_ms.end(), 0.0);
    std::printf("closure: subprocess solve p50 %.3f ms = in-process solve %.3f ms + dispatch "
                "(fork/exec, slice + btab file I/O, worker start-up) %.3f ms\n",
                fig["solve_p50_ms"], layer["shard.inproc_solve_ms"], layer["shard.dispatch_ms"]);
    std::printf("closure: in-process solve %.3f ms = plan %.3f + cut solves (all %u shards) "
                "%.3f + extracts %.3f + merge/splice/slicing/codec %.3f ms\n",
                layer["shard.inproc_solve_ms"], layer["shard.plan_ms"], plan.shard_count,
                all_cut_solves, all_extracts,
                layer["shard.inproc_solve_ms"] - layer["shard.plan_ms"] - all_cut_solves -
                    all_extracts);
  }

  fs::remove_all(work_dir);
  e2e["peak_rss_mib"] = PeakRssMib();
  std::printf("figures:\n");
  PrintSample("solve_p50_ms", fig["solve_p50_ms"], "ms", solve_ms.size());
  PrintSample("worker_peak_rss_mib", fig["worker_peak_rss_mib"], "MiB", worker_rss_mib.size());
  PrintEndToEnd(outcome, "a subprocess SolveSharded, checked", setup_s.size(), solve_ms.size());
  return outcome;
}

}  // namespace perfbench
