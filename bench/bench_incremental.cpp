// bench_incremental — event-sweep for the incremental re-solve engine.
//
// Measures how the incremental Multiple-NoD solver (dirty-chain recompute,
// src/incremental/) compares against the from-scratch oracle while
// processing identical demand-update traces, across a sweep of per-tick
// churn fractions (% of clients touched per tick). Each (fraction × engine)
// pair is a group of --seeds cells; a cell builds one binary NoD instance,
// generates a deterministic trace, and times the whole Apply loop (the
// initial solve is shared setup and excluded). The per-fraction speedup
// full/incremental lands in the "incremental_sweep" JSON section; CI merges
// this report into BENCH_hotpath.json (scripts/bench_perf.sh +
// scripts/merge_bench_json.py), so the per-group means are gated by
// scripts/bench_compare.py like every other hot-path kernel.
//
// Like bench_hotpath, cells run one at a time on a single batch worker, and
// each re-solve recomputes its dirty chains serially. The --json report
// embeds wall time and is machine-dependent; the deterministic half (costs,
// resolves, recompute/reuse counters) goes to --det-json, which
// scripts/bench_smoke.sh byte-diffs across two runs.
//
//   ./bench_incremental --clients=8192 --ticks=24 --fractions=0.0002,0.001,0.01,0.05
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "model/validate.hpp"
#include "runner/batch_runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace rpt;

std::vector<double> ParseFractionList(const std::string& list) {
  std::vector<double> fractions;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    RPT_REQUIRE(used == token.size() && value > 0.0 && value <= 1.0,
                "bench_incremental: --fractions must be comma-separated values in (0, 1], got: " +
                    list);
    fractions.push_back(value);
  }
  RPT_REQUIRE(!fractions.empty(), "bench_incremental: --fractions list is empty");
  return fractions;
}

std::string FractionLabel(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "f=%.2f%%", fraction * 100.0);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpt;
  Cli cli("bench_incremental",
          "incremental vs full re-solve on streaming demand updates (event sweep)");
  AddSeedsFlag(cli, /*default_seeds=*/3);
  cli.AddInt("clients", 8192, "client count of the binary NoD workload");
  cli.AddInt("capacity", 40, "server capacity W");
  cli.AddInt("ticks", 48, "update batches per cell");
  cli.AddInt("max-demand", 10, "per-client demand ceiling in the generated trace");
  cli.AddString("fractions", "0.0002,0.001,0.01,0.05",
                "comma list of per-tick churn fractions (share of clients touched)");
  cli.AddInt("base-seed", 407, "base seed; per-cell seeds derive deterministically");
  cli.AddString("json", "", "write the report incl. timing stats here (merged into "
                            "BENCH_hotpath.json by scripts/bench_perf.sh)");
  cli.AddString("det-json", "",
                "write the deterministic report (no timing) here; byte-identical across "
                "runs");
  cli.AddString("csv", "", "optional CSV output path (incl. timing)");
  if (!cli.Parse(argc, argv)) return 0;
  const std::size_t seeds = GetSeedsFlag(cli);
  const auto clients = static_cast<std::uint32_t>(cli.GetUint("clients", 1u << 24));
  const auto capacity = static_cast<Requests>(cli.GetUint("capacity"));
  const std::uint64_t ticks = cli.GetUint("ticks");
  const auto max_demand = static_cast<Requests>(cli.GetUint("max-demand"));
  const auto base_seed = cli.GetUint("base-seed");
  RPT_REQUIRE(clients >= 2, "bench_incremental: --clients must be >= 2");
  RPT_REQUIRE(capacity > 0 && ticks > 0, "bench_incremental: --capacity/--ticks must be > 0");
  const std::vector<double> fractions = ParseFractionList(cli.GetString("fractions"));

  const auto make_instance = [clients, capacity](std::uint64_t seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = clients;
    cfg.min_requests = 1;
    cfg.max_requests = 10;
    cfg.min_edge = 1;
    cfg.max_edge = 2;
    return Instance(gen::GenerateFullBinaryTree(cfg, seed), capacity, kNoDistanceLimit);
  };

  struct EngineCase {
    const char* name;
    incremental::Engine engine;
  };
  const std::vector<EngineCase> engines{
      {"incr-stream", incremental::Engine::kIncremental},
      {"full-stream", incremental::Engine::kFullResolve},
  };

  std::vector<std::uint32_t> touches;
  touches.reserve(fractions.size());
  for (const double f : fractions) {
    touches.push_back(static_cast<std::uint32_t>(
        std::max<double>(1.0, std::llround(f * static_cast<double>(clients)))));
  }
  // Labels are group names: two fractions rounding to the same percent
  // label would silently merge their cells into one group and corrupt the
  // sweep, so collisions are an input error.
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    for (std::size_t j = i + 1; j < fractions.size(); ++j) {
      std::string collision = "bench_incremental: --fractions values ";
      collision += std::to_string(fractions[i]);
      collision += " and ";
      collision += std::to_string(fractions[j]);
      collision += " format to the same label (";
      collision += FractionLabel(fractions[i]);
      collision += "); use fractions that differ at two decimals of percent";
      RPT_REQUIRE(FractionLabel(fractions[i]) != FractionLabel(fractions[j]), collision);
    }
  }

  std::printf("incremental event sweep: N=%u clients, W=%llu, %llu ticks/cell, %zu seeds\n\n",
              clients, static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(ticks), seeds);

  runner::BatchRunner batch(runner::BatchOptions{/*threads=*/1});
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    for (const EngineCase& engine_case : engines) {
      for (std::size_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = runner::DeriveSeed(base_seed, i);
        // Both engines of a fraction replay the identical (instance, trace)
        // pair, so their deterministic columns must agree entry for entry.
        // The solver dies with the solve call, so its counters reach the
        // metric hooks through per-cell shared state (the surge_replay
        // pattern: hooks run right after the solve, on the same worker).
        auto stats_cache = std::make_shared<incremental::IncrementalStats>();
        const auto solve = [ticks, max_demand, touch = touches[fi], seed,
                            engine = engine_case.engine, stats_cache](const Instance& instance) {
          incremental::TraceConfig trace_cfg;
          trace_cfg.ticks = ticks;
          trace_cfg.touches_per_tick = touch;
          trace_cfg.max_demand = max_demand;
          trace_cfg.add_remove_fraction = 0.2;
          const incremental::UpdateTrace trace =
              incremental::MakeRandomTrace(instance.GetTree(), trace_cfg, seed + 101);

          core::RunResult result;
          incremental::IncrementalSolver solver(instance,
                                                {engine, Policy::kMultiple});
          Timer timer;  // the shared initial solve is setup, not the workload
          for (const auto& events : trace) (void)solver.Apply(events);
          result.elapsed_ms = timer.ElapsedMs();
          result.feasible = solver.Feasible();
          result.solution = solver.Current();
          result.validation =
              ValidateSolution(solver.MaterializeInstance(), Policy::kMultiple, result.solution);
          *stats_cache = solver.Stats();
          return result;
        };
        std::string group = engine_case.name;
        group += "/";
        group += FractionLabel(fractions[fi]);
        batch.Add(runner::Cell{
            std::move(group), make_instance, solve, seed,
            {{"resolves",
              [stats_cache](const Instance&, const core::RunResult&) {
                return static_cast<double>(stats_cache->resolves);
              }},
             {"nodes_recomputed",
              [stats_cache](const Instance&, const core::RunResult&) {
                return static_cast<double>(stats_cache->nodes_recomputed);
              }},
             {"reuse_pct", [stats_cache](const Instance&, const core::RunResult&) {
                const double total = static_cast<double>(stats_cache->nodes_recomputed +
                                                         stats_cache->nodes_reused);
                return total == 0.0
                           ? 0.0
                           : 100.0 * static_cast<double>(stats_cache->nodes_reused) / total;
              }}}});
      }
    }
  }

  const runner::BatchReport report = batch.Run();
  report.PrintAscii(std::cout);

  // Per-fraction speedup table + the incremental_sweep JSON section.
  Table sweep({"churn/tick", "touched", "incr ms", "full ms", "speedup"});
  std::ostringstream js;
  js << "\"incremental_sweep\":{\"clients\":" << clients << ",\"ticks\":" << ticks
     << ",\"fractions\":[";
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    js << (i == 0 ? "" : ",") << FormatCompactDouble(fractions[i]);
  }
  js << "],\"touched\":[";
  for (std::size_t i = 0; i < touches.size(); ++i) js << (i == 0 ? "" : ",") << touches[i];
  js << "],\"incr_ms\":[";
  std::vector<double> incr_ms;
  std::vector<double> full_ms;
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    const auto* incr = report.FindGroup("incr-stream/" + FractionLabel(fractions[fi]));
    const auto* full = report.FindGroup("full-stream/" + FractionLabel(fractions[fi]));
    RPT_CHECK(incr != nullptr && full != nullptr);
    incr_ms.push_back(incr->elapsed_ms.Mean());
    full_ms.push_back(full->elapsed_ms.Mean());
    js << (fi == 0 ? "" : ",") << FormatCompactDouble(incr_ms.back());
  }
  js << "],\"full_ms\":[";
  for (std::size_t fi = 0; fi < full_ms.size(); ++fi) {
    js << (fi == 0 ? "" : ",") << FormatCompactDouble(full_ms[fi]);
  }
  js << "],\"speedup\":[";
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    const double speedup = incr_ms[fi] > 0.0 ? full_ms[fi] / incr_ms[fi] : 0.0;
    js << (fi == 0 ? "" : ",") << FormatCompactDouble(speedup);
    sweep.NewRow()
        .Add(FractionLabel(fractions[fi]))
        .Add(std::uint64_t{touches[fi]})
        .Add(incr_ms[fi], 2)
        .Add(full_ms[fi], 2)
        .Add(speedup, 2);
  }
  js << "]}";

  std::cout << "\nre-solve speedup vs churn (full / incremental, mean over seeds):\n\n";
  sweep.PrintAscii(std::cout);
  std::cout << "\nLow churn is the streaming regime: the dirty ancestor chains are a sliver\n"
               "of the tree, so warm tables dominate. High churn converges toward 1x —\n"
               "when most of the tree is dirty, incremental IS a full re-solve.\n";

  if (const std::string json = cli.GetString("json"); !json.empty()) {
    report.WriteJsonFile(json, /*include_timing=*/true, js.str());
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
