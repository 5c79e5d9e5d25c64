// bench_topology — mutable-topology churn sweep for the delta-overlay CSR.
//
// Measures the incremental Multiple-NoD solver processing *mixed* topology
// traces (attach/detach/migrate/link events interleaved with demand churn)
// against the full rebuild+resolve baseline (Engine::kFullResolve compacts
// the overlay through TreeBuilder::Build and solves from scratch on every
// batch). Each (churn fraction × engine) pair is a group of --seeds cells;
// a cell builds one binary NoD instance, generates a deterministic churn
// trace over it, and times the whole Apply loop. The per-fraction speedup
// full/incremental lands in the "topology_sweep" JSON section; CI merges
// this report into BENCH_hotpath.json (scripts/bench_perf.sh +
// scripts/merge_bench_json.py), so the per-group means are gated by
// scripts/bench_compare.py like every other hot-path kernel.
//
// The deterministic half (--det-json) carries costs, validation, and the
// post-run Compact() columns — every cell validates its placement against
// the *compacted* world (MaterializeCompact + id remap). Cells run one at
// a time on a single batch worker, each solve serial; the byte-diff of two
// runs in scripts/bench_smoke.sh proves the overlay solve and the
// compaction fold are deterministic.
//
// The streaming claim this bench defends: at low churn (<= 1% of clients
// touched per tick) the incremental engine must beat the full rebuild by at
// least --min-speedup (default 3x; 0 disables the gate).
//
//   ./bench_topology --clients=4096 --ticks=32 --churn=0.001,0.01,0.05
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
                "bench_topology: --churn must be comma-separated values in (0, 1], got: " + list);
    fractions.push_back(value);
  }
  RPT_REQUIRE(!fractions.empty(), "bench_topology: --churn list is empty");
  return fractions;
}

std::string FractionLabel(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "churn=%.2f%%", fraction * 100.0);
  return buffer;
}

// Per-cell deterministic counters the metric hooks read after the solve
// (the surge_replay pattern: hooks run right after the solve, same worker).
struct CellState {
  incremental::IncrementalStats stats;
  std::uint64_t overlay_slots = 0;  // allocated ids at end of trace
  std::uint64_t compact_nodes = 0;  // live nodes after Compact()
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rpt;
  Cli cli("bench_topology",
          "incremental vs full rebuild+resolve on streaming topology churn (event sweep)");
  AddSeedsFlag(cli, /*default_seeds=*/3);
  cli.AddInt("clients", 4096, "client count of the binary NoD workload");
  cli.AddInt("capacity", 40, "server capacity W");
  cli.AddInt("ticks", 32, "update batches per cell");
  cli.AddInt("max-demand", 10, "per-client demand ceiling in the generated trace");
  cli.AddString("churn", "0.001,0.01,0.05",
                "comma list of per-tick churn fractions (share of clients touched; each "
                "touch is a join/leave/migrate/link/demand event)");
  cli.AddString("min-speedup", "3",
                "fail unless incremental beats full rebuild by this factor at fractions "
                "<= 1% (0 disables the gate)");
  cli.AddInt("base-seed", 1021, "base seed; per-cell seeds derive deterministically");
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
  const double min_speedup = std::stod(cli.GetString("min-speedup"));
  RPT_REQUIRE(clients >= 2, "bench_topology: --clients must be >= 2");
  RPT_REQUIRE(capacity > 0 && ticks > 0, "bench_topology: --capacity/--ticks must be > 0");
  RPT_REQUIRE(min_speedup >= 0.0 && std::isfinite(min_speedup),
              "bench_topology: --min-speedup must be finite and >= 0");
  const std::vector<double> fractions = ParseFractionList(cli.GetString("churn"));

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
      {"incr-topo", incremental::Engine::kIncremental},
      {"full-topo", incremental::Engine::kFullResolve},
  };

  std::vector<std::uint32_t> touches;
  touches.reserve(fractions.size());
  for (const double f : fractions) {
    touches.push_back(static_cast<std::uint32_t>(
        std::max<double>(1.0, std::llround(f * static_cast<double>(clients)))));
  }
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    for (std::size_t j = i + 1; j < fractions.size(); ++j) {
      std::string collision = "bench_topology: --churn values ";
      collision += std::to_string(fractions[i]);
      collision += " and ";
      collision += std::to_string(fractions[j]);
      collision += " format to the same label (";
      collision += FractionLabel(fractions[i]);
      collision += "); use fractions that differ at two decimals of percent";
      RPT_REQUIRE(FractionLabel(fractions[i]) != FractionLabel(fractions[j]), collision);
    }
  }

  std::printf("topology churn sweep: N=%u clients, W=%llu, %llu ticks/cell, %zu seeds\n\n",
              clients, static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(ticks), seeds);

  runner::BatchRunner batch(runner::BatchOptions{/*threads=*/1});
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    for (const EngineCase& engine_case : engines) {
      for (std::size_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = runner::DeriveSeed(base_seed, i);
        auto cell_state = std::make_shared<CellState>();
        const auto solve = [ticks, max_demand, touch = touches[fi], seed,
                            engine = engine_case.engine, cell_state](const Instance& instance) {
          // The event mix: ~45% structural (join/leave/migrate), 5% link
          // reconfigurations, the rest demand churn — a flash-crowd with
          // hardware turnover, not a pure demand stream.
          incremental::TraceConfig trace_cfg;
          trace_cfg.ticks = ticks;
          trace_cfg.touches_per_tick = touch;
          trace_cfg.max_demand = max_demand;
          trace_cfg.add_remove_fraction = 0.2;
          trace_cfg.join_rate = 0.20;
          trace_cfg.leave_rate = 0.15;
          trace_cfg.failure_rate = 0.10;
          trace_cfg.link_rate = 0.05;
          const incremental::UpdateTrace trace =
              incremental::MakeRandomTrace(instance.GetTree(), trace_cfg, seed + 131);

          core::RunResult result;
          incremental::IncrementalSolver solver(instance, {engine, Policy::kMultiple});
          Timer timer;  // the shared initial solve is setup, not the workload
          for (const auto& events : trace) (void)solver.Apply(events);
          result.elapsed_ms = timer.ElapsedMs();
          result.feasible = solver.Feasible();
          // Fold the overlay into a clean CSR and validate the placement in
          // compact id space: exercises Compact() + the id remap on every
          // cell, and puts their outputs into the deterministic report.
          const auto materialized = solver.MaterializeCompact();
          Solution mapped = MapNodeIds(solver.Current(), materialized.remap);
          mapped.Canonicalize();
          result.validation =
              ValidateSolution(materialized.instance, Policy::kMultiple, mapped);
          result.solution = std::move(mapped);
          cell_state->stats = solver.Stats();
          cell_state->overlay_slots = solver.View().Size();
          cell_state->compact_nodes = materialized.instance.GetTree().Size();
          return result;
        };
        std::string group = engine_case.name;
        group += "/";
        group += FractionLabel(fractions[fi]);
        batch.Add(runner::Cell{
            std::move(group), make_instance, solve, seed,
            {{"topology_events",
              [cell_state](const Instance&, const core::RunResult&) {
                return static_cast<double>(cell_state->stats.topology_events);
              }},
             {"overlay_slots",
              [cell_state](const Instance&, const core::RunResult&) {
                return static_cast<double>(cell_state->overlay_slots);
              }},
             {"compact_nodes",
              [cell_state](const Instance&, const core::RunResult&) {
                return static_cast<double>(cell_state->compact_nodes);
              }},
             {"reuse_pct", [cell_state](const Instance&, const core::RunResult&) {
                const double total = static_cast<double>(cell_state->stats.nodes_recomputed +
                                                         cell_state->stats.nodes_reused);
                return total == 0.0
                           ? 0.0
                           : 100.0 * static_cast<double>(cell_state->stats.nodes_reused) / total;
              }}}});
      }
    }
  }

  const runner::BatchReport report = batch.Run();
  report.PrintAscii(std::cout);

  // Per-fraction speedup table + the topology_sweep JSON section.
  Table sweep({"churn/tick", "touched", "incr ms", "full ms", "speedup"});
  std::ostringstream js;
  js << "\"topology_sweep\":{\"clients\":" << clients << ",\"ticks\":" << ticks
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
    const auto* incr = report.FindGroup("incr-topo/" + FractionLabel(fractions[fi]));
    const auto* full = report.FindGroup("full-topo/" + FractionLabel(fractions[fi]));
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
  bool gate_ok = true;
  std::vector<double> speedups;
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    const double speedup = incr_ms[fi] > 0.0 ? full_ms[fi] / incr_ms[fi] : 0.0;
    speedups.push_back(speedup);
    js << (fi == 0 ? "" : ",") << FormatCompactDouble(speedup);
    sweep.NewRow()
        .Add(FractionLabel(fractions[fi]))
        .Add(std::uint64_t{touches[fi]})
        .Add(incr_ms[fi], 2)
        .Add(full_ms[fi], 2)
        .Add(speedup, 2);
  }
  js << "]}";

  std::cout << "\nre-solve speedup vs topology churn (full rebuild / incremental, mean over "
               "seeds):\n\n";
  sweep.PrintAscii(std::cout);
  std::cout << "\nThe full engine pays TreeBuilder::Build + a from-scratch DP per batch; the\n"
               "incremental engine re-homes ids inside the overlay and recomputes only the\n"
               "dirty root chains. Low churn is the streaming regime the overlay exists for.\n";

  if (min_speedup > 0.0) {
    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
      if (fractions[fi] > 0.01) continue;  // the gate covers the streaming regime only
      if (speedups[fi] < min_speedup) {
        std::cout << "\nGATE FAIL: " << FractionLabel(fractions[fi]) << " speedup "
                  << speedups[fi] << "x < required " << min_speedup << "x\n";
        gate_ok = false;
      }
    }
    if (gate_ok) {
      std::cout << "\ngate: all fractions <= 1% beat the full rebuild by >= " << min_speedup
                << "x\n";
    }
  }

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
  return report.AllOk() && gate_ok ? 0 : 1;
}
