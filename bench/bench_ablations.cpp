// Experiment E9 — ablations of the paper's two ordering rules.
//
// (i)  single-nod bundle order: Algorithm 2 absorbs the *smallest* pending
//      bundles at an overflowing node (that ordering is what the Theorem 4
//      proof exploits). Flipping to largest-first stays feasible but
//      measurably degrades the replica count — and on the Fig. 4 family the
//      smallest-first rule is exactly what produces the 2K worst case, so
//      the flip accidentally "fixes" that family while losing on random
//      inputs; both effects are tabulated.
// (ii) multiple-bin fill order: Algorithm 3 serves the *most* distance-
//      constrained triples first. Serving least-constrained first remains
//      feasible (extra-server mops up) but loses optimality under tight
//      dmax; the table reports how often and by how much.
//
// The random sweeps are paired comparison sweeps on runner::BatchRunner:
// every variant runs on the identical instance per seed and the per-seed
// ratio/excess statistics come straight from the comparison's RatioStats.
#include <iostream>

#include "gen/paper_instances.hpp"
#include "gen/random_tree.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_bin.hpp"
#include "runner/batch_runner.hpp"
#include "single/single_nod.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace rpt;

// Wraps an options-carrying solver call into a core::RunResult the way
// core::Run does, including the independent validation pass.
template <typename Solve>
std::function<core::RunResult(const Instance&)> CustomSolve(Policy policy, Solve solve) {
  return [policy, solve](const Instance& instance) {
    core::RunResult result;
    Timer timer;
    result.solution = solve(instance);
    result.elapsed_ms = timer.ElapsedMs();
    result.feasible = true;
    result.validation = ValidateSolution(instance, policy, result.solution);
    RPT_CHECK(result.validation.ok);
    return result;
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpt;
  Cli cli("bench_ablations", "E9: ablations of the paper's ordering rules");
  AddBatchFlags(cli, /*default_seeds=*/50);
  runner::AddJsonFlag(cli);
  cli.AddString("csv", "", "optional CSV output path");
  if (!cli.Parse(argc, argv)) return 0;
  const BatchFlags flags = GetBatchFlags(cli);

  const auto largest_first = CustomSolve(Policy::kSingle, [](const Instance& inst) {
    single::SingleNodOptions flipped;
    flipped.order = single::SingleNodOptions::BundleOrder::kLargestFirst;
    return single::SolveSingleNod(inst, flipped).solution;
  });

  runner::BatchRunner batch(runner::BatchOptions{flags.threads});

  // --- (i) single-nod bundle order: random instances ----------------------
  // Smallest-first keeps the proven factor 2; the flip can exceed it.
  batch.AddComparisonSweep(
      "nod-order",
      [](std::uint64_t seed) {
        gen::RandomTreeConfig cfg;
        cfg.internal_nodes = 3;
        cfg.clients = 7;
        cfg.max_children = 3;
        cfg.min_requests = 1;
        cfg.max_requests = 8;
        return Instance(gen::GenerateRandomTree(cfg, seed), /*capacity=*/8, kNoDistanceLimit);
      },
      {{"exact", runner::SolveWith(core::Algorithm::kExactSingle)},
       {"smallest", runner::SolveWith(core::Algorithm::kSingleNod)},
       {"largest", largest_first}},
      /*base_seed=*/41000, flags.seeds);

  // --- (ii) multiple-bin fill order ---------------------------------------
  const std::vector<Distance> dmax_values{Distance{12}, Distance{6}, Distance{3}};
  for (const Distance dmax : dmax_values) {
    batch.AddComparisonSweep(
        "fill/dmax=" + std::to_string(dmax),
        [dmax](std::uint64_t seed) {
          gen::BinaryTreeConfig cfg;
          cfg.clients = 60;
          cfg.min_requests = 1;
          cfg.max_requests = 10;
          cfg.min_edge = 1;
          cfg.max_edge = 3;
          return Instance(gen::GenerateFullBinaryTree(cfg, seed), /*capacity=*/10, dmax);
        },
        {{"paper", runner::SolveWith(core::Algorithm::kMultipleBin)},
         {"ablated", CustomSolve(Policy::kMultiple,
                                 [](const Instance& inst) {
                                   multiple::MultipleBinOptions ablated;
                                   ablated.fill = multiple::MultipleBinOptions::FillOrder::
                                       kLeastConstrainedFirst;
                                   return multiple::SolveMultipleBin(inst, ablated).solution;
                                 })}},
        /*base_seed=*/42000, flags.seeds);
  }

  const runner::BatchReport report = batch.Run();

  // --- (i) report ---------------------------------------------------------
  std::cout << "E9a: single-nod bundle order (paper: smallest-first)\n\n";
  Table nod_table({"workload", "smallest-first", "largest-first", "exact opt",
                   "smallest ratio", "largest ratio"});
  {
    // Fig. 4 family: the adversarial case for smallest-first (deterministic,
    // so computed directly rather than swept).
    const gen::TightnessFig4 fig = gen::BuildTightnessFig4(4);
    const auto smallest = single::SolveSingleNod(fig.instance);
    single::SingleNodOptions flipped;
    flipped.order = single::SingleNodOptions::BundleOrder::kLargestFirst;
    const auto largest = single::SolveSingleNod(fig.instance, flipped);
    RPT_CHECK(IsFeasible(fig.instance, Policy::kSingle, largest.solution));
    nod_table.NewRow()
        .Add("Fig4 K=4")
        .Add(std::uint64_t{smallest.solution.ReplicaCount()})
        .Add(std::uint64_t{largest.solution.ReplicaCount()})
        .Add(fig.optimal)
        .Add(static_cast<double>(smallest.solution.ReplicaCount()) /
                 static_cast<double>(fig.optimal),
             2)
        .Add(static_cast<double>(largest.solution.ReplicaCount()) /
                 static_cast<double>(fig.optimal),
             2);
  }
  {
    const runner::ComparisonReport* comparison = report.FindComparison("nod-order");
    const runner::GroupReport* exact = report.FindGroup("nod-order/exact");
    const runner::GroupReport* smallest = report.FindGroup("nod-order/smallest");
    const runner::GroupReport* largest = report.FindGroup("nod-order/largest");
    RPT_CHECK(comparison != nullptr && exact != nullptr && smallest != nullptr &&
              largest != nullptr);
    const runner::RatioStat* smallest_ratio = comparison->FindRatio("smallest");
    const runner::RatioStat* largest_ratio = comparison->FindRatio("largest");
    RPT_CHECK(smallest_ratio != nullptr && largest_ratio != nullptr);
    nod_table.NewRow()
        .Add("random mean")
        .Add(smallest->cost.Mean(), 2)
        .Add(largest->cost.Mean(), 2)
        .Add(exact->cost.Mean(), 2)
        .Add(smallest_ratio->ratio.Mean(), 3)
        .Add(largest_ratio->ratio.Mean(), 3);
  }
  nod_table.PrintAscii(std::cout);

  // --- (ii) report --------------------------------------------------------
  std::cout << "\nE9b: multiple-bin fill order (paper: most-constrained-first)\n\n";
  Table fill_table({"dmax", "optimal (paper order)", "ablated order", "mean excess",
                    "max excess", "still optimal"});
  for (const Distance dmax : dmax_values) {
    const std::string group = "fill/dmax=" + std::to_string(dmax);
    const runner::ComparisonReport* comparison = report.FindComparison(group);
    const runner::GroupReport* paper = report.FindGroup(group + "/paper");
    const runner::GroupReport* ablated = report.FindGroup(group + "/ablated");
    RPT_CHECK(comparison != nullptr && paper != nullptr && ablated != nullptr);
    const runner::RatioStat* excess = comparison->FindRatio("ablated");
    RPT_CHECK(excess != nullptr);
    RPT_CHECK(excess->wins == 0);  // the ablation never beats the paper order
    fill_table.NewRow()
        .Add(dmax)
        .Add(paper->cost.Mean(), 2)
        .Add(ablated->cost.Mean(), 2)
        .Add(excess->diff.Mean(), 2)
        .Add(excess->diff.Max(), 0)
        .Add(excess->ties);
  }
  fill_table.PrintAscii(std::cout);

  runner::WriteJsonIfRequested(cli, report, std::cout);
  if (const std::string csv = cli.GetString("csv"); !csv.empty()) fill_table.WriteCsvFile(csv);
  std::cout << "\nBoth ordering rules earn their keep: smallest-first is what the factor-2\n"
               "proof needs on general inputs, and most-constrained-first is what makes\n"
               "Algorithm 3 optimal once distance constraints bind.\n";
  return report.AllOk() ? 0 : 1;
}
