// paper-batch: the paper-reproduction path through runner::BatchRunner.
//
// A fixed grid of core::Run cells runs on 2 batch workers, pass after pass,
// for the whole window:
//   * single-gen (Algorithm 1) and multiple-bin (Algorithm 3) on a binary
//     tree with a binding distance bound dmax;
//   * single-nod (Algorithm 2), multiple-bin and multiple-nod-dp on NoD
//     binary trees of 8192 and 65536 clients;
//   * multiple-bin-pruned and multiple-nod-dp on a NoD binary tree of 1024
//     clients (flow-based pruning grows about quadratically: 0.08 s at 1024
//     clients, 6.8 s at 8192, so larger trees would dwarf the grid).
// Each cell rebuilds its tree with TreeBuilder from columns generated in
// set-up (tree layer), runs the algorithm through core::Run (which also
// validates with ValidateSolution) and, for Multiple placements, re-checks
// the replica set with flow::MultipleFeasible. On NoD trees Algorithm 3 is
// optimal (Theorem 6), so its cost, and that of its pruned variant (pruning
// never raises cost), must equal the exact DP's.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "flow/assignment.hpp"
#include "gen/random_tree.hpp"
#include "report.hpp"
#include "runner/batch_runner.hpp"

namespace perfbench {

namespace {

using namespace rpt;

constexpr Requests kCapacity = 40;
constexpr std::size_t kWorkers = 2;

/// A generated tree kept as columns, so cells can rebuild it (ids ascend
/// from parent to child in the generator, which TreeBuilder needs).
struct TreeSpec {
  std::string name;
  Distance dmax = kNoDistanceLimit;
  std::vector<NodeId> parent;
  std::vector<Distance> delta;
  std::vector<Requests> requests;
  std::vector<char> is_client;
};

TreeSpec MakeSpec(std::string name, std::uint32_t clients, Distance max_edge, Distance dmax,
                  std::uint64_t seed) {
  gen::BinaryTreeConfig config;
  config.clients = clients;
  config.min_edge = 1;
  config.max_edge = max_edge;
  config.min_requests = 1;
  config.max_requests = 10;
  config.balanced = true;  // shallow, similar shapes: the grid's work varies little by seed
  const Tree tree = gen::GenerateFullBinaryTree(config, seed);
  TreeSpec spec;
  spec.name = std::move(name);
  spec.dmax = dmax;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    spec.parent.push_back(id == tree.Root() ? kInvalidNode : tree.Parent(id));
    spec.delta.push_back(id == tree.Root() ? 0 : tree.DistToParent(id));
    spec.requests.push_back(tree.RequestsOf(id));
    spec.is_client.push_back(tree.IsClient(id) ? 1 : 0);
  }
  return spec;
}

Tree Rebuild(const TreeSpec& spec) {
  TreeBuilder builder;
  builder.Reserve(spec.parent.size());
  for (NodeId id = 0; id < spec.parent.size(); ++id) {
    NodeId added = kInvalidNode;
    if (id == 0) {
      added = builder.AddRoot();
    } else if (spec.is_client[id]) {
      added = builder.AddClient(spec.parent[id], spec.delta[id], spec.requests[id]);
    } else {
      added = builder.AddInternal(spec.parent[id], spec.delta[id]);
    }
    if (added != id) throw std::runtime_error("perfbench: tree columns are not parent-first");
  }
  return builder.Build();
}

/// The layer names of the per-algorithm solver spans and metrics.
const char* SolverLayer(core::Algorithm algorithm) {
  switch (algorithm) {
    case core::Algorithm::kSingleGen: return "single.gen";
    case core::Algorithm::kSingleNod: return "single.nod";
    case core::Algorithm::kMultipleBin: return "multiple.bin";
    case core::Algorithm::kMultipleBinPruned: return "multiple.bin_pruned";
    case core::Algorithm::kMultipleNodDp: return "multiple.nod_dp";
    default: return "other";
  }
}

struct GridCell {
  const TreeSpec* spec;
  core::Algorithm algorithm;
};

/// What one executed cell measured; written by the batch worker that ran it.
struct CellRecord {
  std::uint64_t span = 0;  // the traced run's "cell" span, parent of the rest
  Clock::time_point start;
  double build_ms = 0.0;
  double solve_ms = 0.0;     // core::Run's own elapsed_ms
  double validate_ms = 0.0;  // the rest of the core::Run call: ValidateSolution
  double flow_ms = 0.0;
  bool flow_checked = false;
  bool flow_ok = true;
};

}  // namespace

Outcome RunPaperBatch(const RunConfig& config, Tracer& tracer) {
  Outcome outcome;

  // ---- Set-up, repeated: generate the grid's trees (gen).
  std::vector<double> setup_s;
  std::vector<TreeSpec> specs;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    specs.clear();
    const SetupPin pin(repeat);
    const auto start = Clock::now();
    specs.push_back(MakeSpec("bin8192-dmax", 8192, 4, 12, config.seed));
    specs.push_back(MakeSpec("nod8192", 8192, 4, kNoDistanceLimit, config.seed + 1));
    specs.push_back(MakeSpec("nod65536", 65536, 4, kNoDistanceLimit, config.seed + 2));
    specs.push_back(MakeSpec("nod1024", 1024, 4, kNoDistanceLimit, config.seed + 3));
    setup_s.push_back(Ms(start, Clock::now()) / 1000.0);
  }
  // Largest cells first: the runner deals cells out round-robin and steals
  // from the back, so a pass ends soon after its largest cell instead of at
  // a wall time that jumps with the order cells happened to be stolen in.
  std::vector<GridCell> grid;
  for (const TreeSpec* nod : {&specs[2], &specs[1]}) {
    for (const core::Algorithm algorithm : {core::Algorithm::kMultipleNodDp,
                                            core::Algorithm::kMultipleBin,
                                            core::Algorithm::kSingleNod}) {
      grid.push_back({nod, algorithm});
    }
    if (nod == &specs[2]) grid.push_back({&specs[3], core::Algorithm::kMultipleBinPruned});
  }
  grid.push_back({&specs[0], core::Algorithm::kMultipleBin});
  grid.push_back({&specs[0], core::Algorithm::kSingleGen});
  grid.push_back({&specs[3], core::Algorithm::kMultipleNodDp});
  std::printf("grid: %zu cells per pass on %zu batch workers, W=%llu: ", grid.size(), kWorkers,
              static_cast<unsigned long long>(kCapacity));
  for (const GridCell& cell : grid) {
    std::printf("%s/%s ", cell.spec->name.c_str(),
                std::string(core::AlgorithmName(cell.algorithm)).c_str());
  }
  std::printf("\n");

  // ---- The timed window: whole passes over the grid.
  std::vector<double> pass_wall_ms;
  std::map<std::string, std::vector<double>> per_pass;  // layer -> per-pass sum (ms)
  std::vector<double> busy_ms;
  const auto window_start = Clock::now();
  do {
    const std::uint64_t pass = pass_wall_ms.size();
    std::vector<CellRecord> records(grid.size());
    runner::BatchRunner batch(runner::BatchOptions{kWorkers});
    for (std::size_t c = 0; c < grid.size(); ++c) {
      const GridCell cell = grid[c];
      CellRecord* record = &records[c];
      const std::uint64_t op = pass * grid.size() + c + 1;
      record->span = tracer.Enabled() ? tracer.NewId() : 0;
      runner::Cell spec;
      spec.group = cell.spec->name + "/" + std::string(core::AlgorithmName(cell.algorithm));
      spec.make_instance = [&tracer, cell, record, op](std::uint64_t) {
        Span span(tracer, "tree.build", record->span, op);
        record->start = Clock::now();
        Instance instance(Rebuild(*cell.spec), kCapacity, cell.spec->dmax);
        record->build_ms = Ms(record->start, Clock::now());
        return instance;
      };
      spec.solve = [&tracer, cell, record, op](const Instance& instance) {
        const auto start = Clock::now();
        core::RunResult result = core::Run(cell.algorithm, instance);
        const auto end = Clock::now();
        record->solve_ms = result.elapsed_ms;
        record->validate_ms = Ms(start, end) - result.elapsed_ms;
        if (tracer.Enabled()) {
          // core::Run times its solver and then validates; the split point
          // is its own elapsed_ms.
          const auto split = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double, std::milli>(
                                             result.elapsed_ms));
          tracer.Record(SolverLayer(cell.algorithm), start, split, tracer.NewId(), record->span,
                        op);
          tracer.Record("model.validate", split, end, tracer.NewId(), record->span, op);
        }
        if (result.feasible && core::AlgorithmPolicy(cell.algorithm) == Policy::kMultiple) {
          Span span(tracer, "flow.feasible", record->span, op);
          const auto flow_start = Clock::now();
          record->flow_checked = true;
          record->flow_ok = flow::MultipleFeasible(instance, result.solution.replicas);
          record->flow_ms = Ms(flow_start, Clock::now());
        }
        if (record->span != 0) {
          tracer.Record("cell", record->start, Clock::now(), record->span, 0, op);
        }
        return result;
      };
      batch.Add(std::move(spec));
    }
    const auto start = Clock::now();
    (void)batch.Run();
    pass_wall_ms.push_back(Ms(start, Clock::now()));

    // Checks: every cell ran, produced a valid placement, and Multiple
    // replica sets route under max-flow; Theorem 6 on the NoD trees.
    const std::vector<runner::CellResult>& results = batch.Results();
    std::map<const TreeSpec*, std::map<core::Algorithm, std::uint64_t>> costs;
    double busy = 0.0;
    for (std::size_t c = 0; c < grid.size(); ++c) {
      const runner::CellResult& result = results[c];
      const CellRecord& record = records[c];
      outcome.attempted += 1;
      if (!result.ok) {
        ++outcome.failed;
        std::printf("cell %s failed: %s\n", result.group.c_str(), result.error.c_str());
        continue;
      }
      if (!result.feasible || !result.validation_ok) {
        outcome.Wrong(result.group + ": no valid placement");
      }
      if (record.flow_checked && !record.flow_ok) {
        outcome.Wrong(result.group + ": replica set fails flow::MultipleFeasible");
      }
      costs[grid[c].spec][grid[c].algorithm] = result.cost;
      per_pass["tree.build_ms"].resize(pass + 1);
      per_pass["tree.build_ms"][pass] += record.build_ms;
      const std::string solver = std::string(SolverLayer(grid[c].algorithm)) + "_ms";
      per_pass[solver].resize(pass + 1);
      per_pass[solver][pass] += record.solve_ms;
      per_pass["model.validate_ms"].resize(pass + 1);
      per_pass["model.validate_ms"][pass] += record.validate_ms;
      per_pass["flow.feasible_ms"].resize(pass + 1);
      per_pass["flow.feasible_ms"][pass] += record.flow_ms;
      busy += record.build_ms + record.solve_ms + record.validate_ms + record.flow_ms;
    }
    busy_ms.push_back(busy);
    for (const auto& [tree, by_algorithm] : costs) {
      const auto dp = by_algorithm.find(core::Algorithm::kMultipleNodDp);
      if (dp == by_algorithm.end()) continue;
      for (const core::Algorithm algorithm :
           {core::Algorithm::kMultipleBin, core::Algorithm::kMultipleBinPruned}) {
        const auto it = by_algorithm.find(algorithm);
        if (it != by_algorithm.end() && it->second != dp->second) {
          outcome.Wrong(tree->name + ": " + std::string(core::AlgorithmName(algorithm)) +
                        " cost " + std::to_string(it->second) + " != multiple-nod-dp cost " +
                        std::to_string(dp->second));
        }
      }
    }
  } while (Ms(window_start, Clock::now()) < config.seconds * 1000.0);

  double wall_ms = 0.0, all_busy_ms = 0.0;
  for (std::size_t p = 0; p < pass_wall_ms.size(); ++p) {
    wall_ms += pass_wall_ms[p];
    all_busy_ms += busy_ms[p];
  }
  std::printf("window: %zu passes, %llu cells, %.3f s inside BatchRunner::Run\n",
              pass_wall_ms.size(), static_cast<unsigned long long>(outcome.attempted),
              wall_ms / 1000.0);

  // Rates per pass, reported at the quiet quartile (README.md). The
  // operation of the end-to-end metrics is one pass over the grid: the
  // cells differ in size, so a percentile over cells would jump between
  // cells whenever two swap ranks.
  std::vector<double> pass_rates;
  for (const double pass_ms : pass_wall_ms) pass_rates.push_back(1000.0 / pass_ms);
  const double passes_per_s = Quantile(pass_rates, kQuietRate);
  outcome.figures["cells_per_s"] = passes_per_s * static_cast<double>(grid.size());
  auto& e2e = outcome.end_to_end;
  e2e["setup_s"] = Quantile(setup_s, 0.5);
  e2e["ops_per_s"] = passes_per_s;
  e2e["op_p50_ms"] = Quantile(pass_wall_ms, 0.5);
  e2e["op_p90_ms"] = Quantile(pass_wall_ms, 0.9);
  std::printf("whole window: %.3f cells/s\n",
              static_cast<double>(outcome.attempted) / (wall_ms / 1000.0));

  auto& layer = outcome.layer;
  for (const auto& [name, sums] : per_pass) layer[name] = Quantile(sums, 0.5);
  layer["runner.busy_frac"] = all_busy_ms / (wall_ms * static_cast<double>(kWorkers));
  if (tracer.Enabled()) {
    double layers_ms = 0.0;
    for (const auto& [name, sums] : per_pass) layers_ms += layer[name];
    const double median_wall = Quantile(pass_wall_ms, 0.5);
    std::printf("closure: per pass (medians) the cell layers sum to %.3f ms of busy time over "
                "%.3f ms wall x %zu workers; runner.busy_frac %.3f (the rest is scheduling and "
                "the imbalance of the last cells)\n",
                layers_ms, median_wall, kWorkers, layer["runner.busy_frac"]);
  }

  e2e["peak_rss_mib"] = PeakRssMib();
  std::printf("figures:\n");
  PrintSample("cells_per_s", outcome.figures["cells_per_s"], "1/s", outcome.attempted);
  PrintEndToEnd(outcome, "a BatchRunner::Run pass over the grid", setup_s.size(),
                pass_wall_ms.size());
  return outcome;
}

}  // namespace perfbench
