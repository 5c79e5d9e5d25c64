#include "shard/worker.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/cli.hpp"
#include "support/failpoint.hpp"
#include "tree/serialize.hpp"

namespace rpt::shard {

CutSolve SolveCut(NodeId cut, SubtreeSlice slice, Requests capacity) {
  // The failpoint sits before any engine work so an armed crash models a
  // worker dying mid-solve with nothing exported.
  fail::Hit(kWorkerCrashPoint);
  CutSolve solve;
  solve.cut = cut;
  solve.slice = std::make_unique<SubtreeSlice>(std::move(slice));
  solve.engine = std::make_unique<multiple::NodDpEngine>(solve.slice->tree, capacity);
  solve.engine->ComputeAll();
  return solve;
}

BoundaryTable ExportTable(const CutSolve& solve) {
  const multiple::NodDpEngine& engine = *solve.engine;
  BoundaryTable table;
  table.cut = solve.cut;
  table.demand = engine.TotalDemand();
  table.subtree_nodes = static_cast<std::uint32_t>(solve.slice->tree.Size());
  table.table_entries = engine.Work().table_entries;
  table.convolve_cells = engine.Work().convolve_cells;
  table.inv = engine.TableOf(solve.slice->tree.Root());  // vmin = 0: F(demand) = 0
  return table;
}

SolutionFragment ExtractFragment(CutSolve& solve, std::uint64_t budget) {
  auto backtrack = solve.engine->BacktrackWithBudget(static_cast<std::size_t>(budget));
  SolutionFragment fragment;
  fragment.cut = solve.cut;
  fragment.budget = budget;
  fragment.solution = std::move(backtrack.solution);
  fragment.forwarded = std::move(backtrack.forwarded);
  return fragment;
}

namespace {

struct ManifestEntry {
  NodeId cut = kInvalidNode;
  std::string slice_path;
};

struct Manifest {
  Requests capacity = 0;
  std::vector<ManifestEntry> cuts;
};

Manifest ReadManifest(const std::string& path) {
  std::ifstream is(path);
  RPT_REQUIRE(is.good(), "shard worker: cannot open manifest: " + path);
  Manifest manifest;
  std::string header;
  std::getline(is, header);
  RPT_REQUIRE(header == "rpt-shard-manifest v1",
              "shard worker: bad manifest header: " + header);
  std::string key;
  while (is >> key) {
    if (key == "capacity") {
      RPT_REQUIRE(static_cast<bool>(is >> manifest.capacity),
                  "shard worker: malformed capacity line");
    } else if (key == "cut") {
      ManifestEntry entry;
      RPT_REQUIRE(static_cast<bool>(is >> entry.cut >> entry.slice_path),
                  "shard worker: malformed cut line");
      manifest.cuts.push_back(std::move(entry));
    } else {
      throw InvalidArgument("shard worker: unknown manifest key: " + key);
    }
  }
  RPT_REQUIRE(manifest.capacity > 0, "shard worker: manifest needs a positive capacity");
  RPT_REQUIRE(!manifest.cuts.empty(), "shard worker: manifest lists no cuts");
  return manifest;
}

std::vector<std::pair<NodeId, std::uint64_t>> ReadBudgets(const std::string& path) {
  std::ifstream is(path);
  RPT_REQUIRE(is.good(), "shard worker: cannot open budgets: " + path);
  std::string header;
  std::getline(is, header);
  RPT_REQUIRE(header == "rpt-shard-budgets v1", "shard worker: bad budgets header: " + header);
  std::vector<std::pair<NodeId, std::uint64_t>> budgets;
  std::string key;
  while (is >> key) {
    RPT_REQUIRE(key == "budget", "shard worker: unknown budgets key: " + key);
    NodeId cut = kInvalidNode;
    std::uint64_t amount = 0;
    RPT_REQUIRE(static_cast<bool>(is >> cut >> amount), "shard worker: malformed budget line");
    budgets.emplace_back(cut, amount);
  }
  return budgets;
}

SubtreeSlice ReadSlice(const std::string& path) {
  std::ifstream is(path);
  RPT_REQUIRE(is.good(), "shard worker: cannot open slice: " + path);
  // The worker never maps ids itself (fragments ship local ids); to_global
  // stays empty on this side of the wire.
  return SubtreeSlice{ReadTree(is), {}};
}

}  // namespace

int ShardWorkerMain(int argc, const char* const* argv) {
  try {
    RPT_REQUIRE(argc >= 2 && std::string(argv[1]) == kWorkerFlag,
                "shard worker: expected --rpt-shard-worker as the first argument");
    Cli cli("rpt-shard-worker", "shard worker subprocess (driven by the rpt-shard coordinator)");
    cli.AddString("phase", "solve", "worker phase: solve | extract");
    cli.AddString("manifest", "", "per-shard manifest path");
    cli.AddString("budgets", "", "per-cut budgets path (extract phase)");
    cli.AddString("out", "", "output rpt-btab path");
    cli.AddInt("crash-at-cut", 0, "arm shard.worker.crash (real _Exit) before the Nth cut");
    // Shift past argv[1]: the sentinel is routing, not a flag.
    std::vector<const char*> args;
    args.push_back(argv[0]);
    for (int i = 2; i < argc; ++i) args.push_back(argv[i]);
    if (!cli.Parse(static_cast<int>(args.size()), args.data())) return 0;

    const std::string phase = cli.GetString("phase");
    const std::string out_path = cli.GetString("out");
    RPT_REQUIRE(!out_path.empty(), "shard worker: --out is required");
    const std::uint64_t crash_at = cli.GetUint("crash-at-cut");
    if (crash_at > 0) fail::Arm(kWorkerCrashPoint, fail::Action::kCrash, crash_at);

    const Manifest manifest = ReadManifest(cli.GetString("manifest"));
    BtabFile btab;
    if (phase == "solve") {
      for (const ManifestEntry& entry : manifest.cuts) {
        CutSolve solve = SolveCut(entry.cut, ReadSlice(entry.slice_path), manifest.capacity);
        btab.tables.push_back(ExportTable(solve));
      }
    } else if (phase == "extract") {
      const auto budgets = ReadBudgets(cli.GetString("budgets"));
      RPT_REQUIRE(budgets.size() == manifest.cuts.size(),
                  "shard worker: budgets do not cover the manifest");
      for (std::size_t i = 0; i < manifest.cuts.size(); ++i) {
        const ManifestEntry& entry = manifest.cuts[i];
        RPT_REQUIRE(budgets[i].first == entry.cut,
                    "shard worker: budget order does not match the manifest");
        // A subprocess extract re-solves the slice: the honest distributed
        // cost (phase-1 tables died with the phase-1 process). The in-process
        // mode keeps engines hot instead.
        CutSolve solve = SolveCut(entry.cut, ReadSlice(entry.slice_path), manifest.capacity);
        btab.fragments.push_back(ExtractFragment(solve, budgets[i].second));
      }
    } else {
      throw InvalidArgument("shard worker: unknown phase: " + phase);
    }
    WriteBtabFile(out_path, btab);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rpt-shard-worker: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rpt::shard
