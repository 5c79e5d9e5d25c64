// rpt-shard coordinator: the sharded Multiple-NoD solve, end to end.
//
//   plan     PlanShards cuts the megatree into k forests (plan.hpp);
//   solve    each shard solves its cut subtrees and ships boundary tables
//            (rpt-btab v1 — the bytes are the seam even in-process);
//   merge    the coordinator builds the *spine* (every node not strictly
//            below a cut; each cut reappears as a client leaf carrying its
//            subtree demand), imports the tables, and runs the normal DP —
//            every spine table is byte-identical to the unsharded engine's;
//   budgets  AssignImportedBudgets walks the root-down budget split (the
//            same table arithmetic Backtrack uses) to each cut;
//   extract  each shard reconstructs its subtrees at the assigned budgets
//            and ships solution fragments;
//   splice   the spine backtrack replays each fragment's forwarded pending
//            list in chain order, fragment solutions are remapped to
//            megatree ids, and the combined solution is canonicalized.
//
// The result is byte-identical — cost AND canonical solution — to
// SolveMultipleNodDp on the same instance, at any shard count
// (tests/test_shard.cpp pins the full oracle matrix).
//
// Dispatch runs either in-process (each "worker" is a function call; the
// mode of the oracle tests) or as subprocesses: the coordinator re-execs
// `worker_argv0 --rpt-shard-worker ...` per shard, exchanging slice files
// (rpt-tree v1) and btab files through work_dir. Subprocess workers own
// their DP tables in their own address spaces — per-shard peak RSS covers
// one forest, not the megatree, which is the whole point (bench_shard
// measures it via wait4 rusage).
//
// Worker failures are loud and recoverable: a shard that dies (failpoint
// `shard.worker.crash`, a non-zero exit, a missing or corrupt btab) is
// recorded in ShardedSolveResult::failures and re-dispatched up to
// max_attempts times; exhausting the attempts throws InternalError naming
// the shard. The in-process dispatch boundary catches every exception —
// including fail::InjectedFault, which nothing in the *library* catches;
// the dispatcher is the emulated process boundary, where a worker death of
// any shape collapses to "no boundary table arrived".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/instance.hpp"
#include "model/solution.hpp"
#include "shard/plan.hpp"

namespace rpt::shard {

/// Coordinator knobs.
struct ShardOptions {
  // Planner (see PlanOptions).
  std::uint32_t shards = 2;
  double max_imbalance = 0.25;
  std::uint32_t max_cuts = 4096;

  /// Dispatch attempts per shard per phase (>= 1): a failed shard worker is
  /// re-dispatched until this many attempts are exhausted, then the solve
  /// throws InternalError naming the shard.
  std::uint32_t max_attempts = 1;

  enum class Dispatch : std::uint8_t {
    kInProcess,   ///< workers are function calls (bytes still cross the codec)
    kSubprocess,  ///< workers are re-exec'd processes exchanging files
  };
  Dispatch dispatch = Dispatch::kInProcess;

  /// Subprocess mode: directory for slice/manifest/btab exchange (created if
  /// missing) and the binary to re-exec with --rpt-shard-worker (typically
  /// the coordinator's own argv[0]).
  std::string work_dir;
  std::string worker_argv0;
  /// Unread: workers always solve serially. Kept only because the repo
  /// benchmark (perfbench/src/shard_workload.cpp) still sets it; it goes
  /// when src/shard/ is retired.
  std::uint32_t worker_threads = 1;

  /// Subprocess fault injection (bench_smoke's worker-kill leg): when > 0,
  /// the first solve-phase dispatch of shard `crash_shard` gets
  /// --crash-at-cut=N, arming a real _Exit(137) inside that worker.
  std::uint64_t crash_at_cut = 0;
  std::uint32_t crash_shard = 0;
};

/// One recovered-from (or fatal) worker failure, in occurrence order.
struct ShardFailure {
  std::uint32_t shard = 0;
  std::uint32_t attempt = 0;  ///< 1-based attempt that failed
  std::string phase;          ///< "solve" or "extract"
  std::string error;
};

/// Merge/footprint counters of one sharded solve.
struct ShardStats {
  std::uint32_t shard_count = 0;  ///< shards actually used (0 = local fallback)
  std::uint32_t cut_count = 0;
  std::uint32_t spine_nodes = 0;
  std::uint64_t boundary_bytes = 0;        ///< btab bytes shipped, both phases
  std::uint64_t worker_table_entries = 0;  ///< summed across shipped tables
  std::uint64_t worker_convolve_cells = 0;
  std::uint64_t spine_table_entries = 0;   ///< the coordinator's own DP work
  std::uint64_t max_worker_rss_kb = 0;     ///< subprocess mode only (wait4)
};

/// Outcome of a sharded solve.
struct ShardedSolveResult {
  bool feasible = false;
  Solution solution;  ///< canonical, megatree ids; empty when infeasible
  ShardStats stats;
  std::vector<ShardFailure> failures;  ///< every worker failure seen (loud)
};

/// Runs the sharded solve. Requires a NoD instance (no distance constraint).
/// Deterministic in (instance, options); byte-identical to
/// SolveMultipleNodDp in cost and canonical solution. A tree with no
/// cuttable subtree (e.g. a star) falls back to the local unsharded solve
/// with stats.shard_count == 0.
[[nodiscard]] ShardedSolveResult SolveSharded(const Instance& instance,
                                              const ShardOptions& options);

}  // namespace rpt::shard
