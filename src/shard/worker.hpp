// Shard worker: solves the cut subtrees assigned to one shard and exports
// boundary tables / solution fragments in the rpt-btab v1 format.
//
// Two driving modes share the same per-cut core:
//  * in-process — the coordinator calls SolveCut/ExportTable/ExtractFragment
//    directly and keeps engines hot between the phases (the oracle tests'
//    mode: deterministic, no fork, still round-trips every byte through the
//    wire codec);
//  * subprocess — ShardWorkerMain() is re-exec'd by the coordinator as
//    `<binary> --rpt-shard-worker --phase=... --manifest=... --out=...`,
//    reads slice files (rpt-tree v1 text), solves with its OWN engines and
//    arenas in its own address space — the whole point of sharding: each
//    worker's peak RSS covers only its forest's DP tables — and writes one
//    btab file. Any failure exits non-zero after printing to stderr; the
//    coordinator treats a bad exit, a missing file, or a corrupt btab
//    identically (a dead shard) and re-dispatches.
//
// Fault injection: every per-cut solve hits the `shard.worker.crash`
// failpoint (support/failpoint.hpp) before touching the engine; arming it
// with kThrow kills an in-process worker (the coordinator's dispatch
// boundary catches everything, playing the process boundary), arming kCrash
// via --crash-at-cut kills a real subprocess with exit 137.
#pragma once

#include <cstdint>
#include <memory>

#include "multiple/nod_dp_engine.hpp"
#include "shard/boundary_table.hpp"
#include "tree/tree.hpp"

namespace rpt::shard {

/// Failpoint hit once per cut subtree, before its solve (see header).
inline constexpr char kWorkerCrashPoint[] = "shard.worker.crash";

/// argv[1] sentinel: a coordinator re-execs its own binary with this flag to
/// enter worker mode (main() must route to ShardWorkerMain; see rpt_shard).
inline constexpr char kWorkerFlag[] = "--rpt-shard-worker";

/// One solved cut subtree: the slice, the live engine (tables hot for
/// fragment extraction), and the cut's megatree id. Heap-held so the engine's
/// view pointer into the slice tree stays stable across moves.
struct CutSolve {
  NodeId cut = kInvalidNode;
  std::unique_ptr<SubtreeSlice> slice;
  std::unique_ptr<multiple::NodDpEngine> engine;
};

/// Solves one cut subtree (full forward pass over the slice). Hits the
/// shard.worker.crash failpoint first.
[[nodiscard]] CutSolve SolveCut(NodeId cut, SubtreeSlice slice, Requests capacity);

/// Exports the solved cut's boundary table: the slice root's F staircase
/// (byte-identical to the same node's table in an unsharded engine, by the
/// DP's subtree locality) plus worker-side work counters.
[[nodiscard]] BoundaryTable ExportTable(const CutSolve& solve);

/// Reconstructs the cut subtree's solution at the coordinator-assigned
/// budget. Ids are LOCAL slice ids; the forwarded list preserves chain order.
[[nodiscard]] SolutionFragment ExtractFragment(CutSolve& solve, std::uint64_t budget);

/// Subprocess entry point (argv[1] == kWorkerFlag). Flags:
///   --phase=solve|extract   --manifest=PATH  --out=PATH
///   --budgets=PATH (extract)  --crash-at-cut=N (arm kCrash before cut N)
/// Returns 0 on success; prints the error and returns 1 otherwise.
int ShardWorkerMain(int argc, const char* const* argv);

}  // namespace rpt::shard
