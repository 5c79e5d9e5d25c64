// IncrementalSolver — re-solving a placement against a stream of demand,
// capacity, and topology updates without re-optimizing the world per event.
//
// The batch solvers answer "given this instance, where do replicas go?".
// Streaming workloads ask a different question: the instance barely changes
// between consecutive solves, so how much of the previous solve survives?
// For the Multiple-NoD DP the answer is structural: node j's tables depend
// only on subtree(j), so a demand change at client i invalidates exactly the
// root path of i — and a topology change (attach/detach/migrate) invalidates
// exactly the root paths of the old and new attachment points. The solver
// owns a long-lived NodDpEngine (topology view + DP tables + prefix tables),
// applies each UpdateEvent batch, and re-runs the forward pass on the union
// of dirty root chains — every untouched subtree's tables are reused
// verbatim.
//
// Topology: the solver starts on the instance's immutable CSR Tree. The
// first batch containing a topology event promotes it to a private
// TreeOverlay (tree/tree_overlay.hpp) — a delta view with appended ids and
// tombstones — and every later state lives there. Batches with topology
// events commit via clone-and-swap: all events apply in order to a clone of
// the overlay, so a throwing event discards the clone and leaves the solver
// untouched (the same atomicity the demand-only path gets from its dry-run).
// View() exposes the current topology; ids are stable for the solver's
// lifetime (attach appends fresh ids, detach tombstones forever).
//
// Guarantees:
//  * Equivalence — after every Apply() the solution is byte-identical
//    (canonical form, cost, and hash) to a from-scratch solve of the
//    current state: construct a second solver with Engine::kFullResolve
//    (which compacts the overlay through TreeBuilder::Build and maps the
//    solution back to view ids) and compare. Enforced by
//    tests/test_incremental.cpp at solver-pool widths 1 and 4.
//  * Determinism — solutions and all stats except wall time are identical
//    at any thread count (the engine's sweeps are deterministic).
//  * Atomicity — Apply() validates the whole batch against the current
//    state before committing anything; on InvalidArgument the solver state
//    is unchanged.
//
// Policies: Policy::kMultiple runs the incremental DP (or its from-scratch
// oracle under Engine::kFullResolve). Policy::kSingle runs the batch
// single-nod pass (single/single_nod.hpp) over the current view after every
// batch, under either engine: one O(n) pass, with no per-node state kept
// between batches. Both policies require a NoD instance (no distance
// constraint).
//
// Ownership/lifetime: the solver keeps a reference to the instance's Tree
// (the overlay base); the Instance passed to the constructor must outlive
// the solver. Not thread-safe: one solver per thread of control.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "incremental/update_event.hpp"
#include "model/instance.hpp"
#include "model/solution.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "tree/topology_view.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt::incremental {

/// Cumulative counters over a solver's lifetime. Everything here is
/// deterministic (thread-count invariant); wall time is deliberately absent.
struct IncrementalStats {
  std::uint64_t events_applied = 0;   ///< events across all Apply() batches
  std::uint64_t topology_events = 0;  ///< attach/detach/migrate/link events among them
  std::uint64_t resolves = 0;         ///< Apply() batches processed (incl. the initial solve)
  std::uint64_t full_recomputes = 0;  ///< re-solves that processed every node
  std::uint64_t nodes_recomputed = 0; ///< DP nodes re-processed across all re-solves
  std::uint64_t nodes_reused = 0;     ///< DP nodes whose tables were reused verbatim
};

/// Execution options for IncrementalSolver.
struct SolverOptions {
  Engine engine = Engine::kIncremental;
  Policy policy = Policy::kMultiple;
};

class IncrementalSolver {
 public:
  using Options = SolverOptions;

  /// Solves `instance` from scratch (the warm state every later Apply()
  /// updates). Requires no distance constraint; throws InvalidArgument
  /// otherwise. The instance must outlive the solver.
  explicit IncrementalSolver(const Instance& instance, Options options = {});

  /// Restore constructor (the crash-recovery path): seeds the solver from a
  /// previously exported overlay — see ExportOverlay() — instead of the
  /// base instance's own topology/demands. `base` supplies the overlay's
  /// base Tree (ids must match; the instance must outlive the solver) and
  /// `capacity` the current W, which may have diverged from the instance's
  /// via kCapacity events. Solves the restored state from scratch, so the
  /// DP tables are warm before the WAL tail replays.
  IncrementalSolver(const Instance& base, TreeOverlay restored,
                    Requests capacity, Options options = {});

  IncrementalSolver(const IncrementalSolver&) = delete;
  IncrementalSolver& operator=(const IncrementalSolver&) = delete;

  /// Applies one batch of events atomically (events within a batch apply in
  /// order; an InvalidArgument anywhere in the batch leaves the solver
  /// unchanged), then re-solves. Returns Feasible() for the new state — an
  /// infeasible state is not an error (e.g. a chain too short to absorb a
  /// giant demand); the next batch may make it feasible again.
  bool Apply(std::span<const UpdateEvent> events);

  /// True iff the current state admits a feasible placement.
  [[nodiscard]] bool Feasible() const noexcept { return feasible_; }

  /// The current optimal (Multiple) / 2-approx (Single) placement in view
  /// ids, canonical form; empty when infeasible.
  [[nodiscard]] const Solution& Current() const noexcept { return solution_; }

  /// The current topology: the base Tree until the first topology event,
  /// the solver's private overlay afterwards. Valid until the next Apply().
  [[nodiscard]] TopologyView View() const noexcept {
    return overlay_ ? TopologyView(*overlay_) : TopologyView(tree_);
  }
  /// True iff the topology has diverged from the base tree.
  [[nodiscard]] bool HasTopologyChanges() const noexcept {
    return overlay_ != nullptr && overlay_->TopologyVersion() > 0;
  }
  [[nodiscard]] Requests Capacity() const noexcept { return capacity_; }
  [[nodiscard]] Requests DemandOf(NodeId client) const;
  /// The whole per-node demand column (indexed by view NodeId; internal and
  /// dead entries 0) of the current state — the snapshot-export hook for the
  /// serve layer: a serve::PlacementSnapshot is built from exactly (View(),
  /// Capacity(), Demands(), Current()). Valid until the next Apply(); copy
  /// before publishing across threads (PlacementSnapshot::Build does).
  [[nodiscard]] std::span<const Requests> Demands() const noexcept { return demand_; }
  [[nodiscard]] Requests TotalDemand() const noexcept { return total_demand_; }
  [[nodiscard]] const IncrementalStats& Stats() const noexcept { return stats_; }
  [[nodiscard]] const Options& GetOptions() const noexcept { return options_; }

  /// Snapshot of the current (topology, demands, capacity) state as a
  /// standalone Instance plus the id translation into it. With no topology
  /// changes the map is the identity and the tree is Tree::WithRequests;
  /// after topology events the overlay is compacted through
  /// TreeBuilder::Build (remap[view_id] == instance id, kInvalidNode for
  /// tombstones). This is exactly what the kFullResolve oracle solves.
  struct Materialized {
    Instance instance;
    std::vector<NodeId> remap;
  };
  [[nodiscard]] Materialized MaterializeCompact() const;

  /// MaterializeCompact().instance — kept for callers that only need the
  /// instance (note the ids are compacted ids once topology has changed).
  [[nodiscard]] Instance MaterializeInstance() const;

  /// Self-contained copy of the current (topology, demand) state keyed by
  /// VIEW ids — tombstones and appended slots preserved, so later events
  /// recorded against these ids replay unchanged against a solver rebuilt
  /// via the restore constructor. This is what a serve-layer checkpoint
  /// persists (capacity travels separately). O(|view|).
  [[nodiscard]] TreeOverlay ExportOverlay() const;

 private:
  /// Promotes the base tree to a fresh overlay with the live demand column
  /// mirrored in (demand-only batches may have diverged demand_ from the
  /// base tree's construction-time requests).
  [[nodiscard]] std::unique_ptr<TreeOverlay> PromoteBaseOverlay() const;
  void Validate(std::span<const UpdateEvent> events) const;
  bool ApplyTopologyBatch(std::span<const UpdateEvent> events);
  void Resolve(std::span<const NodeId> touched, bool capacity_changed);

  const Tree& tree_;
  /// Engaged by the first topology event; once set, never reset (View()
  /// binds to it). Clone-and-swapped by every later topology batch.
  std::unique_ptr<TreeOverlay> overlay_;
  Options options_;
  Requests capacity_;
  std::vector<Requests> demand_;  // source of truth, mirrored into the engine
  Requests total_demand_ = 0;
  /// Long-lived DP tables; engaged only for (kMultiple, kIncremental) — the
  /// full-resolve oracle and the Single pass keep no state between batches,
  /// so they skip the engine's O(n) columns entirely.
  std::optional<multiple::NodDpEngine> engine_;
  Solution solution_;
  bool feasible_ = false;
  IncrementalStats stats_;
  std::vector<NodeId> touched_scratch_;  // reused per Apply()
};

}  // namespace rpt::incremental
