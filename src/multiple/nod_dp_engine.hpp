// Reusable core of the Multiple-NoD tree-knapsack DP, shared by batch
// solves (SolveMultipleNodDp), the incremental re-solve engine
// (src/incremental/) and the sharded solve (src/shard/).
//
// F_j(u) = min replicas in subtree(j) such that at most u requests are
// forwarded above j. Every F table and every prefix table G_i (the min-plus
// product of the first i children's F tables) is convex in the cost domain,
// so the engine never materializes a table over the demand domain. It
// stores each one as its inverse staircase (an InvTable): inv[c] = the
// smallest forwarded amount u with F(u) <= c, for c = 0..len, where inv[0]
// is the subtree demand and inv strictly decreases. Equivalently inv is the
// demand minus the prefix sums of a non-increasing list of positive slopes.
// With that form (proofs in docs/ARCHITECTURE.md, "Multiple-NoD in the cost
// domain"):
//
//  * a client's table is the single slope min(r, W) (none when r = 0);
//  * a child merge is a linear merge of two slope lists;
//  * the node's own replica step inserts one slope W and clips the sum at
//    the subtree demand;
//  * a lookup F(u) is a binary search over inv.
//
// Table sizes therefore depend on replica counts only, never on demand
// magnitudes: the solver is strongly polynomial, O(sum of table lengths).
// Client tables are derived from the demand on demand and not stored; an
// internal node stores one block holding its prefixes G_2..G_k followed by
// its F (G_0 = {0} and G_1 = F of the first child are implicit).
//
// Two forward passes share every kernel, each one serial sweep with
// children before parents:
//
//  * ComputeAll()       — the full pass over the view's post-order. This is
//                         exactly what SolveMultipleNodDp runs.
//  * RecomputeDirty(S)  — the incremental pass: given the set S of touched
//                         client leaves, only the union of their root paths
//                         is re-processed (deepest first); every untouched
//                         subtree keeps its tables verbatim.
//                         At a dirty internal node the prefix chain is
//                         reused up to the first dirty child, so a change
//                         under the last child re-runs only the tail merges.
//
// Invariant: after either pass, every table equals what a from-scratch
// ComputeAll() over the current (demands, capacity) state would produce —
// recomputed nodes see identical inputs (their children's tables), and the
// DP itself is deterministic. This is what makes the
// incremental solver's solutions bit-identical to the batch oracle (asserted
// by tests/test_incremental.cpp). The tables and every reconstructed
// solution are also identical to the demand-domain DP they replace
// (tests/test_nod_dp_cost_domain.cpp sweeps the two against each other).
//
// Topology mutation: the engine runs over a TopologyView, so the same
// tables serve an immutable CSR Tree and a mutable TreeOverlay. After a
// batch of overlay mutations the owner calls ApplyTopology() with the lists
// of parents whose child sets changed and of removed node ids; the engine
// resizes its per-node state, refreshes demand mirrors, rebuilds the level
// buckets over live nodes, and marks the changed parents so the next
// incremental pass rebuilds their prefix chains from child 0 (a mid-list
// child removal shifts prefix indices; an append reuses the chain as-is).
// The key locality fact: F_j depends only on (subtree(j) demands, W) —
// never on depth, parent, or edge lengths — so a migration invalidates
// only the old and new parent chains while the migrated subtree's tables
// and fragments stay valid verbatim, and a link-capacity change dirties
// nothing at all.
//
// Ownership/lifetime: the engine stores a TopologyView by value; the
// backing Tree/TreeOverlay must outlive it and must not mutate except
// through the ApplyTopology protocol (demand lives in the engine's own
// overlay column, NOT in the view). Not thread-safe: one engine per thread
// of control.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/solution.hpp"
#include "tree/topology_view.hpp"

namespace rpt::multiple {

/// Counters describing the work and footprint of the DP passes run so far.
struct NodDpWork {
  /// Inverse-staircase entries (one Requests, 8 bytes, each) written to the
  /// stored F and prefix tables, plus imported boundary tables as their
  /// leaves are visited. Client tables are derived, not stored, and count
  /// nothing. After a single ComputeAll() this is the tables' footprint.
  std::uint64_t table_entries = 0;
  /// Slope-merge steps: one per output entry past the first of every child
  /// merge, the dominant arithmetic of the forward passes.
  std::uint64_t convolve_cells = 0;
  /// Nodes processed (a node re-processed by several passes counts each
  /// time).
  std::uint64_t nodes_processed = 0;
};

/// The Multiple-NoD DP state machine. Typical batch use:
///   NodDpEngine engine(tree, capacity);
///   engine.ComputeAll();
///   if (engine.Feasible()) Solution s = engine.Backtrack();
/// Incremental use replaces later ComputeAll() calls with SetDemand(...)
/// followed by one RecomputeDirty(touched) per update batch.
class NodDpEngine {
 public:
  using Cost = std::uint32_t;
  /// A convex F (or prefix) table as its inverse staircase: inv[c] = the
  /// smallest forwarded amount u with F(u) <= c, c = 0..len; inv[0] is the
  /// subtree demand and inv strictly decreases.
  using InvTable = std::vector<Requests>;

  /// Sentinel for "no feasible entry" in a cost table.
  static constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 2;

  /// F(u) of an inverse staircase: the smallest c with inv[c] <= u, or
  /// kInfCost when u is below the table's minimum forwarded amount.
  [[nodiscard]] static Cost CostAt(std::span<const Requests> inv, Requests u);

  /// Demands start as the view's client request column. `capacity` is the
  /// uniform server capacity W (> 0). The backing tree/overlay must outlive
  /// the engine. (TopologyView converts implicitly from `const Tree&` and
  /// `const TreeOverlay&`, so batch call sites pass the tree directly.)
  NodDpEngine(TopologyView view, Requests capacity);

  NodDpEngine(const NodDpEngine&) = delete;
  NodDpEngine& operator=(const NodDpEngine&) = delete;

  /// Full forward pass over every node. Must run once before Feasible() /
  /// Backtrack(); also the recovery path after SetCapacity (a capacity
  /// change invalidates every table, there is no partial recompute for it).
  void ComputeAll();

  /// Incremental forward pass: re-processes exactly the union of root paths
  /// of `touched` — client leaves whose demand changed via SetDemand, or
  /// (after ApplyTopology) any live node whose subtree membership changed.
  /// Requires a completed ComputeAll(). Touched ids may repeat; the dirty
  /// set is deduplicated internally.
  void RecomputeDirty(std::span<const NodeId> touched);

  /// Synchronizes the engine with a mutated topology. `view` is the view to
  /// bind from now on (typically the same overlay, rebound after cloning);
  /// `children_changed` lists live internal nodes whose child LIST changed
  /// other than by appending (detach/migrate-out parents) — their prefix
  /// chains are force-rebuilt on the next incremental pass; `removed` lists
  /// node ids tombstoned by the batch (their tables and fragments are
  /// dropped). Demand and subtree-demand mirrors are refreshed wholesale
  /// from the view. The caller must follow with RecomputeDirty() seeded by
  /// the event roots (or ComputeAll()) before querying results.
  void ApplyTopology(TopologyView view, std::span<const NodeId> children_changed,
                     std::span<const NodeId> removed);

  /// Updates one client's demand and the subtree totals on its root path.
  /// Tables are stale until the next RecomputeDirty()/ComputeAll() covering
  /// the client. `client` must be a leaf.
  void SetDemand(NodeId client, Requests demand);

  /// Changes the uniform capacity W (> 0). Every table becomes stale; the
  /// caller must run ComputeAll() before querying results again.
  void SetCapacity(Requests capacity);

  [[nodiscard]] TopologyView View() const noexcept { return view_; }
  [[nodiscard]] Requests Capacity() const noexcept { return capacity_; }
  [[nodiscard]] Requests DemandOf(NodeId node) const { return demand_[CheckNode(node)]; }
  [[nodiscard]] Requests SubtreeDemand(NodeId node) const {
    return subtree_demand_[CheckNode(node)];
  }
  [[nodiscard]] Requests TotalDemand() const noexcept { return subtree_demand_[0]; }

  /// True iff the current state admits a feasible Multiple-NoD placement
  /// (F_root(0) finite). Requires up-to-date tables.
  [[nodiscard]] bool Feasible() const;

  /// The F table of `node` in inverse form (a copy; client tables are
  /// derived on the fly). Exposed for the sharded solve's boundary-table
  /// export and for tests.
  [[nodiscard]] InvTable TableOf(NodeId node) const;

  /// Reconstructs an optimal placement + routing from the tables; requires
  /// Feasible(). The returned solution is canonicalized and identical to
  /// what SolveMultipleNodDp would return on the equivalent instance.
  ///
  /// Backtrack is incremental too: each clean subtree (not re-processed
  /// since the previous Backtrack) asked for the same forwarded budget
  /// replays its recorded solution fragment instead of recursing — valid
  /// because the reconstruction is a pure function of (subtree tables,
  /// budget), both unchanged. Recursion descends only into dirty chains and
  /// budget-shifted subtrees, so a low-churn re-solve rebuilds the solution
  /// in roughly O(|solution| + dirty work).
  [[nodiscard]] Solution Backtrack();

  // --- Sharded solve (src/shard/) -----------------------------------------
  //
  // The DP composes across a subtree cut: F_j depends only on (subtree(j)
  // demands, W), so a cut subtree solved elsewhere is fully represented at
  // the cut point by its F table. The coordinator builds a *spine* tree in
  // which each cut subtree collapses to one client leaf carrying the
  // subtree's demand, imports the shipped tables below, and runs the normal
  // passes — every spine table comes out identical to the same node's
  // table in the unsharded engine. Reconstruction splits in two: the budget
  // sweep (AssignImportedBudgets) tells each worker how much its subtree may
  // forward, and the final Backtrack() replays each worker's forwarded
  // pending list through the provider hook so upstream replicas absorb
  // requests exactly as the unsharded backtrack would.

  /// Installs the boundary table of the cut subtree behind `leaf` (a client
  /// leaf whose requests equal the subtree's demand), in the wire's inverse
  /// form: inv[c - vmin] = the smallest u with F(u) <= c. It must be a
  /// subtree root's F table — vmin = 0, inv[0] = the leaf's demand, strictly
  /// decreasing and convex (non-increasing slopes) — or the slope merges
  /// above it would be wrong; anything else throws InvalidArgument. Forward
  /// passes use it instead of the standard client table; tables become
  /// stale until the next ComputeAll().
  void ImportLeafTable(NodeId leaf, Cost vmin, InvTable inv);

  /// True iff `leaf` carries an imported boundary table.
  [[nodiscard]] bool IsImportedLeaf(NodeId leaf) const {
    return imported_.contains(CheckNode(leaf));
  }

  /// Budget assigned to one imported leaf by the downward budget sweep.
  struct ImportBudget {
    NodeId leaf = kInvalidNode;
    std::size_t budget = 0;  ///< requests the cut subtree may forward above its root
  };

  /// The downward half of a sharded reconstruction, without building any
  /// solution: walks budgets from the root (budget 0) through SplitBudget —
  /// the exact table arithmetic Backtrack() uses — and returns each imported
  /// leaf's clamped budget, ascending by leaf id. Requires Feasible().
  /// Because budgets are a pure function of the tables, the budget each
  /// worker solves against is identical to the budget the final Backtrack()
  /// asks of that leaf.
  [[nodiscard]] std::vector<ImportBudget> AssignImportedBudgets() const;

  /// Supplies, for an imported leaf reached at `budget`, the (client, amount)
  /// list the cut subtree's reconstruction forwards above its root — in
  /// chain order, ids already translated by the caller. Backtrack() replays
  /// it as the leaf's pending chain (the fragment's replicas and entries are
  /// spliced into the final solution by the coordinator, not here).
  using ImportedFragmentFn =
      std::function<std::span<const std::pair<NodeId, Requests>>(NodeId leaf, std::size_t budget)>;
  void SetImportedFragmentProvider(ImportedFragmentFn provider) {
    imported_provider_ = std::move(provider);
  }

  /// A worker-side reconstruction at a nonzero root budget.
  struct BudgetedBacktrack {
    Solution solution;  ///< NOT canonicalized: the caller splices it first
    std::vector<std::pair<NodeId, Requests>> forwarded;  ///< chain order, preserved
  };

  /// The worker-side generalization of Backtrack(): reconstructs this tree's
  /// solution when the root may forward up to `budget` requests, returning
  /// the solution slice plus the forwarded (client, amount) list in chain
  /// order. Backtrack() is BacktrackWithBudget(0) plus the nothing-left-over
  /// check and canonicalization.
  [[nodiscard]] BudgetedBacktrack BacktrackWithBudget(std::size_t budget);

  /// Cumulative work counters over the engine's lifetime.
  [[nodiscard]] const NodDpWork& Work() const noexcept { return work_; }

  /// Nodes re-processed by the most recent forward pass (ComputeAll counts
  /// every node).
  [[nodiscard]] std::uint64_t LastPassNodes() const noexcept { return last_pass_nodes_; }

 private:
  struct Counters {
    std::uint64_t entries = 0;
    std::uint64_t cells = 0;
  };
  /// Room for a client's derived table {r, r - min(r, W)}.
  using ClientBuf = std::array<Requests, 2>;

  NodeId CheckNode(NodeId id) const {
    RPT_REQUIRE(id < view_.Size(), "NodDpEngine: node id out of range");
    return id;
  }

  /// The F table of `node`: a span into its block, its imported table, or
  /// (for a plain client) its derived table written into `buf`.
  std::span<const Requests> FOf(NodeId node, ClientBuf& buf) const;
  /// Recomputes the block of `node`; for internal nodes the prefix chain is
  /// rebuilt from child index `first_child` on (0 = full rebuild). All
  /// children must already be up to date.
  void ProcessNode(NodeId node, std::size_t first_child, Counters& counters);
  /// Processes `order` (children before parents) serially.
  void Sweep(std::span<const NodeId> order, bool incremental);

  // Pending requests travelling upward during reconstruction, stored as
  // arena-chained (client, amount) entries so concatenation is O(1) and a
  // replica's absorption is a prefix drop — Backtrack allocates nothing in
  // steady state (the arena vector is reused across calls).
  struct PendEntry {
    NodeId client = kInvalidNode;
    Requests amount = 0;
    std::uint32_t next = 0;
  };
  struct PendChain {
    std::uint32_t head = 0;  // kPendNil when empty
    std::uint32_t tail = 0;
    Requests total = 0;
  };
  // Recorded reconstruction of one subtree: the solution slice it appended
  // and the pending list it forwarded, replayable while the subtree stays
  // clean and the budget matches. built_pass == 0 means "never built".
  struct FragmentCache {
    std::uint64_t built_pass = 0;
    std::size_t budget = 0;
    std::vector<NodeId> replicas;
    std::vector<ServiceEntry> entries;
    std::vector<std::pair<NodeId, Requests>> forwarded;

    [[nodiscard]] std::size_t EntryCount() const noexcept {
      return replicas.size() + entries.size() + forwarded.size();
    }
  };
  // Hard cap on the summed EntryCount over all cached fragments (~2M
  // entries, tens of MB): every internal node eventually records its whole
  // subtree's slice, which sums to O(|solution| * depth) — a few times the
  // solution on balanced trees, but capped so a deep tree or a pathological
  // stream cannot grow the cache without bound. Past the cap, recording
  // stops (existing fragments may still be replaced in place and still
  // replay); correctness never depends on a fragment being cached.
  static constexpr std::size_t kFragEntryBudget = std::size_t{1} << 21;
  PendChain BacktrackNode(NodeId node, std::size_t budget, Solution& solution);

  /// Shared table-arithmetic core of reconstruction at internal `node` with
  /// clamped budget `u`: decides the replica bit and splits the (possibly
  /// relaxed) budget among the children by the backwards prefix-table walk,
  /// filling child_budget[0..arity) with the smallest child budget that
  /// keeps the cost optimal (found per child cost level, two inverse lookups
  /// each). Returns whether a replica is placed.
  /// Pure function of the tables — BacktrackNode and AssignImportedBudgets
  /// both call it, so a sharded solve's budget sweep and its final backtrack
  /// can never disagree.
  bool SplitBudget(NodeId node, std::size_t u, std::size_t* child_budget) const;


  TopologyView view_;
  Requests capacity_;
  std::vector<Requests> demand_;          // per node; internal nodes hold 0
  std::vector<Requests> subtree_demand_;  // maintained by SetDemand
  // Per internal node: prefixes G_2..G_k then F, back to back. Plain
  // clients keep no block. f_len_ is len(F) for every processed node (F
  // holds one entry per replica, so it fits 32 bits).
  std::vector<InvTable> block_;
  std::vector<std::uint32_t> f_len_;
  std::vector<std::vector<NodeId>> dirty_levels_;  // reused dirty buckets, by depth
  std::vector<NodeId> dirty_order_;                // dirty nodes, deepest first
  std::vector<std::uint64_t> last_dirty_pass_;     // forward pass that last re-processed a node
  // Pass stamp: when force_prefix_rebuild_[node] equals the running pass,
  // the incremental sweep rebuilds the node's whole prefix chain instead of
  // reusing it up to the first dirty child (set by ApplyTopology for
  // parents that lost or reordered children — the surviving prefixes index
  // the OLD child list and must not be trusted).
  std::vector<std::uint64_t> force_prefix_rebuild_;
  std::uint64_t pass_ = 0;                         // forward passes run so far
  bool computed_ = false;
  NodDpWork work_;
  std::uint64_t last_pass_nodes_ = 0;
  std::vector<PendEntry> pend_entries_;  // Backtrack arena, reused per call
  std::vector<FragmentCache> frag_;      // per-node Backtrack fragments; empty until
                                         // the first incremental pass
  // Sharded solve: boundary tables imported at client leaves, and the
  // fragment provider Backtrack() replays their forwarded pendings from.
  // Empty (and cost-free on every path) outside the coordinator.
  std::unordered_map<NodeId, InvTable> imported_;
  ImportedFragmentFn imported_provider_;
  std::size_t frag_entries_total_ = 0;   // summed EntryCount, vs kFragEntryBudget
  std::size_t last_replica_count_ = 0;   // previous solution sizes, for reserve
  std::size_t last_assignment_count_ = 0;
};

}  // namespace rpt::multiple
