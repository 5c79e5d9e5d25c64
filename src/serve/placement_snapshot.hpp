// PlacementSnapshot — one immutable, query-ready view of a solved placement.
//
// The serve layer (src/serve/) answers long-lived query traffic against the
// *current* placement while the IncrementalSolver applies update batches in
// the background. The unit of publication is this snapshot: everything a
// query can ask about one solved state, baked into NodeId-indexed columns at
// build time so every query is a pure read — no locks, no lazy caches, no
// allocation. A snapshot is immutable after Build(); the SnapshotStore
// (snapshot_store.hpp) owns publication and reclamation.
//
// Columns (all NodeId-indexed, stored in fixed pages of kSnapshotPageNodes
// node slots; a page is an immutable, reference-counted block):
//  * the rootward skeleton: parent, edge length, and live flag per node —
//    copied out of the solver's TopologyView at build time, so a pinned
//    snapshot stays valid while the solver mutates (or compacts) its
//    topology underneath;
//  * demand per node;
//  * replica flag + per-replica load and residual capacity (W - load);
//  * subtree-aggregated residual capacity and replica count (so "capacity
//    under s" is O(1) at query time);
//  * the routing CSR, per page: each client's (server, amount) span in
//    canonical order.
//
// Copy-on-write publication: Build() may be handed the previously published
// snapshot as a base. A page whose contents are unchanged is shared with the
// base instead of rebuilt, so a low-churn batch costs what it touched, not
// the tree size: skeleton pages are shared wholesale while the topology
// stamp is unchanged, the replica/load/residual pages follow the routing
// pages that changed, and the subtree aggregates are patched along the root
// paths of the servers whose residual or replica flag moved. Without a base
// every page is built. Either way the snapshot holds exactly the values a
// from-scratch build would (CanonicalHash included).
//
// Query surface (all const, safe from any number of threads concurrently):
//  * ServersOf(c)/PrimaryServerOf(c) — "which replica serves client c?"
//  * ResidualUnder(s)/ReplicasUnder(s) — "spare capacity below s?"  O(1)
//  * AttachAt(v, d) — "cost of attaching d requests at node v?": nearest
//    ancestor-or-self replica with residual >= d, O(depth) rootward walk.
//
// Ownership/lifetime: a snapshot owns its pages through shared pointers, so
// a page lives as long as any snapshot holding it; readers pinning an old
// snapshot keep its pages alive however many versions are published after
// it. Everything is copied out of the solver at Build() time, so the solver
// may mutate its own state (including attach/detach/migrate topology events
// and overlay compaction) freely after Build() while readers keep querying
// pinned snapshots.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/solution.hpp"
#include "tree/topology_view.hpp"
#include "tree/tree.hpp"

namespace rpt::serve {

/// One (server, amount) block of a client's routing plan.
struct RouteEntry {
  NodeId server = kInvalidNode;
  Requests amount = 0;

  friend bool operator==(const RouteEntry&, const RouteEntry&) = default;
};

/// Result of an AttachAt probe. `feasible` is false when no ancestor replica
/// has enough residual capacity (distance/server are then meaningless).
struct AttachResult {
  bool feasible = false;
  NodeId server = kInvalidNode;  ///< nearest fitting ancestor-or-self replica
  Distance distance = 0;         ///< path distance from the probe node to it

  friend bool operator==(const AttachResult&, const AttachResult&) = default;
};

/// Node slots per snapshot page: the unit of sharing between versions.
inline constexpr unsigned kSnapshotPageShift = 10;
inline constexpr std::size_t kSnapshotPageNodes = std::size_t{1} << kSnapshotPageShift;

class PlacementSnapshot {
 public:
  /// Bakes one solved state into an immutable snapshot. `view` is the
  /// topology at publish time (base Tree or overlay — everything needed is
  /// copied out of it, including tombstones), `demand` the per-node demand
  /// column (size view.Size(); internal and dead entries 0) and `solution`
  /// the canonical placement for exactly that state (replica loads and
  /// residuals are derived from its assignment). An infeasible state is
  /// represented by an empty solution — the snapshot then has no replicas
  /// and every attach probe fails. `version` is the publisher's monotone
  /// sequence number. `base`, when given, is an earlier snapshot (normally
  /// the one currently published) whose unchanged pages the new snapshot
  /// shares; the result is the same with or without it.
  static std::unique_ptr<const PlacementSnapshot> Build(TopologyView view, Requests capacity,
                                                        std::span<const Requests> demand,
                                                        const Solution& solution,
                                                        std::uint64_t version,
                                                        const PlacementSnapshot* base = nullptr);

  PlacementSnapshot(const PlacementSnapshot&) = delete;
  PlacementSnapshot& operator=(const PlacementSnapshot&) = delete;

  [[nodiscard]] std::uint64_t Version() const noexcept { return version_; }
  [[nodiscard]] Requests Capacity() const noexcept { return capacity_; }
  /// Allocated node slots at publish time (dead overlay ids included).
  [[nodiscard]] std::size_t Size() const noexcept { return size_; }
  /// True iff `node` was live when the snapshot was published. Queries on
  /// dead ids answer ok=false rather than throwing — a client may race a
  /// detach and still hold the id.
  [[nodiscard]] bool IsLive(NodeId node) const { return SkeletonOf(node).alive[Slot(node)] != 0; }
  /// Parent of `node` in the published topology (kInvalidNode for the root
  /// and for dead slots).
  [[nodiscard]] NodeId ParentOf(NodeId node) const {
    return SkeletonOf(node).parent[Slot(node)];
  }
  /// Path distance from `node` up to `ancestor` in the published topology;
  /// throws InvalidArgument when `ancestor` is not on node's root path.
  [[nodiscard]] Distance DistToAncestor(NodeId node, NodeId ancestor) const;
  [[nodiscard]] bool Feasible() const noexcept { return feasible_; }
  [[nodiscard]] std::size_t ReplicaCount() const noexcept { return replica_count_; }
  [[nodiscard]] Requests DemandOf(NodeId node) const {
    return demand_[Check(node) >> kSnapshotPageShift]->demand[Slot(node)];
  }
  [[nodiscard]] Requests TotalDemand() const noexcept { return total_demand_; }

  /// True iff a replica sits on `node` in this snapshot.
  [[nodiscard]] bool IsReplica(NodeId node) const {
    return ServerOf(node).replica[Slot(node)] != 0;
  }

  /// Load routed to the replica at `node` (0 for non-replicas).
  [[nodiscard]] Requests LoadOf(NodeId node) const {
    return ServerOf(node).load[Slot(node)];
  }

  /// Residual capacity W - load of the replica at `node`; 0 for non-replicas.
  [[nodiscard]] Requests ResidualOf(NodeId node) const {
    return ResidualIn(ServerOf(node), Slot(node));
  }

  /// Summed residual capacity of all replicas in subtree(node). O(1).
  [[nodiscard]] Requests ResidualUnder(NodeId node) const {
    return AggregateOf(node).residual[Slot(node)];
  }

  /// Number of replicas in subtree(node). O(1).
  [[nodiscard]] std::uint32_t ReplicasUnder(NodeId node) const {
    return AggregateOf(node).replicas[Slot(node)];
  }

  /// The client's routing plan, canonical (ascending server id). Empty for
  /// internal nodes, zero-demand clients, and infeasible snapshots.
  [[nodiscard]] std::span<const RouteEntry> ServersOf(NodeId client) const {
    const RoutePage& page = *routes_[Check(client) >> kSnapshotPageShift];
    const std::size_t slot = Slot(client);
    return {page.routes.data() + page.begin[slot], page.routes.data() + page.begin[slot + 1]};
  }

  /// The replica serving the largest share of the client's demand (ties
  /// break toward the smaller node id, so the answer is deterministic);
  /// kInvalidNode when the client is unserved. O(#servers) <= O(depth).
  [[nodiscard]] NodeId PrimaryServerOf(NodeId client) const;

  /// Nearest ancestor-or-self replica of `node` with residual >= demand —
  /// the cost of attaching that much new demand at `node` without moving
  /// any replica. O(depth) rootward walk. demand == 0 probes for the
  /// nearest replica regardless of spare capacity.
  [[nodiscard]] AttachResult AttachAt(NodeId node, Requests demand) const;

  /// FNV-1a over every column in node-id order, topology skeleton included:
  /// two snapshots of the same state hash identically on any machine
  /// (however their pages are shared), and a pure topology change (e.g. a
  /// migration that moves no replica) still changes the hash. Deterministic
  /// anchor for the serve bench's det-json and the swap-torture tests.
  [[nodiscard]] std::uint64_t CanonicalHash() const noexcept;

 private:
  static constexpr std::size_t kPage = kSnapshotPageNodes;

  // One page per column group; slots past Size() keep their defaults.
  struct SkeletonPage {
    SkeletonPage() { parent.fill(kInvalidNode); }
    std::array<NodeId, kPage> parent;
    std::array<Distance, kPage> dist{};
    std::array<std::uint8_t, kPage> alive{};
    friend bool operator==(const SkeletonPage&, const SkeletonPage&) = default;
  };
  struct DemandPage {
    std::array<Requests, kPage> demand{};
    Requests sum = 0;
  };
  struct ServerPage {
    std::array<Requests, kPage> load{};
    std::array<std::uint8_t, kPage> replica{};
  };
  struct AggregatePage {
    std::array<Requests, kPage> residual{};
    std::array<std::uint32_t, kPage> replicas{};
    friend bool operator==(const AggregatePage&, const AggregatePage&) = default;
  };
  struct RoutePage {
    std::array<std::uint32_t, kPage + 1> begin{};  // CSR offsets into routes
    std::vector<RouteEntry> routes;
  };
  template <class Page>
  using Column = std::vector<std::shared_ptr<const Page>>;

  class Builder;

  PlacementSnapshot() = default;

  NodeId Check(NodeId id) const {
    RPT_REQUIRE(id < size_, "PlacementSnapshot: node id out of range");
    return id;
  }
  static std::size_t Slot(NodeId id) noexcept { return id & (kPage - 1); }
  const SkeletonPage& SkeletonOf(NodeId id) const {
    return *skeleton_[Check(id) >> kSnapshotPageShift];
  }
  const ServerPage& ServerOf(NodeId id) const {
    return *servers_[Check(id) >> kSnapshotPageShift];
  }
  const AggregatePage& AggregateOf(NodeId id) const {
    return *aggregates_[Check(id) >> kSnapshotPageShift];
  }
  /// W - load for a replica slot, 0 otherwise.
  Requests ResidualIn(const ServerPage& page, std::size_t slot) const {
    return page.replica[slot] != 0 ? capacity_ - page.load[slot] : 0;
  }

  std::uint64_t version_ = 0;
  Requests capacity_ = 0;
  Requests total_demand_ = 0;
  bool feasible_ = false;
  std::size_t replica_count_ = 0;
  std::size_t size_ = 0;
  std::size_t route_count_ = 0;
  std::uint64_t topology_stamp_ = 0;  // TopologyView::TopologyStamp at build time
  Column<SkeletonPage> skeleton_;
  Column<DemandPage> demand_;
  Column<ServerPage> servers_;
  Column<AggregatePage> aggregates_;
  Column<RoutePage> routes_;
};

}  // namespace rpt::serve
