#include "serve/placement_snapshot.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <queue>
#include <tuple>

namespace rpt::serve {

/// Builds one snapshot's columns, sharing every page it can with a base.
/// Each step either reuses the base page as is (same contents) or writes a
/// new one; with no base the base pages are the all-default pages, so the
/// same code builds every page.
class PlacementSnapshot::Builder {
 public:
  Builder(PlacementSnapshot& s, TopologyView view, const PlacementSnapshot* base)
      : s_(s),
        view_(view),
        base_(base),
        n_(view.Size()),
        pages_((view.Size() + kPage - 1) >> kSnapshotPageShift),
        same_topology_(base != nullptr && base->topology_stamp_ == view.TopologyStamp()),
        // Loads diff against the base only at the same capacity (a
        // capacity change moves every replica's residual) and when no node
        // slot disappeared.
        placed_(base != nullptr && base->capacity_ == s.capacity_ && base->size_ <= n_ ? base
                                                                                       : nullptr) {}

  void Skeleton();
  void Demand(std::span<const Requests> demand);
  void Placement(const Solution& solution);

 private:
  /// Copy-on-write access to a column under construction: its pages start
  /// as the base's (shared, immutable) and are copied on the first write.
  template <class Page>
  class CowColumn {
   public:
    explicit CowColumn(Column<Page>& pages) : pages_(pages), owned_(pages.size(), nullptr) {}
    Page& Mutable(std::size_t p) {
      if (owned_[p] == nullptr) {
        auto copy = std::make_shared<Page>(*pages_[p]);
        owned_[p] = copy.get();
        pages_[p] = std::move(copy);
      }
      return *owned_[p];
    }
    [[nodiscard]] Page* Owned(std::size_t p) const { return owned_[p]; }

   private:
    Column<Page>& pages_;
    std::vector<Page*> owned_;
  };

  /// A pending change to the subtree aggregates at `node`.
  struct Delta {
    std::uint32_t depth;
    NodeId node;
    Requests residual;       // added modulo 2^64
    std::uint32_t replicas;  // added modulo 2^32
  };

  template <class Page>
  static const std::shared_ptr<const Page>& DefaultPage() {
    static const std::shared_ptr<const Page> page = std::make_shared<const Page>();
    return page;
  }
  /// Page `p` of `column`, or the default page past its end / without one.
  template <class Page>
  static const std::shared_ptr<const Page>& PageOr(const PlacementSnapshot* from,
                                                   Column<Page> PlacementSnapshot::*column,
                                                   std::size_t p) {
    if (from == nullptr || p >= (from->*column).size()) return DefaultPage<Page>();
    return (from->*column)[p];
  }
  /// `pages_` pages of `column` taken from `from` (defaults where it has none).
  template <class Page>
  Column<Page> Inherit(const PlacementSnapshot* from, Column<Page> PlacementSnapshot::*column) const {
    Column<Page> pages(pages_);
    for (std::size_t p = 0; p < pages_; ++p) pages[p] = PageOr(from, column, p);
    return pages;
  }
  [[nodiscard]] NodeId PageBegin(std::size_t p) const noexcept {
    return static_cast<NodeId>(p << kSnapshotPageShift);
  }
  [[nodiscard]] std::size_t PageLength(std::size_t p) const noexcept {
    return std::min(kPage, n_ - PageBegin(p));
  }

  /// The load of `node`, its page copied for writing; marks the node for
  /// Settle().
  Requests& LoadAt(NodeId node);
  static void Mark(std::vector<std::uint64_t>& bits, NodeId node) {
    bits[node >> 6] |= std::uint64_t{1} << (node & 63);
  }
  static bool Marked(const std::vector<std::uint64_t>& bits, NodeId node) {
    return ((bits[node >> 6] >> (node & 63)) & 1) != 0;
  }
  void Flags(std::span<const NodeId> replicas);
  void Routes(std::span<const ServiceEntry> assignment);
  /// Splits `assignment` into per-page runs (`bounds`) and marks the runs
  /// equal to the base's page (`same`). False when a changed run is out of
  /// client order or out of range.
  bool Slice(std::span<const ServiceEntry> assignment, std::vector<std::size_t>& bounds,
             std::vector<std::uint8_t>& same) const;
  /// Moves the loads of the clients whose routes differ between two
  /// versions of a route page out of the old servers and into the new.
  void MoveLoads(const RoutePage& was, const RoutePage& now);
  void Settle(std::vector<Delta>* deltas);
  void PatchAggregates(std::vector<Delta> deltas);
  void SumAggregates();

  PlacementSnapshot& s_;
  TopologyView view_;
  const PlacementSnapshot* base_;
  std::size_t n_;
  std::size_t pages_;
  bool same_topology_;
  const PlacementSnapshot* placed_;
  std::optional<CowColumn<ServerPage>> servers_;
  std::vector<std::uint64_t> touched_;  // node slots written in a server page
  std::vector<std::uint64_t> dropped_;  // replicas of the base that are gone
};

void PlacementSnapshot::Builder::Skeleton() {
  // Equal stamps guarantee an equal skeleton: share it wholesale.
  if (same_topology_) {
    s_.skeleton_ = base_->skeleton_;
    return;
  }
  // Dead slots keep the neutral (kInvalidNode, 0) row — no query path walks
  // through them.
  const auto parents = view_.ParentColumn();
  const auto dists = view_.DistColumn();
  const bool all_live = view_.LiveCount() == n_;
  s_.skeleton_.resize(pages_);
  for (std::size_t p = 0; p < pages_; ++p) {
    auto page = std::make_shared<SkeletonPage>();
    const NodeId lo = PageBegin(p);
    const std::size_t len = PageLength(p);
    std::copy_n(parents.begin() + lo, len, page->parent.begin());
    std::copy_n(dists.begin() + lo, len, page->dist.begin());
    if (all_live) {
      std::fill_n(page->alive.begin(), len, std::uint8_t{1});
    } else {
      for (std::size_t slot = 0; slot < len; ++slot) {
        if (view_.IsLive(static_cast<NodeId>(lo + slot))) {
          page->alive[slot] = 1;
        } else {
          page->parent[slot] = kInvalidNode;
          page->dist[slot] = 0;
        }
      }
    }
    const auto& old = PageOr(base_, &PlacementSnapshot::skeleton_, p);
    if (base_ != nullptr && *page == *old) {
      s_.skeleton_[p] = old;
    } else {
      s_.skeleton_[p] = std::move(page);
    }
  }
}

void PlacementSnapshot::Builder::Demand(std::span<const Requests> demand) {
  s_.demand_.resize(pages_);
  Requests total = 0;
  for (std::size_t p = 0; p < pages_; ++p) {
    const std::size_t len = PageLength(p);
    const Requests* src = demand.data() + PageBegin(p);
    const auto& old = PageOr(base_, &PlacementSnapshot::demand_, p);
    const bool same =
        std::equal(src, src + len, old->demand.begin()) &&
        std::all_of(old->demand.begin() + len, old->demand.end(), [](Requests d) { return d == 0; });
    if (same) {
      s_.demand_[p] = old;
    } else {
      auto page = std::make_shared<DemandPage>();
      Requests sum = 0;
      for (std::size_t slot = 0; slot < len; ++slot) {
        page->demand[slot] = src[slot];
        sum += src[slot];
      }
      page->sum = sum;
      s_.demand_[p] = std::move(page);
    }
    total += s_.demand_[p]->sum;
    // A page pair the base already checked needs no second look.
    if (!same || s_.skeleton_[p] != PageOr(base_, &PlacementSnapshot::skeleton_, p)) {
      const SkeletonPage& skeleton = *s_.skeleton_[p];
      bool dead_demand = false;
      for (std::size_t slot = 0; slot < len; ++slot) {
        dead_demand |= (src[slot] != 0) & (skeleton.alive[slot] == 0);
      }
      RPT_REQUIRE(!dead_demand, "PlacementSnapshot: dead nodes carry no demand");
    }
  }
  s_.total_demand_ = total;
}

void PlacementSnapshot::Builder::Placement(const Solution& solution) {
  s_.servers_ = Inherit(placed_, &PlacementSnapshot::servers_);
  servers_.emplace(s_.servers_);
  touched_.assign(pages_ * (kPage / 64), 0);
  dropped_.assign(pages_ * (kPage / 64), 0);
  Flags(solution.replicas);
  Routes(solution.assignment);
  if (placed_ != nullptr && same_topology_) {
    std::vector<Delta> deltas;
    Settle(&deltas);
    PatchAggregates(std::move(deltas));
  } else {
    Settle(nullptr);
    SumAggregates();
  }
}

Requests& PlacementSnapshot::Builder::LoadAt(NodeId node) {
  Mark(touched_, node);
  return servers_->Mutable(node >> kSnapshotPageShift).load[Slot(node)];
}

void PlacementSnapshot::Builder::Flags(std::span<const NodeId> replicas) {
  bool sorted = true;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    RPT_REQUIRE(replicas[i] < n_ && s_.IsLive(replicas[i]),
                "PlacementSnapshot: replica must be a live node");
    sorted = sorted && (i == 0 || replicas[i - 1] <= replicas[i]);
  }
  std::vector<NodeId> ordered;
  if (!sorted) {
    ordered.assign(replicas.begin(), replicas.end());
    std::sort(ordered.begin(), ordered.end());
    replicas = ordered;
  }
  std::array<std::uint8_t, kPage> flags;
  std::size_t next = 0;
  for (std::size_t p = 0; p < pages_; ++p) {
    const NodeId lo = PageBegin(p);
    flags.fill(0);
    for (; next < replicas.size() && replicas[next] - lo < kPage; ++next) {
      flags[Slot(replicas[next])] = 1;
    }
    const ServerPage& old = *s_.servers_[p];  // kept alive by the base
    if (flags == old.replica) continue;
    ServerPage& page = servers_->Mutable(p);
    for (std::size_t slot = 0; slot < PageLength(p); ++slot) {
      if (flags[slot] == old.replica[slot]) continue;
      Mark(touched_, static_cast<NodeId>(lo + slot));
      if (old.replica[slot] != 0) Mark(dropped_, static_cast<NodeId>(lo + slot));
    }
    page.replica = flags;
  }
}

void PlacementSnapshot::Builder::Routes(std::span<const ServiceEntry> assignment) {
  // The canonical assignment is in client order, so each client page's
  // entries form one run. Anything else (or an entry out of range) fails
  // the checks in Slice(); the input is then checked whole and a stably
  // client-sorted copy is used, which keeps each client's entries in input
  // order.
  std::vector<std::size_t> bounds;
  std::vector<std::uint8_t> same;
  std::vector<ServiceEntry> ordered;
  if (!Slice(assignment, bounds, same)) {
    for (const ServiceEntry& entry : assignment) {
      RPT_REQUIRE(entry.client < n_ && entry.server < n_,
                  "PlacementSnapshot: assignment entry out of range");
    }
    ordered.assign(assignment.begin(), assignment.end());
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const ServiceEntry& a, const ServiceEntry& b) { return a.client < b.client; });
    assignment = ordered;
    RPT_CHECK(Slice(assignment, bounds, same));
  }

  // A page equal to the base's is shared. A changed one is rebuilt, and its
  // changed clients move their loads.
  s_.routes_.resize(pages_);
  for (std::size_t p = 0; p < pages_; ++p) {
    const auto& old = PageOr(placed_, &PlacementSnapshot::routes_, p);
    if (same[p] != 0) {
      s_.routes_[p] = old;
      continue;
    }
    const auto entries = assignment.subspan(bounds[p], bounds[p + 1] - bounds[p]);
    const NodeId lo = PageBegin(p);
    auto page = std::make_shared<RoutePage>();
    page->routes.resize(entries.size());
    std::uint32_t at = 0;
    std::size_t slot = 0;
    for (const ServiceEntry& entry : entries) {
      for (; slot <= entry.client - lo; ++slot) page->begin[slot] = at;
      page->routes[at++] = RouteEntry{entry.server, entry.amount};
    }
    for (; slot <= kPage; ++slot) page->begin[slot] = at;
    MoveLoads(*old, *page);
    s_.routes_[p] = std::move(page);
  }
  s_.route_count_ = assignment.size();
}

bool PlacementSnapshot::Builder::Slice(std::span<const ServiceEntry> assignment,
                                       std::vector<std::size_t>& bounds,
                                       std::vector<std::uint8_t>& same) const {
  // Page boundaries by binary search (exact when the input is in client
  // order; whatever they are otherwise, the checks below fail).
  bounds.assign(pages_ + 1, assignment.size());
  bounds[0] = 0;
  for (std::size_t p = 1; p < pages_; ++p) {
    std::size_t lo = bounds[p - 1];
    std::size_t hi = assignment.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (assignment[mid].client < PageBegin(p)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bounds[p] = lo;
  }
  // A run equal to the base page's routes — each entry matching the route
  // at its own index, inside its client's span — is in order and in range
  // because the base's was; any other run is checked entry by entry.
  same.assign(pages_, 0);
  for (std::size_t p = 0; p < pages_; ++p) {
    const auto entries = assignment.subspan(bounds[p], bounds[p + 1] - bounds[p]);
    const RoutePage& old = *PageOr(placed_, &PlacementSnapshot::routes_, p);
    const NodeId lo = PageBegin(p);
    bool equal = entries.size() == old.routes.size();
    for (std::uint32_t i = 0; equal && i < entries.size(); ++i) {
      const std::uint32_t slot = entries[i].client - lo;
      equal = slot < kPage && i >= old.begin[slot] && i < old.begin[slot + 1] &&
              entries[i].server == old.routes[i].server &&
              entries[i].amount == old.routes[i].amount;
      // Entries kept from the base target base replicas; one that is gone
      // must not be targeted any more.
      RPT_REQUIRE(!equal || !Marked(dropped_, entries[i].server),
                  "PlacementSnapshot: assignment targets a non-replica server");
    }
    if (equal) {
      same[p] = 1;
      continue;
    }
    bool ok = true;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      ok &= (entries[i].client - lo < kPage) & (entries[i].client < n_) & (entries[i].server < n_) &
            (i == 0 || entries[i - 1].client <= entries[i].client);
      RPT_REQUIRE(entries[i].server >= n_ || !Marked(dropped_, entries[i].server),
                  "PlacementSnapshot: assignment targets a non-replica server");
    }
    if (!ok) return false;
  }
  return true;
}

void PlacementSnapshot::Builder::MoveLoads(const RoutePage& was, const RoutePage& now) {
  const auto move = [this](std::span<const RouteEntry> routes, bool add) {
    for (const RouteEntry& route : routes) {
      RPT_REQUIRE(!add || s_.IsReplica(route.server),
                  "PlacementSnapshot: assignment targets a non-replica server");
      Requests& load = LoadAt(route.server);
      load = add ? load + route.amount : load - route.amount;
    }
  };
  // Against an empty page every client differs.
  if (was.routes.empty() || now.routes.empty()) {
    move(was.routes, false);
    move(now.routes, true);
    return;
  }
  // A client whose span differs moves its old routes' loads out of their
  // servers and its new routes' loads in.
  for (std::size_t slot = 0; slot < kPage; ++slot) {
    const std::span<const RouteEntry> before{was.routes.data() + was.begin[slot],
                                             was.routes.data() + was.begin[slot + 1]};
    const std::span<const RouteEntry> after{now.routes.data() + now.begin[slot],
                                            now.routes.data() + now.begin[slot + 1]};
    if (before.empty() && after.empty()) continue;
    if (before.size() == after.size() && std::equal(before.begin(), before.end(), after.begin())) {
      continue;
    }
    move(before, false);
    move(after, true);
  }
}

void PlacementSnapshot::Builder::Settle(std::vector<Delta>* deltas) {
  // Only a touched slot can hold a changed flag or load; each is
  // re-checked and its residual change recorded.
  const Requests capacity = s_.capacity_;
  for (std::size_t p = 0; p < pages_; ++p) {
    const ServerPage* page = servers_->Owned(p);
    if (page == nullptr) continue;
    const ServerPage& old = *PageOr(placed_, &PlacementSnapshot::servers_, p);
    for (std::size_t word = 0; word < kPage / 64; ++word) {
      for (std::uint64_t bits = touched_[p * (kPage / 64) + word]; bits != 0; bits &= bits - 1) {
        const std::size_t slot = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        RPT_REQUIRE(page->replica[slot] == 0 || page->load[slot] <= capacity,
                    "PlacementSnapshot: replica load exceeds capacity");
        if (deltas == nullptr) continue;
        const Requests residual = s_.ResidualIn(*page, slot);
        const Requests old_residual = s_.ResidualIn(old, slot);
        if (residual != old_residual || page->replica[slot] != old.replica[slot]) {
          const auto node = static_cast<NodeId>(PageBegin(p) + slot);
          deltas->push_back(Delta{view_.Depth(node), node, residual - old_residual,
                                  static_cast<std::uint32_t>(page->replica[slot]) -
                                      static_cast<std::uint32_t>(old.replica[slot])});
        }
      }
    }
  }
}

void PlacementSnapshot::Builder::PatchAggregates(std::vector<Delta> deltas) {
  // Push each change up its root path, deepest node first, merging the
  // changes that meet at a common ancestor: every node on the union of the
  // root paths is written once.
  s_.aggregates_ = placed_->aggregates_;
  CowColumn<AggregatePage> aggregates(s_.aggregates_);
  const auto shallower = [](const Delta& a, const Delta& b) {
    return std::tie(a.depth, a.node) < std::tie(b.depth, b.node);
  };
  std::priority_queue<Delta, std::vector<Delta>, decltype(shallower)> queue(shallower,
                                                                            std::move(deltas));
  while (!queue.empty()) {
    Delta top = queue.top();
    queue.pop();
    while (!queue.empty() && queue.top().node == top.node) {
      top.residual += queue.top().residual;
      top.replicas += queue.top().replicas;
      queue.pop();
    }
    if (top.residual == 0 && top.replicas == 0) continue;
    AggregatePage& page = aggregates.Mutable(top.node >> kSnapshotPageShift);
    page.residual[Slot(top.node)] += top.residual;
    page.replicas[Slot(top.node)] += top.replicas;
    const NodeId parent = s_.ParentOf(top.node);
    if (parent != kInvalidNode) {
      queue.push(Delta{top.depth - 1, parent, top.residual, top.replicas});
    }
  }
}

void PlacementSnapshot::Builder::SumAggregates() {
  // One post-order pass (children precede parents; live nodes only — dead
  // slots stay 0), each node adding its finished total to its parent.
  s_.aggregates_.resize(pages_);
  std::vector<AggregatePage*> pages(pages_);
  for (std::size_t p = 0; p < pages_; ++p) {
    auto page = std::make_shared<AggregatePage>();
    pages[p] = page.get();
    s_.aggregates_[p] = std::move(page);
  }
  for (const NodeId node : view_.PostOrder()) {
    const std::size_t slot = Slot(node);
    const ServerPage& server = *s_.servers_[node >> kSnapshotPageShift];
    AggregatePage& aggregate = *pages[node >> kSnapshotPageShift];
    const Requests residual = aggregate.residual[slot] += s_.ResidualIn(server, slot);
    const std::uint32_t replicas = aggregate.replicas[slot] += server.replica[slot];
    const NodeId parent = s_.skeleton_[node >> kSnapshotPageShift]->parent[slot];
    if (parent == kInvalidNode) continue;
    AggregatePage& up = *pages[parent >> kSnapshotPageShift];
    up.residual[Slot(parent)] += residual;
    up.replicas[Slot(parent)] += replicas;
  }
  if (base_ == nullptr) return;
  for (std::size_t p = 0; p < pages_; ++p) {
    const auto& old = PageOr(base_, &PlacementSnapshot::aggregates_, p);
    if (*s_.aggregates_[p] == *old) s_.aggregates_[p] = old;
  }
}

std::unique_ptr<const PlacementSnapshot> PlacementSnapshot::Build(
    TopologyView view, Requests capacity, std::span<const Requests> demand,
    const Solution& solution, std::uint64_t version, const PlacementSnapshot* base) {
  RPT_REQUIRE(capacity > 0, "PlacementSnapshot: capacity must be positive");
  RPT_REQUIRE(demand.size() == view.Size(),
              "PlacementSnapshot: demand column must have one entry per node");

  auto snapshot = std::unique_ptr<PlacementSnapshot>(new PlacementSnapshot());
  PlacementSnapshot& s = *snapshot;
  s.version_ = version;
  s.capacity_ = capacity;
  s.size_ = view.Size();
  s.replica_count_ = solution.replicas.size();
  s.topology_stamp_ = view.TopologyStamp();
  Builder builder(s, view, base);
  builder.Skeleton();
  builder.Demand(demand);
  s.feasible_ = !solution.replicas.empty() || s.total_demand_ == 0;
  builder.Placement(solution);
  return snapshot;
}

Distance PlacementSnapshot::DistToAncestor(NodeId node, NodeId ancestor) const {
  Check(ancestor);
  Distance distance = 0;
  for (NodeId cursor = Check(node);;) {
    if (cursor == ancestor) return distance;
    const SkeletonPage& page = SkeletonOf(cursor);
    const NodeId parent = page.parent[Slot(cursor)];
    RPT_REQUIRE(parent != kInvalidNode, "PlacementSnapshot: not an ancestor");
    distance = SaturatingAdd(distance, page.dist[Slot(cursor)]);
    cursor = parent;
  }
}

NodeId PlacementSnapshot::PrimaryServerOf(NodeId client) const {
  NodeId best = kInvalidNode;
  Requests best_amount = 0;
  for (const RouteEntry& entry : ServersOf(client)) {
    // Strictly-greater keeps the first (smallest-id) server on ties; the
    // span is in ascending server order.
    if (entry.amount > best_amount) {
      best = entry.server;
      best_amount = entry.amount;
    }
  }
  return best;
}

AttachResult PlacementSnapshot::AttachAt(NodeId node, Requests demand) const {
  AttachResult result;
  if (!IsLive(node)) return result;  // dead id: nothing to attach to
  Distance distance = 0;
  for (NodeId cursor = node;;) {
    if (IsReplica(cursor) && ResidualOf(cursor) >= demand) {
      result.feasible = true;
      result.server = cursor;
      result.distance = distance;
      return result;
    }
    const SkeletonPage& skeleton = SkeletonOf(cursor);
    const NodeId parent = skeleton.parent[Slot(cursor)];
    if (parent == kInvalidNode) return result;  // walked past the root
    distance = SaturatingAdd(distance, skeleton.dist[Slot(cursor)]);
    cursor = parent;
  }
}

std::uint64_t PlacementSnapshot::CanonicalHash() const noexcept {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) noexcept {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(version_);
  mix(capacity_);
  mix(total_demand_);
  mix(feasible_ ? 1 : 0);
  mix(replica_count_);
  for (std::size_t p = 0; p < skeleton_.size(); ++p) {
    const DemandPage& demand = *demand_[p];
    const ServerPage& server = *servers_[p];
    const SkeletonPage& skeleton = *skeleton_[p];
    const std::size_t lo = p << kSnapshotPageShift;
    const std::size_t len = std::min(kPage, size_ - lo);
    for (std::size_t slot = 0; slot < len; ++slot) {
      // Most nodes are untouched between snapshots; hashing only the
      // nonzero placement columns keeps the mix cheap without losing any
      // state (the zero runs are implied by the indices of the nonzero
      // entries). The topology skeleton is folded in the same way: dead
      // slots and edge lengths, so a pure structure change still moves the
      // hash.
      const std::size_t i = lo + slot;
      if (demand.demand[slot] != 0) {
        mix(i);
        mix(demand.demand[slot]);
      }
      if (server.replica[slot] != 0) {
        mix(i);
        mix(server.load[slot]);
        mix(ResidualIn(server, slot));
      }
      if (skeleton.alive[slot] == 0) {
        mix(i);
        mix(0xDEADu);
      } else if (skeleton.parent[slot] != kInvalidNode) {
        mix(skeleton.parent[slot]);
        mix(skeleton.dist[slot]);
      }
    }
  }
  mix(route_count_);
  for (const auto& page : routes_) {
    for (const RouteEntry& entry : page->routes) {
      mix(entry.server);
      mix(entry.amount);
    }
  }
  return h;
}

}  // namespace rpt::serve
