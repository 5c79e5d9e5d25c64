#include "incremental/incremental_solver.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "multiple/multiple_nod_dp.hpp"
#include "single/single_nod.hpp"

namespace rpt::incremental {

const char* EngineName(Engine engine) noexcept {
  return engine == Engine::kIncremental ? "incremental" : "full-resolve";
}

IncrementalSolver::IncrementalSolver(const Instance& instance, Options options)
    : tree_(instance.GetTree()),
      options_(options),
      capacity_(instance.Capacity()),
      demand_(tree_.Size()) {
  RPT_REQUIRE(!instance.HasDistanceConstraint(),
              "incremental: only valid without distance constraints (NoD)");
  if (options_.engine == Engine::kIncremental && options_.policy == Policy::kMultiple) {
    engine_.emplace(tree_, capacity_);
  }
  for (NodeId id = 0; id < tree_.Size(); ++id) demand_[id] = tree_.RequestsOf(id);
  total_demand_ = tree_.TotalRequests();
  Resolve({}, /*full=*/true);
}

IncrementalSolver::IncrementalSolver(const Instance& base, TreeOverlay restored,
                                     Requests capacity, Options options)
    : tree_(base.GetTree()),
      overlay_(std::make_unique<TreeOverlay>(std::move(restored))),
      options_(options),
      capacity_(capacity),
      demand_(overlay_->Size()) {
  RPT_REQUIRE(!base.HasDistanceConstraint(),
              "incremental: only valid without distance constraints (NoD)");
  RPT_REQUIRE(capacity_ > 0, "incremental: restored capacity must be positive");
  if (options_.engine == Engine::kIncremental && options_.policy == Policy::kMultiple) {
    engine_.emplace(TopologyView(*overlay_), capacity_);
  }
  // The overlay's request column IS the demand state (SetRequests mirrors
  // every demand event into it), so the restored overlay carries demands.
  for (NodeId id = 0; id < overlay_->Size(); ++id) {
    demand_[id] = overlay_->IsLive(id) && overlay_->IsClient(id)
                      ? overlay_->RequestsOf(id)
                      : 0;
  }
  total_demand_ = overlay_->TotalRequests();
  Resolve({}, /*full=*/true);
}

std::unique_ptr<TreeOverlay> IncrementalSolver::PromoteBaseOverlay() const {
  // The base tree's request column is construction-time state: demand-only
  // batches before a promotion updated demand_ with no overlay to mirror
  // into, so sync the live column or the promoted overlay would silently
  // revert those clients to stale demands.
  auto fresh = std::make_unique<TreeOverlay>(tree_);
  for (const NodeId client : tree_.Clients()) {
    if (fresh->RequestsOf(client) != demand_[client]) {
      fresh->SetRequests(client, demand_[client]);
    }
  }
  return fresh;
}

TreeOverlay IncrementalSolver::ExportOverlay() const {
  if (overlay_) return *overlay_;
  return *PromoteBaseOverlay();
}

Requests IncrementalSolver::DemandOf(NodeId client) const {
  RPT_REQUIRE(client < demand_.size(), "incremental: node id out of range");
  return demand_[client];
}

IncrementalSolver::Materialized IncrementalSolver::MaterializeCompact() const {
  if (!HasTopologyChanges()) {
    std::vector<NodeId> identity(demand_.size());
    std::iota(identity.begin(), identity.end(), NodeId{0});
    return Materialized{Instance(overlay_ ? overlay_->Compact().tree : tree_.WithRequests(demand_),
                                 capacity_),
                        std::move(identity)};
  }
  // The overlay's request column mirrors demand_, so the compacted tree
  // already carries the current demands.
  TreeOverlay::CompactResult compact = overlay_->Compact();
  return Materialized{Instance(std::move(compact.tree), capacity_), std::move(compact.remap)};
}

Instance IncrementalSolver::MaterializeInstance() const {
  return MaterializeCompact().instance;
}

// Magnitude of a signed delta as an unsigned value, defined for the whole
// int64 range (a bare -delta is UB at INT64_MIN, which would let one
// pathological event wrap validation itself).
static Requests NegMagnitude(std::int64_t delta) noexcept {
  return static_cast<Requests>(-(delta + 1)) + 1;
}

// Dry-runs a demand/capacity-only batch against the current state so a bad
// event leaves the solver untouched (Apply's atomicity guarantee). Demand
// interactions within the batch (a delta following an add, etc.) are tracked
// in a side map; the projected per-client demands AND the projected total
// are both guarded against wrapping through unsigned Requests — a wrapped
// demand would silently pass validation and corrupt every DP table bound.
void IncrementalSolver::Validate(std::span<const UpdateEvent> events) const {
  constexpr Requests kMaxDemand = std::numeric_limits<Requests>::max();
  const TopologyView view = View();
  std::unordered_map<NodeId, Requests> pending;
  unsigned __int128 projected_total = total_demand_;
  const auto demand_of = [&](NodeId client) {
    const auto it = pending.find(client);
    return it == pending.end() ? demand_[client] : it->second;
  };
  const auto project = [&](NodeId client, Requests old_value, Requests new_value) {
    pending[client] = new_value;
    projected_total = projected_total - old_value + new_value;
    RPT_REQUIRE(projected_total <= kMaxDemand,
                "incremental: batch would overflow the total demand");
  };
  for (const UpdateEvent& event : events) {
    if (event.kind == UpdateEvent::Kind::kCapacity) {
      RPT_REQUIRE(event.value > 0, "incremental: capacity must stay positive");
      continue;
    }
    RPT_REQUIRE(event.client < view.Size() && view.IsLive(event.client) &&
                    view.IsClient(event.client),
                "incremental: update events must target a live client leaf");
    switch (event.kind) {
      case UpdateEvent::Kind::kDemandDelta: {
        const Requests current = demand_of(event.client);
        if (event.delta < 0) {
          const Requests magnitude = NegMagnitude(event.delta);
          RPT_REQUIRE(current >= magnitude,
                      "incremental: demand delta would drop a client below zero");
          project(event.client, current, current - magnitude);
        } else {
          const Requests magnitude = static_cast<Requests>(event.delta);
          RPT_REQUIRE(current <= kMaxDemand - magnitude,
                      "incremental: demand delta would wrap through unsigned Requests");
          project(event.client, current, current + magnitude);
        }
        break;
      }
      case UpdateEvent::Kind::kClientAdd:
        RPT_REQUIRE(demand_of(event.client) == 0,
                    "incremental: kClientAdd targets a client that is already active");
        RPT_REQUIRE(event.value > 0, "incremental: kClientAdd needs a positive demand");
        project(event.client, 0, event.value);
        break;
      case UpdateEvent::Kind::kClientRemove:
        project(event.client, demand_of(event.client), 0);  // idle remove is a no-op
        break;
      default:
        RPT_CHECK(false);  // topology kinds take the clone-and-swap path
    }
  }
}

bool IncrementalSolver::Apply(std::span<const UpdateEvent> events) {
  bool has_topology = false;
  for (const UpdateEvent& event : events) has_topology |= event.IsTopology();
  if (has_topology) return ApplyTopologyBatch(events);

  Validate(events);
  touched_scratch_.clear();
  bool capacity_changed = false;
  const auto set_demand = [&](NodeId client, Requests value) {
    const Requests old = demand_[client];
    if (old == value) return;  // tables depend on the value, not the event
    demand_[client] = value;
    total_demand_ = total_demand_ - old + value;
    if (overlay_) overlay_->SetRequests(client, value);  // keep aggregates in sync
    if (engine_) engine_->SetDemand(client, value);
    touched_scratch_.push_back(client);
  };
  for (const UpdateEvent& event : events) {
    switch (event.kind) {
      case UpdateEvent::Kind::kDemandDelta:
        set_demand(event.client,
                   event.delta < 0 ? demand_[event.client] - static_cast<Requests>(-event.delta)
                                   : demand_[event.client] + static_cast<Requests>(event.delta));
        break;
      case UpdateEvent::Kind::kClientAdd:
        set_demand(event.client, event.value);
        break;
      case UpdateEvent::Kind::kClientRemove:
        set_demand(event.client, 0);
        break;
      case UpdateEvent::Kind::kCapacity:
        if (event.value != capacity_) {
          capacity_ = event.value;
          capacity_changed = true;
        }
        break;
      default:
        RPT_CHECK(false);  // unreachable: topology batches branched above
    }
  }
  stats_.events_applied += events.size();
  Resolve(touched_scratch_, /*full=*/capacity_changed);
  return feasible_;
}

// Topology batches commit via clone-and-swap: every event (topology and
// demand alike, in order) applies to a clone of the current overlay and to
// local demand/capacity copies. The overlay mutators validate before
// mutating, so any InvalidArgument propagates with the clone still local —
// the solver state is untouched. Only after the whole batch has applied do
// the members swap and the engine learn the new topology.
bool IncrementalSolver::ApplyTopologyBatch(std::span<const UpdateEvent> events) {
  constexpr Requests kMaxDemand = std::numeric_limits<Requests>::max();
  auto next = overlay_ ? std::make_unique<TreeOverlay>(*overlay_)
                       : PromoteBaseOverlay();
  std::vector<Requests> new_demand = demand_;
  Requests new_capacity = capacity_;
  std::vector<NodeId> seeds;             // dirty-chain seeds, filtered to live at commit
  std::vector<NodeId> children_changed;  // parents whose child list shrank/reordered
  std::vector<NodeId> removed;           // ids tombstoned by this batch
  std::uint64_t topology_events = 0;

  const auto set_demand = [&](NodeId client, Requests value) {
    RPT_REQUIRE(client < next->Size() && next->IsLive(client) && next->IsClient(client),
                "incremental: update events must target a live client leaf");
    next->SetRequests(client, value);  // guards the total through the chain
    new_demand[client] = value;
    seeds.push_back(client);
  };
  const auto require_live = [&](NodeId node, const char* what) {
    RPT_REQUIRE(node < next->Size() && next->IsLive(node), what);
  };

  for (const UpdateEvent& event : events) {
    switch (event.kind) {
      case UpdateEvent::Kind::kDemandDelta: {
        require_live(event.client, "incremental: update events must target a live client leaf");
        const Requests current = new_demand[event.client];
        if (event.delta < 0) {
          const Requests magnitude = NegMagnitude(event.delta);
          RPT_REQUIRE(current >= magnitude,
                      "incremental: demand delta would drop a client below zero");
          set_demand(event.client, current - magnitude);
        } else {
          const Requests magnitude = static_cast<Requests>(event.delta);
          RPT_REQUIRE(current <= kMaxDemand - magnitude,
                      "incremental: demand delta would wrap through unsigned Requests");
          set_demand(event.client, current + magnitude);
        }
        break;
      }
      case UpdateEvent::Kind::kClientAdd:
        require_live(event.client, "incremental: update events must target a live client leaf");
        RPT_REQUIRE(new_demand[event.client] == 0,
                    "incremental: kClientAdd targets a client that is already active");
        RPT_REQUIRE(event.value > 0, "incremental: kClientAdd needs a positive demand");
        set_demand(event.client, event.value);
        break;
      case UpdateEvent::Kind::kClientRemove:
        set_demand(event.client, 0);
        break;
      case UpdateEvent::Kind::kCapacity:
        RPT_REQUIRE(event.value > 0, "incremental: capacity must stay positive");
        new_capacity = event.value;
        break;
      case UpdateEvent::Kind::kAttachSubtree: {
        ++topology_events;
        const NodeId first = next->AttachSubtree(event.client, event.spec);
        new_demand.resize(next->Size(), 0);
        for (NodeId id = first; id < next->Size(); ++id) {
          new_demand[id] = next->RequestsOf(id);
          seeds.push_back(id);  // fresh ids have no tables yet — always dirty
        }
        break;
      }
      case UpdateEvent::Kind::kDetachSubtree: {
        ++topology_events;
        require_live(event.client, "incremental: detach targets a dead or out-of-range node");
        const NodeId parent = next->Parent(event.client);
        std::vector<NodeId> dead;
        next->DetachSubtree(event.client, &dead);  // rejects the root itself
        for (const NodeId id : dead) new_demand[id] = 0;
        removed.insert(removed.end(), dead.begin(), dead.end());
        seeds.push_back(parent);
        children_changed.push_back(parent);
        break;
      }
      case UpdateEvent::Kind::kMigrateSubtree: {
        ++topology_events;
        require_live(event.client, "incremental: migrate targets a dead or out-of-range node");
        const NodeId old_parent = next->Parent(event.client);
        next->MigrateSubtree(event.client, event.parent, event.value);
        seeds.push_back(old_parent);
        seeds.push_back(event.parent);
        // The moved root keeps valid tables, but it must still be seeded:
        // the engines' prefix-reuse scan assumes every child APPENDED to a
        // parent's list is dirty (true for attach — fresh ids have no
        // tables). A clean migrated-in child would let the scan start past
        // its index against stored prefixes that never folded it in.
        seeds.push_back(event.client);
        // The old parent's child list lost a middle entry (stored prefixes
        // index the old list) and needs a stamped full rebuild; the new
        // parent only appended a now-dirty child, which the exact scan
        // handles.
        children_changed.push_back(old_parent);
        break;
      }
      case UpdateEvent::Kind::kLinkCapacity:
        ++topology_events;
        require_live(event.client, "incremental: link event targets a dead or out-of-range node");
        next->SetLinkDelta(event.client, event.value);
        // No seeds: F tables depend on subtree demands and W only, never on
        // edge lengths — the placement is unchanged.
        break;
    }
  }

  // Commit. Nothing below throws on valid input.
  overlay_ = std::move(next);
  demand_ = std::move(new_demand);
  total_demand_ = overlay_->TotalRequests();
  const bool capacity_changed = new_capacity != capacity_;
  capacity_ = new_capacity;
  stats_.events_applied += events.size();
  stats_.topology_events += topology_events;

  // Later events in the batch may have killed nodes an earlier event
  // recorded (attach-then-detach, detach below a detach): drop dead entries
  // — a dead seed's chain is either gone or re-seeded via its parent.
  const auto drop_dead = [this](std::vector<NodeId>& ids) {
    std::erase_if(ids, [this](NodeId id) { return !overlay_->IsLive(id); });
  };
  drop_dead(seeds);
  drop_dead(children_changed);

  if (engine_) {
    engine_->ApplyTopology(TopologyView(*overlay_), children_changed, removed);
  }
  Resolve(seeds, /*capacity_changed=*/capacity_changed);
  return feasible_;
}

void IncrementalSolver::Resolve(std::span<const NodeId> touched, bool full) {
  ++stats_.resolves;
  const TopologyView view = View();

  if (options_.policy == Policy::kSingle) {
    // The batch pass over the current view, under either engine. Single-nod
    // needs every demand to fit one server (r_i <= W); above that the state
    // is infeasible — a state, not an error.
    ++stats_.full_recomputes;
    stats_.nodes_recomputed += view.LiveCount();
    feasible_ = true;
    for (const NodeId client : view.Clients()) {
      if (demand_[client] > capacity_) {
        feasible_ = false;
        break;
      }
    }
    solution_ = feasible_ ? single::SolveSingleNod(view, capacity_, demand_).solution
                          : Solution{};
    solution_.Canonicalize();
    return;
  }

  if (options_.engine == Engine::kFullResolve) {
    // The oracle: exactly what a caller without the incremental engine
    // would run — compact the current state through TreeBuilder::Build,
    // solve from scratch, and translate the solution back into view ids.
    ++stats_.full_recomputes;
    stats_.nodes_recomputed += view.LiveCount();
    const Materialized materialized = MaterializeCompact();
    auto result = multiple::SolveMultipleNodDp(materialized.instance);
    feasible_ = result.feasible;
    if (!feasible_) {
      solution_ = Solution{};
      return;
    }
    if (!HasTopologyChanges()) {
      solution_ = std::move(result.solution);  // identity map, already canonical
      return;
    }
    // remap is view id -> compact id; the solution needs the inverse.
    std::vector<NodeId> inverse(materialized.instance.GetTree().Size(), kInvalidNode);
    for (NodeId view_id = 0; view_id < materialized.remap.size(); ++view_id) {
      if (materialized.remap[view_id] != kInvalidNode) {
        inverse[materialized.remap[view_id]] = view_id;
      }
    }
    solution_ = MapNodeIds(result.solution, inverse);
    solution_.Canonicalize();  // view ids sort differently than compact ids
    return;
  }

  // Incremental Multiple-NoD: dirty-chain recompute, full pass only when
  // forced (initial solve, capacity change).
  RPT_CHECK(engine_.has_value());
  if (full) {
    engine_->SetCapacity(capacity_);
    engine_->ComputeAll();
    ++stats_.full_recomputes;
  } else {
    engine_->RecomputeDirty(touched);
  }
  stats_.nodes_recomputed += engine_->LastPassNodes();
  stats_.nodes_reused += view.LiveCount() - engine_->LastPassNodes();
  feasible_ = engine_->Feasible();
  solution_ = feasible_ ? engine_->Backtrack() : Solution{};
}

}  // namespace rpt::incremental
