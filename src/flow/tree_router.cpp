#include "flow/tree_router.hpp"

#include <algorithm>
#include <utility>

namespace rpt::flow {

namespace {

/// Lowest root distance a server of `client` may have: DistFromRoot(client)
/// - dmax, saturated at 0 (root distances are < 2^63 and dmax may be the
/// kNoDistanceLimit sentinel, so the difference is taken only when positive).
Distance ServerFloor(const Instance& instance, NodeId client) {
  const Distance dist = instance.GetTree().DistFromRoot(client);
  return dist > instance.Dmax() ? dist - instance.Dmax() : 0;
}

}  // namespace

MultipleRouter::MultipleRouter(const Instance& instance)
    : instance_(instance), tree_(instance.GetTree()), is_replica_(tree_.Size(), 0) {
  for (const NodeId client : tree_.Clients()) {
    if (tree_.RequestsOf(client) > 0 && ServerFloor(instance_, client) > 0) {
      counters_only_ = false;
      break;
    }
  }
  if (counters_only_) {
    pending_.resize(tree_.Size());
  } else {
    root_of_.resize(tree_.Size());
    heap_.reserve(tree_.ClientCount());
  }
}

bool MultipleRouter::Feasible(std::span<const NodeId> replicas) {
  for (const NodeId replica : replicas) {
    RPT_REQUIRE(replica < tree_.Size(), "MultipleRouter: replica id out of range");
  }
  for (const NodeId replica : replicas) is_replica_[replica] = 1;
  const bool feasible = counters_only_ ? FeasibleCounters() : FeasibleHeaps();
  for (const NodeId replica : replicas) is_replica_[replica] = 0;
  return feasible;
}

// Every pending request reaches every ancestor, so only the count matters:
// a replica absorbs min(pending, W) and the rest moves up.
bool MultipleRouter::FeasibleCounters() {
  std::fill(pending_.begin(), pending_.end(), 0);
  const Requests capacity = instance_.Capacity();
  Requests unserved = 0;  // pending after the root
  for (const NodeId node : tree_.PostOrder()) {
    Requests pending = pending_[node] + tree_.RequestsOf(node);
    if (is_replica_[node]) pending -= std::min(pending, capacity);
    if (node == tree_.Root()) {
      unserved = pending;
    } else {
      pending_[tree_.Parent(node)] += pending;
    }
  }
  return unserved == 0;
}

bool MultipleRouter::FeasibleHeaps() {
  std::fill(root_of_.begin(), root_of_.end(), kNil);
  heap_.clear();
  const Requests capacity = instance_.Capacity();
  for (const NodeId node : tree_.PostOrder()) {
    std::uint32_t root = root_of_[node];
    if (const Requests demand = tree_.RequestsOf(node); demand > 0) {
      const auto leaf = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(HeapNode{ServerFloor(instance_, node), demand, kNil, kNil, 1});
      root = Merge(root, leaf);
    }
    if (is_replica_[node]) {
      // Serve the requests whose reach ends lowest (highest floor) first.
      for (Requests left = capacity; left > 0 && root != kNil;) {
        HeapNode& top = heap_[root];
        const Requests served = std::min(left, top.amount);
        top.amount -= served;
        left -= served;
        if (top.amount == 0) root = Merge(top.left, top.right);
      }
    }
    if (root == kNil) continue;
    if (node == tree_.Root()) return false;
    const NodeId parent = tree_.Parent(node);
    if (heap_[root].floor > tree_.DistFromRoot(parent)) return false;
    root_of_[parent] = Merge(root_of_[parent], root);
  }
  return true;
}

// Leftist-heap merge. Recursion follows right spines only, whose lengths
// are at most log2(size + 1), so the depth stays logarithmic.
std::uint32_t MultipleRouter::Merge(std::uint32_t a, std::uint32_t b) {
  if (a == kNil) return b;
  if (b == kNil) return a;
  if (heap_[a].floor < heap_[b].floor) std::swap(a, b);
  const std::uint32_t right = Merge(heap_[a].right, b);
  HeapNode& top = heap_[a];
  top.right = right;
  if (Rank(top.left) < Rank(top.right)) std::swap(top.left, top.right);
  top.rank = Rank(top.right) + 1;
  return a;
}

}  // namespace rpt::flow
