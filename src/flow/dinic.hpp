// Dinic's maximum-flow algorithm.
//
// flow::RouteMultiple runs it to build the Multiple-policy assignment for a
// fixed replica placement: requests can be routed iff the max flow in the
// bipartite client -> eligible-server network (source -> client with
// capacity r_i, server -> sink with capacity W) saturates all client arcs,
// and the per-arc flows are the assignment. Yes/no feasibility probes use
// the exact tree router (flow/tree_router.hpp) instead; the tests hold the
// router to this network's verdict.
//
// Complexity O(V^2 E) in general, O(E sqrt(V)) on unit-ish bipartite graphs —
// far more than enough for the instance sizes the exact solver enumerates.
#pragma once

#include <cstdint>
#include <vector>

#include "support/common.hpp"

namespace rpt::flow {

/// Flow value type (request counts fit easily).
using FlowValue = std::uint64_t;

/// Edge handle returned by AddEdge; use it to query routed flow afterwards.
using EdgeId = std::size_t;

/// A reusable max-flow network. Add nodes and edges, call Compute, then read
/// per-edge flows. Compute runs Dinic to completion; a further Compute call
/// on the same object continues on the residual graph and reports only the
/// additional flow (0 for a repeated query). The BFS level/queue scratch
/// lives in the object and is reused across phases and Compute calls, so
/// the solve loop performs no per-phase allocation.
class MaxFlow {
 public:
  /// Creates a network with `node_count` nodes (ids 0..node_count-1).
  explicit MaxFlow(std::size_t node_count);

  /// Adds a directed edge u -> v with the given capacity; returns its handle.
  EdgeId AddEdge(std::size_t from, std::size_t to, FlowValue capacity);

  /// Runs Dinic from `source` to `sink`; returns the max flow value.
  /// Degenerate queries (source == sink, e.g. on a single-node network)
  /// report zero flow.
  FlowValue Compute(std::size_t source, std::size_t sink);

  /// Flow routed on an edge (only meaningful after Compute).
  [[nodiscard]] FlowValue FlowOn(EdgeId edge) const;

  /// Number of nodes.
  [[nodiscard]] std::size_t NodeCount() const noexcept { return head_.size(); }

 private:
  struct Edge {
    std::uint32_t to;
    std::uint32_t next;  // next edge index in adjacency list, or kNil
    FlowValue capacity;  // residual capacity
  };
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  bool Bfs(std::size_t source, std::size_t sink);
  FlowValue Dfs(std::size_t node, std::size_t sink, FlowValue limit);

  std::vector<Edge> edges_;          // paired: edge 2k is forward, 2k+1 backward
  std::vector<std::uint32_t> head_;  // adjacency heads
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> iter_;
  std::vector<std::uint32_t> queue_;  // reusable BFS queue (head-index scan)
  std::vector<FlowValue> initial_capacity_;  // per forward edge, for FlowOn
};

}  // namespace rpt::flow
