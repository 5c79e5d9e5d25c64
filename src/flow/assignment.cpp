#include "flow/assignment.hpp"

#include <algorithm>
#include <tuple>

#include "flow/dinic.hpp"
#include "flow/tree_router.hpp"

namespace rpt::flow {

std::optional<std::vector<ServiceEntry>> RouteMultiple(const Instance& instance,
                                                       std::span<const NodeId> replicas) {
  const Tree& tree = instance.GetTree();

  // Compact ids: 0 = source, 1 = sink, then clients, then replicas. The
  // replica lookup is a flat NodeId-indexed column (kNoFlowNode when
  // the node hosts no replica), so network construction is hash-free and
  // the edge order — hence the routed assignment — is deterministic in the
  // order replicas were passed.
  constexpr std::size_t kNoFlowNode = static_cast<std::size_t>(-1);
  const auto clients = tree.Clients();
  std::vector<std::size_t> flow_node_of(tree.Size(), kNoFlowNode);
  std::vector<NodeId> replica_order;
  replica_order.reserve(replicas.size());
  for (NodeId replica : replicas) {
    RPT_REQUIRE(replica < tree.Size(), "RouteMultiple: replica id out of range");
    if (flow_node_of[replica] != kNoFlowNode) continue;  // duplicate replica id
    flow_node_of[replica] = 2 + clients.size() + replica_order.size();
    replica_order.push_back(replica);
  }

  MaxFlow net(2 + clients.size() + replica_order.size());
  Requests total = 0;
  std::vector<std::tuple<NodeId, NodeId, EdgeId>> routed_edges;  // (client, server, edge)
  std::vector<std::size_t> eligible;  // flow-node ids of one client's servers
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const NodeId client = clients[c];
    const Requests demand = tree.RequestsOf(client);
    if (demand == 0) continue;
    total += demand;
    net.AddEdge(0, 2 + c, demand);
    // A client's eligible servers all sit on its root path, so walk the
    // ancestor chain (O(depth)) instead of scanning the whole replica set.
    // Sorting by flow-node id restores the replica-argument order, keeping
    // the edge order — and therefore the routed assignment — exactly what a
    // full replica scan would have produced.
    eligible.clear();
    for (NodeId ancestor = client;; ancestor = tree.Parent(ancestor)) {
      if (flow_node_of[ancestor] != kNoFlowNode && instance.CanServe(client, ancestor)) {
        eligible.push_back(flow_node_of[ancestor]);
      }
      if (ancestor == tree.Root()) break;
    }
    std::sort(eligible.begin(), eligible.end());
    for (const std::size_t flow_node : eligible) {
      const NodeId replica = replica_order[flow_node - 2 - clients.size()];
      routed_edges.emplace_back(client, replica, net.AddEdge(2 + c, flow_node, demand));
    }
  }
  for (const NodeId replica : replica_order) {
    net.AddEdge(flow_node_of[replica], 1, instance.Capacity());
  }

  if (net.Compute(0, 1) != total) return std::nullopt;

  std::vector<ServiceEntry> assignment;
  assignment.reserve(routed_edges.size());
  for (const auto& [client, server, edge] : routed_edges) {
    const FlowValue amount = net.FlowOn(edge);
    if (amount > 0) assignment.push_back(ServiceEntry{client, server, amount});
  }
  return assignment;
}

bool MultipleFeasible(const Instance& instance, std::span<const NodeId> replicas) {
  return MultipleRouter(instance).Feasible(replicas);
}

}  // namespace rpt::flow
