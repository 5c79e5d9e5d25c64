#include "multiple/prune.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "flow/assignment.hpp"
#include "flow/tree_router.hpp"

namespace rpt::multiple {

PruneResult PruneReplicas(const Instance& instance, const Solution& solution) {
  std::vector<NodeId> replicas = solution.replicas;
  std::sort(replicas.begin(), replicas.end());
  replicas.erase(std::unique(replicas.begin(), replicas.end()), replicas.end());

  // Lightest-load replicas are the most promising removal candidates.
  std::unordered_map<NodeId, Requests> load;
  for (const ServiceEntry& entry : solution.assignment) load[entry.server] += entry.amount;
  std::stable_sort(replicas.begin(), replicas.end(), [&load](NodeId a, NodeId b) {
    const auto la = load.find(a);
    const auto lb = load.find(b);
    const Requests va = la == load.end() ? 0 : la->second;
    const Requests vb = lb == load.end() ? 0 : lb->second;
    return va < vb;
  });

  // Probes answer yes/no with the tree router; Dinic routes only the final
  // set, which is the candidate of the last accepted removal (or the input).
  flow::MultipleRouter router(instance);
  RPT_REQUIRE(router.Feasible(replicas), "PruneReplicas: input placement is not routable");

  PruneResult result;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      std::vector<NodeId> candidate;
      candidate.reserve(replicas.size() - 1);
      for (std::size_t j = 0; j < replicas.size(); ++j) {
        if (j != i) candidate.push_back(replicas[j]);
      }
      if (router.Feasible(candidate)) {
        replicas = std::move(candidate);
        ++result.removed;
        changed = true;
        break;  // restart: loads shifted, earlier candidates may free up
      }
    }
  }

  auto routing = flow::RouteMultiple(instance, replicas);
  RPT_CHECK(routing.has_value());
  result.solution.replicas = std::move(replicas);
  result.solution.assignment = std::move(*routing);
  result.solution.Canonicalize();
  return result;
}

}  // namespace rpt::multiple
