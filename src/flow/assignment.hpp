// Request routing for a fixed replica placement under the Multiple policy:
// RouteMultiple builds the assignment with max-flow, MultipleFeasible only
// answers yes/no with the tree router.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "model/instance.hpp"
#include "model/solution.hpp"

namespace rpt::flow {

/// Checks whether the given replica set can serve all requests under the
/// Multiple policy (splitting allowed) with capacity W and distance dmax.
/// On success returns the full routing; otherwise std::nullopt.
///
/// Network: source -> client (cap r_i) -> each eligible replica (cap r_i)
/// -> sink (cap W). Feasible iff max flow == total requests.
[[nodiscard]] std::optional<std::vector<ServiceEntry>> RouteMultiple(
    const Instance& instance, std::span<const NodeId> replicas);

/// True iff the placement is feasible under Multiple. Runs the exact tree
/// router (flow/tree_router.hpp), not max-flow; probe loops that call it
/// many times on one instance should hold a MultipleRouter instead.
[[nodiscard]] bool MultipleFeasible(const Instance& instance, std::span<const NodeId> replicas);

}  // namespace rpt::flow
