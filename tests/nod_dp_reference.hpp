// Test-only oracle: the Multiple-NoD tree-knapsack DP in the demand domain,
// as src/multiple/nod_dp_engine.cpp computed it before the engine moved to
// inverse staircases. Every node keeps its F table (F_j(u) = min replicas in
// subtree(j) forwarding at most u requests above j, size subtree demand + 1,
// kInf where nothing is feasible) and every internal node keeps its prefix
// tables G_0..G_k. The forward pass is the serial post-order of the old
// level sweep (the tables never depended on the order); the backtrack is the
// old SplitBudget prefix walk and pending-chain absorption, without the
// fragment cache (replay never changed a byte).
//
// Header-only so tests can include it without a build-system entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "model/solution.hpp"
#include "tree/tree.hpp"

namespace rpt::multiple::reference {

using Cost = std::uint32_t;
using CostTable = std::vector<Cost>;
inline constexpr Cost kInf = std::numeric_limits<Cost>::max() / 2;

/// Monotone min-plus convolution, out[k] = min_{i+j<=k} a[i] + b[j], run in
/// the cost domain over both inputs' inverse staircases (the old
/// NodDpEngine::Convolve, scratch arena replaced by vectors).
inline CostTable Convolve(const CostTable& a, const CostTable& b) {
  struct Stair {
    Cost vmin = 0;
    Cost vmax = 0;
    std::vector<std::size_t> inv;  // inv[c - vmin] = smallest u with table[u] <= c
  };
  const auto build = [](const CostTable& table) {
    std::size_t f = 0;
    while (table[f] >= kInf) ++f;
    Stair s;
    s.vmax = table[f];
    s.vmin = table.back();
    s.inv.assign(static_cast<std::size_t>(s.vmax - s.vmin) + 1, f);
    Cost cur = s.vmax;
    for (std::size_t u = f + 1; u < table.size(); ++u) {
      while (cur > table[u]) {
        --cur;
        s.inv[cur - s.vmin] = u;
      }
    }
    return s;
  };
  const Stair lhs = build(a);
  const Stair rhs = build(b);
  const Cost cmin = lhs.vmin + rhs.vmin;
  const Cost cmax = lhs.vmax + rhs.vmax;
  std::vector<std::size_t> out_inv(static_cast<std::size_t>(cmax - cmin) + 1,
                                   std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < lhs.inv.size(); ++i) {
    for (std::size_t j = 0; j < rhs.inv.size(); ++j) {
      out_inv[i + j] = std::min(out_inv[i + j], lhs.inv[i] + rhs.inv[j]);
    }
  }
  for (std::size_t c = 1; c < out_inv.size(); ++c) {
    out_inv[c] = std::min(out_inv[c], out_inv[c - 1]);
  }
  CostTable out(a.size() + b.size() - 1, kInf);
  std::size_t hi = out.size();
  for (Cost c = cmin; c <= cmax && hi > 0; ++c) {
    const std::size_t u = out_inv[c - cmin];
    for (std::size_t k = u; k < hi; ++k) out[k] = c;
    hi = std::min(hi, u);
  }
  return out;
}

class NodDpReference {
 public:
  NodDpReference(const Tree& tree, Requests capacity)
      : tree_(tree), capacity_(capacity), f_(tree.Size()), prefixes_(tree.Size()) {}

  /// Installs a demand-domain boundary table at a client leaf (size = the
  /// leaf's demand + 1), for AssignImportedBudgets.
  void ImportLeafTable(NodeId leaf, CostTable table) { imported_[leaf] = std::move(table); }

  void Compute() {
    for (const NodeId node : tree_.PostOrder()) ProcessNode(node);
  }

  [[nodiscard]] const CostTable& TableOf(NodeId node) const { return f_[node]; }
  [[nodiscard]] bool Feasible() const { return f_[tree_.Root()][0] < kInf; }

  struct Budgeted {
    Solution solution;
    std::vector<std::pair<NodeId, Requests>> forwarded;
  };

  [[nodiscard]] Budgeted BacktrackWithBudget(std::size_t budget) {
    Budgeted out;
    out.forwarded = BacktrackNode(tree_.Root(), budget, out.solution);
    return out;
  }

  [[nodiscard]] Solution Backtrack() {
    Budgeted out = BacktrackWithBudget(0);
    RPT_CHECK(out.forwarded.empty());
    out.solution.Canonicalize();
    return out.solution;
  }

  /// (leaf, clamped budget) for every imported leaf, ascending by leaf.
  [[nodiscard]] std::vector<std::pair<NodeId, std::size_t>> AssignImportedBudgets() const {
    std::vector<std::pair<NodeId, std::size_t>> out;
    std::vector<std::pair<NodeId, std::size_t>> stack{{tree_.Root(), 0}};
    while (!stack.empty()) {
      const auto [node, budget] = stack.back();
      stack.pop_back();
      const std::size_t u = std::min(budget, f_[node].size() - 1);
      if (tree_.IsClient(node)) {
        if (imported_.contains(node)) out.emplace_back(node, u);
        continue;
      }
      const auto kids = tree_.Children(node);
      std::vector<std::size_t> child_budget(kids.size());
      SplitBudget(node, u, child_budget.data());
      for (std::size_t k = 0; k < kids.size(); ++k) stack.emplace_back(kids[k], child_budget[k]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void ProcessNode(NodeId node) {
    CostTable& table = f_[node];
    if (tree_.IsClient(node)) {
      if (const auto it = imported_.find(node); it != imported_.end()) {
        table = it->second;
        return;
      }
      const Requests r = tree_.RequestsOf(node);
      table.assign(static_cast<std::size_t>(r) + 1, kInf);
      table[static_cast<std::size_t>(r)] = 0;  // no replica: forward everything
      const Requests min_forward = r > capacity_ ? r - capacity_ : 0;
      for (std::size_t u = static_cast<std::size_t>(min_forward); u <= r; ++u) {
        table[u] = std::min<Cost>(table[u], 1);  // replica: serve min(r, W) locally
      }
      MakeMonotone(table);
      return;
    }
    const auto kids = tree_.Children(node);
    auto& prefix = prefixes_[node];
    prefix.assign(kids.size() + 1, {});
    prefix[0].assign(1, 0);
    for (std::size_t c = 0; c < kids.size(); ++c) {
      prefix[c + 1] = Convolve(prefix[c], f_[kids[c]]);
    }
    const CostTable& g = prefix.back();
    const std::size_t total = g.size() - 1;
    table.assign(total + 1, kInf);
    for (std::size_t u = 0; u <= total; ++u) {
      table[u] = g[u];  // no replica
      const std::size_t relaxed = std::min<std::size_t>(
          total, u + static_cast<std::size_t>(std::min<Requests>(capacity_, total)));
      if (g[relaxed] < kInf) table[u] = std::min<Cost>(table[u], 1 + g[relaxed]);
    }
    MakeMonotone(table);
  }

  static void MakeMonotone(CostTable& table) {
    for (std::size_t u = 1; u < table.size(); ++u) table[u] = std::min(table[u], table[u - 1]);
  }

  bool SplitBudget(NodeId node, std::size_t u, std::size_t* child_budget) const {
    const Cost cost = f_[node][u];
    RPT_CHECK(cost < kInf);
    const auto& prefix = prefixes_[node];
    const CostTable& g = prefix.back();
    const std::size_t total = g.size() - 1;
    const bool use_replica = g[u] != cost;  // prefer the replica-free branch
    std::size_t budget = u;
    Cost remaining_cost = cost;
    if (use_replica) {
      budget = std::min<std::size_t>(
          total, u + static_cast<std::size_t>(std::min<Requests>(capacity_, total)));
      RPT_CHECK(cost >= 1 && g[budget] == cost - 1);
      remaining_cost = cost - 1;
    }
    const auto kids = tree_.Children(node);
    std::size_t v = budget;
    Cost target = remaining_cost;
    for (std::size_t k = kids.size(); k-- > 0;) {
      const CostTable& before = prefix[k];
      const CostTable& child_table = f_[kids[k]];
      bool found = false;
      // Smallest child budget achieving the target keeps ancestors safest.
      for (std::size_t b = 0; b < child_table.size() && b <= v; ++b) {
        if (child_table[b] >= kInf) continue;
        const std::size_t rest_clamped = std::min(v - b, before.size() - 1);
        if (before[rest_clamped] < kInf && before[rest_clamped] + child_table[b] == target) {
          child_budget[k] = b;
          target -= child_table[b];
          v = rest_clamped;
          found = true;
          break;
        }
      }
      RPT_CHECK(found);
    }
    return use_replica;
  }

  // Pending requests in chain order; a replica absorbs a prefix.
  std::vector<std::pair<NodeId, Requests>> BacktrackNode(NodeId node, std::size_t u,
                                                         Solution& solution) {
    const CostTable& table = f_[node];
    u = std::min(u, table.size() - 1);
    const Cost cost = table[u];
    RPT_CHECK(cost < kInf);
    if (tree_.IsClient(node)) {
      RPT_CHECK(!imported_.contains(node));
      const Requests r = tree_.RequestsOf(node);
      if (r == 0) return {};
      if (cost == 0) return {{node, r}};
      const Requests local = std::min(r, capacity_);
      solution.replicas.push_back(node);
      solution.assignment.push_back(ServiceEntry{node, node, local});
      if (r > local) return {{node, r - local}};
      return {};
    }
    const auto kids = tree_.Children(node);
    std::vector<std::size_t> child_budget(kids.size());
    const bool use_replica = SplitBudget(node, u, child_budget.data());
    std::vector<std::pair<NodeId, Requests>> incoming;
    for (std::size_t k = 0; k < kids.size(); ++k) {
      const auto from_child = BacktrackNode(kids[k], child_budget[k], solution);
      incoming.insert(incoming.end(), from_child.begin(), from_child.end());
    }
    if (!use_replica) return incoming;
    solution.replicas.push_back(node);
    Requests to_serve = capacity_;
    std::size_t head = 0;
    for (; head < incoming.size() && to_serve > 0; ++head) {
      auto& [client, amount] = incoming[head];
      const Requests take = std::min(amount, to_serve);
      solution.assignment.push_back(ServiceEntry{client, node, take});
      to_serve -= take;
      amount -= take;
      if (amount > 0) break;
    }
    incoming.erase(incoming.begin(), incoming.begin() + static_cast<std::ptrdiff_t>(head));
    return incoming;
  }

  const Tree& tree_;
  Requests capacity_;
  std::vector<CostTable> f_;
  std::vector<std::vector<CostTable>> prefixes_;
  std::map<NodeId, CostTable> imported_;
};

}  // namespace rpt::multiple::reference
