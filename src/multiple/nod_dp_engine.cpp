#include "multiple/nod_dp_engine.hpp"

#include <algorithm>
#include <utility>

namespace rpt::multiple {

namespace {

using Cost = NodDpEngine::Cost;
constexpr Cost kInf = NodDpEngine::kInfCost;
constexpr Requests kEmptyProduct[1] = {0};  // G_0: forward 0 at cost 0

// Infimal convolution of two convex inverse staircases: their slope lists
// merged in non-increasing order, out[c] = a[i] + b[j] after c steps.
// Writes len(a) + len(b) + 1 entries.
void MergeSlopes(std::span<const Requests> a, std::span<const Requests> b, Requests* out) {
  const std::size_t la = a.size() - 1;
  const std::size_t lb = b.size() - 1;
  std::size_t i = 0;
  std::size_t j = 0;
  out[0] = a[0] + b[0];
  for (std::size_t c = 1; c <= la + lb; ++c) {
    if (j == lb || (i < la && a[i] - a[i + 1] >= b[j] - b[j + 1])) {
      ++i;
    } else {
      ++j;
    }
    out[c] = a[i] + b[j];
  }
}

// The node's own replica step, F(u) = min(G(u), 1 + G(u + W)) closed under
// monotonicity: one slope W inserted among G's slopes, the sum clipped at
// the demand G[0]. Returns len(F) <= len(G) + 1.
std::size_t InsertCapacity(std::span<const Requests> g, Requests capacity, Requests* out) {
  const std::size_t lg = g.size() - 1;
  std::size_t i = 0;
  std::size_t len = 0;
  bool inserted = false;
  out[0] = g[0];
  while (out[len] > 0) {
    Requests slope = 0;
    if (!inserted && (i == lg || capacity >= g[i] - g[i + 1])) {
      slope = capacity;
      inserted = true;
    } else if (i < lg) {
      slope = g[i] - g[i + 1];
      ++i;
    } else {
      break;
    }
    out[len + 1] = out[len] > slope ? out[len] - slope : 0;
    ++len;
  }
  return len;
}

}  // namespace

Cost NodDpEngine::CostAt(std::span<const Requests> inv, Requests u) {
  if (u < inv.back()) return kInf;
  const auto it = std::partition_point(inv.begin(), inv.end(), [u](Requests x) { return x > u; });
  return static_cast<Cost>(it - inv.begin());
}

NodDpEngine::NodDpEngine(TopologyView view, Requests capacity)
    : view_(view),
      capacity_(capacity),
      demand_(view.Size()),
      subtree_demand_(view.Size()),
      block_(view.Size()),
      f_len_(view.Size(), 0),
      last_dirty_pass_(view.Size(), 0),
      force_prefix_rebuild_(view.Size(), 0) {
  RPT_REQUIRE(capacity_ > 0, "NodDpEngine: capacity must be positive");
  for (NodeId id = 0; id < view_.Size(); ++id) {
    if (!view_.IsLive(id)) continue;
    demand_[id] = view_.RequestsOf(id);
    subtree_demand_[id] = view_.SubtreeRequests(id);
  }
}

void NodDpEngine::SetDemand(NodeId client, Requests demand) {
  RPT_REQUIRE(view_.IsLive(CheckNode(client)), "NodDpEngine: demand belongs to live nodes");
  RPT_REQUIRE(view_.IsClient(client), "NodDpEngine: demand belongs to client leaves");
  const Requests old = demand_[client];
  if (old == demand) return;
  demand_[client] = demand;
  for (NodeId cur = client;; cur = view_.Parent(cur)) {
    subtree_demand_[cur] = subtree_demand_[cur] - old + demand;
    if (cur == view_.Root()) break;
  }
}

void NodDpEngine::ApplyTopology(TopologyView view, std::span<const NodeId> children_changed,
                                std::span<const NodeId> removed) {
  view_ = view;
  const std::size_t n = view_.Size();
  demand_.resize(n, 0);
  subtree_demand_.resize(n, 0);
  block_.resize(n);
  f_len_.resize(n, 0);
  last_dirty_pass_.resize(n, 0);
  force_prefix_rebuild_.resize(n, 0);
  frag_.resize(n);
  // Demand mirrors refresh wholesale: the overlay's request column is
  // authoritative after attach/detach (O(n), dwarfed by the DP work the
  // batch triggers anyway).
  for (NodeId id = 0; id < n; ++id) {
    if (!view_.IsLive(id)) continue;
    demand_[id] = view_.RequestsOf(id);
    subtree_demand_[id] = view_.SubtreeRequests(id);
  }
  for (const NodeId dead : removed) {
    CheckNode(dead);
    // Free the dead subtree's tables and reclaim its fragment budget; its
    // slots stay allocated (ids are never reused) but no live traversal
    // reaches them.
    block_[dead] = InvTable{};
    f_len_[dead] = 0;
    frag_entries_total_ -= frag_[dead].EntryCount();
    frag_[dead] = FragmentCache{};
    last_dirty_pass_[dead] = 0;
  }
  for (const NodeId parent : children_changed) {
    RPT_REQUIRE(view_.IsLive(CheckNode(parent)),
                "NodDpEngine::ApplyTopology: changed parent must be live");
    // The stored prefixes index the OLD child list; stamp the node so the
    // next pass (pass_ + 1) rebuilds its chain from child 0. Appends don't
    // need this: prefix[i] still covers children [0, i) and the appended
    // child is dirty, so the normal first-dirty-child scan is exact.
    force_prefix_rebuild_[parent] = pass_ + 1;
  }
}

void NodDpEngine::SetCapacity(Requests capacity) {
  RPT_REQUIRE(capacity > 0, "NodDpEngine: capacity must be positive");
  if (capacity == capacity_) return;
  capacity_ = capacity;
  computed_ = false;  // every transition depends on W: full recompute needed
}

std::span<const Requests> NodDpEngine::FOf(NodeId node, ClientBuf& buf) const {
  if (!view_.IsClient(node)) {
    const InvTable& block = block_[node];
    return std::span<const Requests>(block).last(std::size_t{f_len_[node]} + 1);
  }
  if (!imported_.empty()) {
    const auto it = imported_.find(node);
    if (it != imported_.end()) return it->second;
  }
  const Requests r = demand_[node];
  buf[0] = r;
  if (r == 0) return std::span<const Requests>(buf.data(), 1);
  buf[1] = r - std::min(r, capacity_);  // one replica serves min(r, W) locally
  return std::span<const Requests>(buf.data(), 2);
}

NodDpEngine::InvTable NodDpEngine::TableOf(NodeId node) const {
  RPT_REQUIRE(computed_, "NodDpEngine: TableOf requires up-to-date tables");
  ClientBuf buf;
  const auto f = FOf(CheckNode(node), buf);
  return InvTable(f.begin(), f.end());
}

// Recomputes the block of `node` (for internal nodes, the stored prefixes
// from child index `first_child` on, then F) — all children must already be
// up to date, which the sweep order guarantees. The block depends only on
// (children tables, capacity), never on which pass runs the node, so an
// incremental recompute writes exactly what a full pass would.
void NodDpEngine::ProcessNode(NodeId node, std::size_t first_child, Counters& counters) {
  if (view_.IsClient(node)) {
    // A plain client's table is derived from its demand when read; an
    // imported boundary table is already stored.
    f_len_[node] = demand_[node] > 0 ? 1 : 0;
    if (!imported_.empty()) {
      const auto it = imported_.find(node);
      if (it != imported_.end()) {
        f_len_[node] = static_cast<std::uint32_t>(it->second.size() - 1);
        counters.entries += it->second.size();
      }
    }
    return;
  }
  // Block layout: G_2 .. G_k, then F. len(G_i) is the summed length of the
  // first i children's tables (a merge concatenates slope lists), so every
  // offset follows from the children. Reuse G_2 .. G_first_child verbatim.
  const auto kids = view_.Children(node);
  InvTable& block = block_[node];
  std::size_t keep = 0;       // block entries of the reused prefixes
  std::size_t need = 0;       // block entries of all prefixes
  std::size_t len = 0;        // len(G_first_child)
  std::size_t total_len = 0;  // len(G_i) as i advances, finally len(G_k)
  for (std::size_t i = 0; i < kids.size(); ++i) {
    total_len += f_len_[kids[i]];
    if (i >= 1) (i < first_child ? keep : need) += total_len + 1;  // G_{i+1} is stored
    if (i + 1 == first_child) len = total_len;
  }
  need += keep;
  block.resize(need + total_len + 2);  // F holds at most len(G_k) + 2 entries

  ClientBuf kid_buf;
  ClientBuf first_buf;
  std::span<const Requests> g(kEmptyProduct);
  if (first_child == 1) {
    g = FOf(kids[0], first_buf);
  } else if (first_child >= 2) {
    g = std::span<const Requests>(block).subspan(keep - (len + 1), len + 1);
  }
  std::size_t pos = keep;
  for (std::size_t i = first_child; i < kids.size(); ++i) {
    const auto child = FOf(kids[i], i == 0 ? first_buf : kid_buf);
    if (i == 0) {
      g = child;  // G_1 is the first child's own table
      continue;
    }
    const std::size_t out_len = (g.size() - 1) + (child.size() - 1);
    MergeSlopes(g, child, block.data() + pos);
    counters.cells += out_len;
    g = std::span<const Requests>(block).subspan(pos, out_len + 1);
    pos += out_len + 1;
  }
  RPT_CHECK(pos == need && g.size() == total_len + 1);
  RPT_CHECK(g[0] == subtree_demand_[node]);
  const std::size_t f_len = InsertCapacity(g, capacity_, block.data() + pos);
  block.resize(pos + f_len + 1);
  f_len_[node] = static_cast<std::uint32_t>(f_len);
  counters.entries += (pos - keep) + f_len + 1;
}

// One serial sweep over `order`, children before parents. A node's block
// depends only on its children's tables, so any such order writes the same
// bytes; the merges are linear, so a level-parallel sweep bought nothing
// (docs/ARCHITECTURE.md, "Multiple-NoD in the cost domain"). In the
// incremental form `order` holds only dirty nodes, and each internal node's
// prefix chain restarts at its first dirty child.
void NodDpEngine::Sweep(std::span<const NodeId> order, bool incremental) {
  Counters counters;
  for (const NodeId node : order) {
    std::size_t first_child = 0;
    if (incremental && !view_.IsClient(node) && force_prefix_rebuild_[node] != pass_) {
      // Reuse the prefix chain up to the first child whose subtree changed
      // this pass. (A node whose child list shrank or reordered this pass is
      // stamped by ApplyTopology and skips straight to a full rebuild — its
      // prefixes index the old list.)
      const auto kids = view_.Children(node);
      first_child = kids.size();
      for (std::size_t c = 0; c < kids.size(); ++c) {
        if (last_dirty_pass_[kids[c]] == pass_) {
          first_child = c;
          break;
        }
      }
      // A dirty internal node usually has a dirty child (dirt spreads leaf
      // -> root); a topology-seeded node may not (e.g. a migrated subtree
      // root, dirty by decree while all its children kept valid tables) —
      // fall back to a full rebuild.
      if (first_child == kids.size()) first_child = 0;
    }
    ProcessNode(node, first_child, counters);
  }
  work_.table_entries += counters.entries;
  work_.convolve_cells += counters.cells;
  work_.nodes_processed += order.size();
  last_pass_nodes_ = order.size();
}

void NodDpEngine::ComputeAll() {
  ++pass_;
  std::fill(last_dirty_pass_.begin(), last_dirty_pass_.end(), pass_);
  Sweep(view_.PostOrder(), /*incremental=*/false);
  computed_ = true;
}

void NodDpEngine::RecomputeDirty(std::span<const NodeId> touched) {
  RPT_REQUIRE(computed_, "NodDpEngine: RecomputeDirty requires a completed ComputeAll");
  if (touched.empty()) {
    last_pass_nodes_ = 0;
    return;
  }
  ++pass_;
  frag_.resize(view_.Size());  // first incremental pass: fragments may start recording
  for (auto& level : dirty_levels_) level.clear();
  // The dirty set is the union of the touched nodes' root paths; each walk
  // stops at the first node already marked by an earlier path. Seeds are
  // client leaves whose demand changed, or — after ApplyTopology — any live
  // node whose subtree membership changed (attached roots, detach/migrate
  // parents): an internal seed marks itself plus its chain, and the sweep's
  // fallback rebuilds its prefix chain even when none of its children are
  // dirty.
  for (const NodeId seed : touched) {
    RPT_REQUIRE(view_.IsLive(CheckNode(seed)), "NodDpEngine: touched nodes must be live");
    for (NodeId cur = seed;; cur = view_.Parent(cur)) {
      if (last_dirty_pass_[cur] == pass_) break;
      last_dirty_pass_[cur] = pass_;
      const std::size_t depth = view_.Depth(cur);
      if (depth >= dirty_levels_.size()) dirty_levels_.resize(depth + 1);
      dirty_levels_[depth].push_back(cur);
      if (cur == view_.Root()) break;
    }
  }
  // Deepest level first puts every dirty child before its dirty parent.
  dirty_order_.clear();
  for (std::size_t d = dirty_levels_.size(); d-- > 0;) {
    dirty_order_.insert(dirty_order_.end(), dirty_levels_[d].begin(), dirty_levels_[d].end());
  }
  Sweep(dirty_order_, /*incremental=*/true);
}

bool NodDpEngine::Feasible() const {
  RPT_REQUIRE(computed_, "NodDpEngine: Feasible requires up-to-date tables");
  ClientBuf buf;
  return FOf(view_.Root(), buf).back() == 0;
}

namespace {
constexpr std::uint32_t kPendNil = static_cast<std::uint32_t>(-1);
}  // namespace

NodDpEngine::PendChain NodDpEngine::BacktrackNode(NodeId node, std::size_t u,
                                                  Solution& solution) {
  u = std::min<std::size_t>(u, subtree_demand_[node]);
  ClientBuf buf;
  const Cost cost = CostAt(FOf(node, buf), u);
  RPT_CHECK(cost < kInf);

  const auto empty_chain = [] { return PendChain{kPendNil, kPendNil, 0}; };
  const auto single_chain = [this](NodeId client, Requests amount) {
    const auto id = static_cast<std::uint32_t>(pend_entries_.size());
    pend_entries_.push_back(PendEntry{client, amount, kPendNil});
    return PendChain{id, id, amount};
  };

  // Imported boundary leaf (sharded solve): the subtree behind this leaf was
  // reconstructed by its shard worker; its replicas and entries travel in the
  // worker's solution fragment (spliced in by the coordinator, not here). The
  // spine only needs the pending list the fragment forwards — replayed
  // verbatim, in chain order, so every upstream replica absorbs exactly the
  // prefix the unsharded backtrack would have handed it.
  if (!imported_.empty() && imported_.contains(node)) {
    RPT_REQUIRE(imported_provider_ != nullptr,
                "NodDpEngine: backtracking imported tables requires a fragment provider");
    PendChain chain = empty_chain();
    for (const auto& [client, amount] : imported_provider_(node, u)) {
      const PendChain link = single_chain(client, amount);
      if (chain.head == kPendNil) {
        chain.head = link.head;
      } else {
        pend_entries_[chain.tail].next = link.head;
      }
      chain.tail = link.tail;
      chain.total += amount;
    }
    return chain;
  }

  // Fragment replay: valid iff the fragment was recorded after the subtree's
  // last recompute (a dirty node this pass has last_dirty == pass_ >=
  // built_pass, so it can never hit) and the clamped budget matches. The
  // reconstruction below is a pure function of (subtree tables, budget), so
  // the replayed bytes are exactly what the recursion would append. frag_
  // stays empty until the first incremental pass: before it every node is
  // dirty, so nothing could be recorded or replayed.
  FragmentCache* frag = frag_.empty() ? nullptr : &frag_[node];
  if (frag != nullptr && frag->built_pass > last_dirty_pass_[node] && frag->budget == u) {
    solution.replicas.insert(solution.replicas.end(), frag->replicas.begin(),
                             frag->replicas.end());
    solution.assignment.insert(solution.assignment.end(), frag->entries.begin(),
                               frag->entries.end());
    PendChain chain = empty_chain();
    for (const auto& [client, amount] : frag->forwarded) {
      const PendChain link = single_chain(client, amount);
      if (chain.head == kPendNil) {
        chain.head = link.head;
      } else {
        pend_entries_[chain.tail].next = link.head;
      }
      chain.tail = link.tail;
      chain.total += amount;
    }
    return chain;
  }
  const std::size_t mark_replicas = solution.replicas.size();
  const std::size_t mark_entries = solution.assignment.size();
  const auto record_fragment = [&](const PendChain& out) {
    // Record only clean subtrees: a node recomputed this pass is likely on a
    // hot path that changes again, and its fragment near the root can span
    // most of the solution — recording it every pass would cost more than
    // the recursion it saves.
    if (frag == nullptr || last_dirty_pass_[node] >= pass_) return;
    // Budget check: replacing this node's old fragment frees its share; a
    // brand-new fragment past the cap is simply not recorded (replay is an
    // optimization, never a correctness dependency).
    frag_entries_total_ -= frag->EntryCount();
    const std::size_t incoming_entries =
        (solution.replicas.size() - mark_replicas) + (solution.assignment.size() - mark_entries);
    if (frag_entries_total_ + incoming_entries > kFragEntryBudget) {
      *frag = FragmentCache{};  // drop the stale share instead of keeping it
      return;
    }
    frag->built_pass = pass_;
    frag->budget = u;
    frag->replicas.assign(solution.replicas.begin() + mark_replicas, solution.replicas.end());
    frag->entries.assign(solution.assignment.begin() + mark_entries, solution.assignment.end());
    frag->forwarded.clear();
    for (std::uint32_t e = out.head; e != kPendNil; e = pend_entries_[e].next) {
      frag->forwarded.emplace_back(pend_entries_[e].client, pend_entries_[e].amount);
    }
    frag_entries_total_ += frag->EntryCount();
  };

  if (view_.IsClient(node)) {
    const auto leaf_chain = [&]() -> PendChain {
      const Requests r = demand_[node];
      if (r == 0) return empty_chain();
      if (cost == 0) return single_chain(node, r);  // no replica, forward all
      // Replica: serve as much as possible locally, forward the remainder.
      const Requests local = std::min(r, capacity_);
      solution.replicas.push_back(node);
      solution.assignment.push_back(ServiceEntry{node, node, local});
      if (r > local) return single_chain(node, r - local);
      return empty_chain();
    }();
    record_fragment(leaf_chain);
    return leaf_chain;
  }

  // Split the budget among children (SplitBudget holds the shared table
  // arithmetic). Budgets live in a small stack buffer (heap only past arity
  // 8) so the recursion allocates nothing on typical trees.
  const auto kids = view_.Children(node);
  std::size_t inline_budget[8];
  std::vector<std::size_t> heap_budget;
  std::size_t* child_budget = inline_budget;
  if (kids.size() > 8) {
    heap_budget.resize(kids.size());
    child_budget = heap_budget.data();
  }
  const bool use_replica = SplitBudget(node, u, child_budget);

  // Concatenate the children's pending chains in child order — O(1) splices,
  // preserving exactly the order the flat-list implementation produced.
  PendChain incoming = empty_chain();
  for (std::size_t k = 0; k < kids.size(); ++k) {
    const PendChain from_child = BacktrackNode(kids[k], child_budget[k], solution);
    if (from_child.head == kPendNil) continue;
    if (incoming.head == kPendNil) {
      incoming.head = from_child.head;
    } else {
      pend_entries_[incoming.tail].next = from_child.head;
    }
    incoming.tail = from_child.tail;
    incoming.total += from_child.total;
  }

  if (!use_replica) {
    record_fragment(incoming);
    return incoming;
  }

  // Replica at node: serve min(T, W) of the incoming requests in chain
  // order, forward the rest (guaranteed <= u by the DP transition). Serving
  // is prefix-greedy, so the forwarded list is the chain's suffix starting
  // at the first partially-served entry.
  solution.replicas.push_back(node);
  Requests to_serve = std::min(incoming.total, capacity_);
  PendChain forwarded{incoming.head, incoming.tail, incoming.total - to_serve};
  while (to_serve > 0) {
    RPT_CHECK(forwarded.head != kPendNil);
    PendEntry& entry = pend_entries_[forwarded.head];
    const Requests take = std::min(entry.amount, to_serve);
    solution.assignment.push_back(ServiceEntry{entry.client, node, take});
    to_serve -= take;
    if (take == entry.amount) {
      forwarded.head = entry.next;
      if (forwarded.head == kPendNil) forwarded.tail = kPendNil;
    } else {
      entry.amount -= take;
    }
  }
  RPT_CHECK(forwarded.total <= u);
  record_fragment(forwarded);
  return forwarded;
}

bool NodDpEngine::SplitBudget(NodeId node, std::size_t u, std::size_t* child_budget) const {
  const auto kids = view_.Children(node);
  const InvTable& block = block_[node];
  const std::size_t f_offset = block.size() - f_len_[node] - 1;
  const std::span<const Requests> f = std::span<const Requests>(block).subspan(f_offset);
  const Cost cost = CostAt(f, u);
  RPT_CHECK(cost < kInf);
  // G_k ends where F starts; len(G_i) is the first i children's summed
  // lengths.
  std::size_t g_len = 0;  // len(G_k)
  for (const NodeId kid : kids) g_len += f_len_[kid];
  ClientBuf first_buf;
  const auto prefix = [&](std::size_t i, std::size_t len, std::size_t end) {
    if (i == 0) return std::span<const Requests>(kEmptyProduct);
    if (i == 1) return FOf(kids[0], first_buf);
    return std::span<const Requests>(block).subspan(end - (len + 1), len + 1);
  };
  std::size_t g_end = f_offset;  // one past the last entry of G_k once stored
  const std::span<const Requests> g = prefix(kids.size(), g_len, g_end);
  const Requests total = g[0];
  const bool use_replica = CostAt(g, u) != cost;  // prefer the replica-free branch
  Requests v = u;
  Cost target = cost;
  if (use_replica) {
    v = u + std::min(capacity_, total - u);
    RPT_CHECK(cost >= 1 && CostAt(g, v) == cost - 1);
    target = cost - 1;
  } else {
    RPT_CHECK(CostAt(g, v) == cost);
  }

  // Split v among the children by walking the prefixes backwards: child k
  // gets the smallest b with F_k(b) + G_k(min(v - b, |G_k|)) == target. On a
  // run of b where F_k equals level l, G_k must equal t = target - l, which
  // holds exactly for min(v - b, |G_k|) in [G_inv[t], G_inv[t-1] - 1] (up
  // to |G_k| for t = 0). Levels in descending order visit b ascending, so
  // the first non-empty intersection holds the smallest b.
  ClientBuf kid_buf;
  for (std::size_t k = kids.size(); k-- > 0;) {
    const auto child = FOf(kids[k], k == 0 ? first_buf : kid_buf);
    const std::size_t child_len = child.size() - 1;
    if (k >= 2) g_end -= g_len + 1;  // step past G_{k+1}
    g_len -= child_len;
    const auto before = prefix(k, g_len, g_end);
    const Requests before_total = before[0];
    bool found = false;
    for (std::size_t level = std::min<std::size_t>(child_len, target) + 1; level-- > 0;) {
      const std::size_t t = target - level;
      if (t > g_len) break;  // G_k never equals t; lower levels need larger t
      const Requests b_lo = child[level];
      const Requests b_hi = level == 0 ? child[0] : child[level - 1] - 1;
      const Requests x_lo = before[t];
      if (v < x_lo) continue;
      Requests lo = b_lo;
      if (t > 0 && v > before[t - 1] - 1) lo = std::max(lo, v - (before[t - 1] - 1));
      const Requests hi = std::min(b_hi, v - x_lo);
      if (lo > hi) continue;
      child_budget[k] = lo;
      target -= static_cast<Cost>(level);
      v = std::min(v - lo, before_total);
      found = true;
      break;
    }
    RPT_CHECK(found);
  }
  return use_replica;
}

void NodDpEngine::ImportLeafTable(NodeId leaf, Cost vmin, InvTable inv) {
  RPT_REQUIRE(view_.IsLive(CheckNode(leaf)), "NodDpEngine: imported tables belong to live nodes");
  RPT_REQUIRE(view_.IsClient(leaf), "NodDpEngine: imported tables belong to client leaves");
  RPT_REQUIRE(vmin == 0, "NodDpEngine: imported table must cost 0 at full forwarding (vmin = 0)");
  RPT_REQUIRE(!inv.empty() && inv[0] == subtree_demand_[leaf],
              "NodDpEngine: imported table must start at the leaf demand (inv[0] = demand)");
  for (std::size_t c = 1; c < inv.size(); ++c) {
    RPT_REQUIRE(inv[c] < inv[c - 1], "NodDpEngine: imported table must be strictly decreasing");
    RPT_REQUIRE(c < 2 || inv[c - 1] - inv[c] <= inv[c - 2] - inv[c - 1],
                "NodDpEngine: imported table must be convex (non-increasing slopes)");
  }
  imported_[leaf] = std::move(inv);
  computed_ = false;  // any previously stored leaf table is stale until the next pass
}

std::vector<NodDpEngine::ImportBudget> NodDpEngine::AssignImportedBudgets() const {
  RPT_REQUIRE(computed_, "NodDpEngine: AssignImportedBudgets requires up-to-date tables");
  RPT_REQUIRE(Feasible(), "NodDpEngine: AssignImportedBudgets requires a feasible state");
  std::vector<ImportBudget> out;
  if (imported_.empty()) return out;
  out.reserve(imported_.size());
  // Iterative root-down sweep; order of visit is irrelevant (budgets flow
  // strictly downward), the result is sorted for determinism.
  std::vector<std::pair<NodeId, std::size_t>> stack{{view_.Root(), 0}};
  std::vector<std::size_t> child_budget;
  while (!stack.empty()) {
    const auto [node, budget] = stack.back();
    stack.pop_back();
    const std::size_t u = std::min<std::size_t>(budget, subtree_demand_[node]);
    if (view_.IsClient(node)) {
      if (imported_.contains(node)) out.push_back(ImportBudget{node, u});
      continue;
    }
    const auto kids = view_.Children(node);
    if (kids.empty()) continue;  // childless root of a one-node tree
    child_budget.resize(kids.size());
    SplitBudget(node, u, child_budget.data());
    for (std::size_t k = 0; k < kids.size(); ++k) stack.emplace_back(kids[k], child_budget[k]);
  }
  std::sort(out.begin(), out.end(),
            [](const ImportBudget& a, const ImportBudget& b) { return a.leaf < b.leaf; });
  RPT_CHECK(out.size() == imported_.size());
  return out;
}

NodDpEngine::BudgetedBacktrack NodDpEngine::BacktrackWithBudget(std::size_t budget) {
  RPT_REQUIRE(computed_, "NodDpEngine: BacktrackWithBudget requires up-to-date tables");
  ClientBuf buf;
  const NodeId root = view_.Root();
  RPT_REQUIRE(CostAt(FOf(root, buf), std::min<std::size_t>(budget, subtree_demand_[root])) < kInf,
              "NodDpEngine: no feasible reconstruction at this budget");
  pend_entries_.clear();
  BudgetedBacktrack out;
  const PendChain chain = BacktrackNode(view_.Root(), budget, out.solution);
  out.forwarded.reserve(16);
  for (std::uint32_t e = chain.head; e != kPendNil; e = pend_entries_[e].next) {
    out.forwarded.emplace_back(pend_entries_[e].client, pend_entries_[e].amount);
  }
  return out;
}

Solution NodDpEngine::Backtrack() {
  RPT_REQUIRE(Feasible(), "NodDpEngine: Backtrack requires a feasible state");
  pend_entries_.clear();
  Solution solution;
  // Consecutive solutions of a low-churn stream have near-identical sizes;
  // pre-sizing to the previous one removes the per-call regrowth churn.
  solution.replicas.reserve(last_replica_count_);
  solution.assignment.reserve(last_assignment_count_);
  const PendChain leftover = BacktrackNode(view_.Root(), 0, solution);
  RPT_CHECK(leftover.head == kPendNil && leftover.total == 0);
  last_replica_count_ = solution.replicas.size();
  last_assignment_count_ = solution.assignment.size();
  solution.Canonicalize();
  return solution;
}

}  // namespace rpt::multiple
