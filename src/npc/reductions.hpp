// The paper's NP-hardness reductions, as executable instance constructors.
//
// Each Build* returns the replica-placement instance of the corresponding
// figure plus the decision threshold K: the replica-placement instance has a
// solution with at most K servers iff the source partition instance is a
// yes-instance. The tests and the hardness benches check both directions
// against the exact solvers.
#pragma once

#include <cstdint>
#include <vector>

#include "model/instance.hpp"
#include "npc/partition.hpp"

namespace rpt::npc {

/// Output of a reduction: the constructed instance and the server budget K
/// of the associated decision problem.
struct Reduction {
  Instance instance;
  std::uint64_t threshold = 0;  ///< K: "is there a solution with <= K servers?"
  Policy policy = Policy::kSingle;
};

/// Theorem 1 / Fig. 1 — 3-Partition -> Single-NoD-Bin.
///
/// A binary caterpillar: a spine of m internal nodes n_1..n_m (any of which
/// can serve any client) above a second caterpillar carrying the 3m clients
/// c_i with a_i requests. W = B, no distance bound, K = m. Requires a
/// well-formed 3-Partition instance (sum = m*B and B/4 < a_i < B/2 — the
/// window is what forces exactly-3 groups).
[[nodiscard]] Reduction BuildI2(const ThreePartitionInstance& source);

/// Theorem 2 / Fig. 2 — 2-Partition -> Single-NoD-Bin (inapproximability).
///
/// Root r above one internal node n_1 above a caterpillar of the m clients
/// a_i. W = S/2, K = 2: a (3/2-ε)-approximation would separate opt=2 from
/// opt>=3 and thereby decide 2-Partition. Requires an even sum and
/// max a_i <= S/2 (otherwise no Single solution exists at all).
[[nodiscard]] Reduction BuildI4(const std::vector<std::uint64_t>& values);

/// Theorem 5 / Fig. 5 — 2-Partition-Equal -> Multiple-Bin with a client
/// exceeding W.
///
/// The exact construction of the paper: 5m clients, 5m-1 internal nodes,
/// W = S/2 + 1, dmax = 3m, one client with (2m+1)W requests (this is the
/// r_i > W violation that makes the problem hard), K = 4m. Requires
/// |values| = 2m with even sum S and every a_j <= S/4 (so that
/// b_j = S/2 - 2 a_j stays non-negative); see NormalizeForI6.
[[nodiscard]] Reduction BuildI6(const std::vector<std::uint64_t>& values);

/// Decides the I6 instance the way the proof of Theorem 5 does: the 3m+1
/// replicas forced by the construction (the chain n_{2m+1}..n_{5m-1} and the
/// oversized client) are fixed, and every m-subset of the gadget nodes
/// n_1..n_2m is tried with the exact Multiple feasibility check. Returns
/// true iff some completion with exactly 4m replicas serves all requests —
/// which the paper proves happens iff the source 2-Partition-Equal instance
/// is a yes-instance. Cost: C(2m, m) flow::MultipleFeasible probes.
[[nodiscard]] bool RestrictedI6Decision(const Reduction& reduction);

/// Shifts a 2-Partition-Equal instance by a uniform even constant so that
/// every value satisfies a_j <= S/4 as BuildI6 requires. A uniform shift
/// preserves equal-cardinality partitions in both directions (each side has
/// exactly m elements). Requires |values| = 2m with m >= 3.
[[nodiscard]] std::vector<std::uint64_t> NormalizeForI6(std::vector<std::uint64_t> values);

}  // namespace rpt::npc
