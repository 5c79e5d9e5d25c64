// Unit tests for Instance, Solution and the independent validator. The
// validator is the backstop for every solver in the library, so each failure
// mode gets its own test.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "model/instance.hpp"
#include "model/solution.hpp"
#include "model/validate.hpp"

namespace rpt {
namespace {

// Root(0) -- n1(1, delta 2) -- c2(delta 3, r=6), c3(delta 1, r=4); and
// c4 (delta 10, r=5) directly under root.
Tree MakeTree() {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 2);
  b.AddClient(n1, 3, 6);
  b.AddClient(n1, 1, 4);
  b.AddClient(root, 10, 5);
  return b.Build();
}

Instance MakeInstance(Requests w, Distance dmax) { return Instance(MakeTree(), w, dmax); }

TEST(Instance, RejectsZeroCapacity) {
  EXPECT_THROW(Instance(MakeTree(), 0), InvalidArgument);
}

TEST(Instance, CanServeRespectsAncestryAndDistance) {
  const Instance inst = MakeInstance(10, 5);
  EXPECT_TRUE(inst.CanServe(2, 2));   // self, distance 0
  EXPECT_TRUE(inst.CanServe(2, 1));   // parent, distance 3
  EXPECT_TRUE(inst.CanServe(2, 0));   // root, distance 5 == dmax
  EXPECT_FALSE(inst.CanServe(4, 0));  // distance 10 > 5
  EXPECT_TRUE(inst.CanServe(4, 4));
  EXPECT_FALSE(inst.CanServe(2, 3));  // sibling is not an ancestor
  EXPECT_FALSE(inst.CanServe(2, 4));
}

TEST(Instance, NoDistanceConstraintServesWholePath) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  EXPECT_FALSE(inst.HasDistanceConstraint());
  EXPECT_TRUE(inst.CanServe(4, 0));
  EXPECT_TRUE(inst.CanServe(2, 0));
}

TEST(Instance, AllRequestsFitLocally) {
  EXPECT_TRUE(MakeInstance(6, kNoDistanceLimit).AllRequestsFitLocally());
  EXPECT_FALSE(MakeInstance(5, kNoDistanceLimit).AllRequestsFitLocally());
}

TEST(Instance, CapacityLowerBound) {
  EXPECT_EQ(MakeInstance(6, kNoDistanceLimit).CapacityLowerBound(), 3u);   // 15/6
  EXPECT_EQ(MakeInstance(15, kNoDistanceLimit).CapacityLowerBound(), 1u);
  EXPECT_EQ(MakeInstance(7, kNoDistanceLimit).CapacityLowerBound(), 3u);
}

TEST(Instance, SummaryMentionsKeyFields) {
  const std::string s = MakeInstance(6, 5).Summary();
  EXPECT_NE(s.find("W=6"), std::string::npos);
  EXPECT_NE(s.find("dmax=5"), std::string::npos);
  const std::string nod = MakeInstance(6, kNoDistanceLimit).Summary();
  EXPECT_NE(nod.find("dmax=inf"), std::string::npos);
}

Solution GoodSolution() {
  // Replicas at n1 and at client 4; n1 serves clients 2 and 3, c4 self-serves.
  Solution s;
  s.replicas = {1, 4};
  s.assignment = {{2, 1, 6}, {3, 1, 4}, {4, 4, 5}};
  return s;
}

TEST(Validate, AcceptsGoodSolution) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  const auto report = ValidateSolution(inst, Policy::kSingle, GoodSolution());
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.Describe(), "ok");
}

TEST(Validate, DetectsOverload) {
  const Instance inst = MakeInstance(9, kNoDistanceLimit);  // n1 load is 10 > 9
  const auto report = ValidateSolution(inst, Policy::kSingle, GoodSolution());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("overloaded"), std::string::npos);
}

TEST(Validate, DetectsDistanceViolation) {
  const Instance inst = MakeInstance(10, 2);  // client 2 at distance 3 from n1
  const auto report = ValidateSolution(inst, Policy::kSingle, GoodSolution());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("distance"), std::string::npos);
}

TEST(Validate, DetectsIncompleteService) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.assignment[1].amount = 3;  // client 3 short by one request
  const auto report = ValidateSolution(inst, Policy::kSingle, s);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("served"), std::string::npos);
}

TEST(Validate, DetectsNonReplicaServer) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.replicas = {1};  // 4 serves itself without being a replica
  const auto report = ValidateSolution(inst, Policy::kSingle, s);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("non-replica"), std::string::npos);
}

TEST(Validate, DetectsOffPathServer) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s;
  s.replicas = {1, 4};
  s.assignment = {{2, 1, 6}, {3, 1, 4}, {4, 1, 5}};  // n1 is not an ancestor of 4? it isn't
  const auto report = ValidateSolution(inst, Policy::kSingle, s);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("root path"), std::string::npos);
}

TEST(Validate, DetectsSinglePolicySplit) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s;
  s.replicas = {0, 1};
  s.assignment = {{2, 1, 3}, {2, 0, 3}, {3, 1, 4}, {4, 0, 5}};
  EXPECT_FALSE(ValidateSolution(inst, Policy::kSingle, s).ok);
  EXPECT_TRUE(ValidateSolution(inst, Policy::kMultiple, s).ok);  // fine under Multiple
}

TEST(Validate, DetectsDuplicateReplicaAndBadIds) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.replicas.push_back(1);
  EXPECT_NE(ValidateSolution(inst, Policy::kSingle, s).Describe().find("duplicate"),
            std::string::npos);
  s = GoodSolution();
  s.replicas.push_back(77);
  EXPECT_NE(ValidateSolution(inst, Policy::kSingle, s).Describe().find("out of range"),
            std::string::npos);
}

TEST(Validate, DetectsZeroAmountAndNonClientSource) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.assignment.push_back({2, 1, 0});
  EXPECT_NE(ValidateSolution(inst, Policy::kSingle, s).Describe().find("zero-amount"),
            std::string::npos);
  s = GoodSolution();
  s.assignment.push_back({1, 0, 1});  // internal node "issuing" requests
  EXPECT_NE(ValidateSolution(inst, Policy::kSingle, s).Describe().find("non-client"),
            std::string::npos);
}

TEST(Validate, IdleReplicaOnlyFlaggedWhenAsked) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.replicas.push_back(0);  // root placed but unused
  EXPECT_TRUE(ValidateSolution(inst, Policy::kSingle, s).ok);
  EXPECT_FALSE(ValidateSolution(inst, Policy::kSingle, s, /*forbid_idle_replicas=*/true).ok);
}

TEST(Validate, ZeroRequestClientNeedsNoEntry) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 0);
  const Instance inst(b.Build(), 5);
  Solution s;  // nothing at all
  EXPECT_TRUE(ValidateSolution(inst, Policy::kSingle, s).ok);
}

TEST(Solution, CanonicalizeMergesAndSorts) {
  Solution s;
  s.replicas = {4, 1, 4};
  s.assignment = {{2, 1, 3}, {2, 1, 3}, {4, 4, 5}};
  s.Canonicalize();
  EXPECT_EQ(s.replicas, (std::vector<NodeId>{1, 4}));
  ASSERT_EQ(s.assignment.size(), 2u);
  EXPECT_EQ(s.assignment[0], (ServiceEntry{2, 1, 6}));
  EXPECT_EQ(s.assignment[1], (ServiceEntry{4, 4, 5}));
}

// The comparison sort Canonicalize() used before it became a radix sort:
// the oracle for the canonical form.
Solution ReferenceCanonical(Solution s) {
  std::sort(s.replicas.begin(), s.replicas.end());
  s.replicas.erase(std::unique(s.replicas.begin(), s.replicas.end()), s.replicas.end());
  std::sort(s.assignment.begin(), s.assignment.end(),
            [](const ServiceEntry& a, const ServiceEntry& b) {
              if (a.client != b.client) return a.client < b.client;
              return a.server < b.server;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < s.assignment.size();) {
    const NodeId client = s.assignment[i].client;
    const NodeId server = s.assignment[i].server;
    Requests amount = 0;
    for (; i < s.assignment.size() && s.assignment[i].client == client &&
           s.assignment[i].server == server;
         ++i) {
      amount += s.assignment[i].amount;
    }
    if (amount > 0) s.assignment[out++] = ServiceEntry{client, server, amount};
  }
  s.assignment.resize(out);
  return s;
}

void ExpectCanonicalMatchesReference(const Solution& input) {
  Solution got = input;
  got.Canonicalize();
  const Solution want = ReferenceCanonical(input);
  EXPECT_EQ(got.replicas, want.replicas);
  EXPECT_EQ(got.assignment, want.assignment);
}

TEST(Solution, CanonicalizeMatchesTheComparisonSortOracle) {
  {
    SCOPED_TRACE("duplicate pairs merge, zero amounts drop, replicas dedupe");
    Solution s;
    s.replicas = {9, 3, 9, 0, 3, 3};
    s.assignment = {{5, 9, 2}, {5, 3, 0}, {1, 0, 4}, {5, 9, 3}, {1, 0, 0}, {5, 3, 1}, {2, 2, 0}};
    ExpectCanonicalMatchesReference(s);
  }
  {
    SCOPED_TRACE("sparse ids near kInvalidNode - 1");
    const NodeId top = kInvalidNode - 1;
    Solution s;
    s.replicas = {top, 0, top - 1, top, 7};
    s.assignment = {{top, top - 1, 1}, {0, top, 2}, {top - 1, 0, 3}, {top, 0, 4},
                    {top, top - 1, 5}, {0, 7, 6},   {top, top, 0}};
    ExpectCanonicalMatchesReference(s);
  }
  {
    SCOPED_TRACE("one client served by 10^4 servers");
    std::mt19937_64 rng(7);
    Solution s;
    for (NodeId server = 0; server < 10000; ++server) {
      s.assignment.push_back({123456, server * 3 + 1, 1 + rng() % 5});
      s.replicas.push_back(server * 3 + 1);
    }
    std::shuffle(s.assignment.begin(), s.assignment.end(), rng);
    std::shuffle(s.replicas.begin(), s.replicas.end(), rng);
    ExpectCanonicalMatchesReference(s);
  }
  {
    SCOPED_TRACE("empty solution");
    ExpectCanonicalMatchesReference(Solution{});
  }
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("random mix, seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const NodeId span = seed % 2 == 0 ? 64 : kInvalidNode;  // dense or sparse ids
    const NodeId offset = seed % 4 < 2 ? 0 : span == 64 ? 1u << 30 : 0;
    Solution s;
    const std::size_t entries = rng() % 3000;
    for (std::size_t i = 0; i < entries; ++i) {
      s.assignment.push_back({offset + static_cast<NodeId>(rng() % span),
                              offset + static_cast<NodeId>(rng() % span), rng() % 4});
      if (i % 3 == 0) s.replicas.push_back(offset + static_cast<NodeId>(rng() % span));
    }
    ExpectCanonicalMatchesReference(s);
  }
}

TEST(Solution, RoutedRequestsSumsAmounts) {
  EXPECT_EQ(GoodSolution().RoutedRequests(), 15u);
  EXPECT_EQ(Solution{}.RoutedRequests(), 0u);
}

TEST(Solution, SummarizeLoads) {
  const Tree tree = MakeTree();
  const LoadSummary summary = SummarizeLoads(tree, 10, GoodSolution());
  EXPECT_EQ(summary.max_load, 10u);
  EXPECT_EQ(summary.total_load, 15u);
  EXPECT_DOUBLE_EQ(summary.mean_load, 7.5);
  EXPECT_DOUBLE_EQ(summary.utilization, 0.75);
}

}  // namespace
}  // namespace rpt
