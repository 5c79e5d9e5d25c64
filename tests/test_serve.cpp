// Tests for the rpt-serve layer (src/serve/).
//
// Four layers, four contracts:
//  * PlacementSnapshot — every baked buffer is byte-consistent with the
//    solution it was built from (loads, residuals, subtree aggregates,
//    routing CSR), checked against brute-force recomputation.
//  * SnapshotStore — publish is atomic, readers pin, and the publisher's
//    drain-wait really blocks reclamation until the last reader detaches.
//  * ServeHarness / TcpServer — queries answer against the current snapshot
//    through both the in-process and the TCP front-end; a bad update batch
//    publishes nothing and the service keeps answering.
//  * The swap-torture test — N threads query while the publisher swaps
//    under replay-style churn; every answer must be byte-identical to the
//    precomputed answer for the version it claims (no torn reads, no
//    mixed-version state), and TSan (CI Debug leg) watches for
//    use-after-reclaim. A third variant pins one snapshot while dozens of
//    versions sharing its pages are built on top and reclaimed.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "gen/random_tree.hpp"
#include "gen/shapes.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "serve/placement_snapshot.hpp"
#include "serve/query.hpp"
#include "serve/serve_harness.hpp"
#include "serve/snapshot_store.hpp"
#include "serve/tcp_server.hpp"
#include "sim/replay.hpp"
#include "support/failpoint.hpp"

namespace rpt::serve {
namespace {

using incremental::IncrementalSolver;
using incremental::UpdateEvent;
using incremental::UpdateTrace;

Instance MakeSolvedInstance(std::uint64_t seed) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 30;
  cfg.clients = 80;
  cfg.max_children = 4;
  cfg.min_requests = 0;
  cfg.max_requests = 9;
  return Instance(gen::GenerateRandomTree(cfg, seed), /*capacity=*/18);
}

std::unique_ptr<const PlacementSnapshot> SnapshotOf(const IncrementalSolver& solver,
                                                    std::uint64_t version) {
  return PlacementSnapshot::Build(solver.View(), solver.Capacity(), solver.Demands(),
                                  solver.Current(), version);
}

TEST(PlacementSnapshot, MirrorsSolvedStateByteForByte) {
  const Instance instance = MakeSolvedInstance(3);
  const Tree& tree = instance.GetTree();
  const auto solved = multiple::SolveMultipleNodDp(instance);
  ASSERT_TRUE(solved.feasible);
  const auto snapshot = PlacementSnapshot::Build(
      tree, instance.Capacity(), tree.RequestsColumn(), solved.solution, /*version=*/7);

  EXPECT_EQ(snapshot->Version(), 7u);
  EXPECT_EQ(snapshot->Capacity(), instance.Capacity());
  EXPECT_TRUE(snapshot->Feasible());
  EXPECT_EQ(snapshot->ReplicaCount(), solved.solution.ReplicaCount());
  EXPECT_EQ(snapshot->TotalDemand(), tree.TotalRequests());

  // Loads and residuals against a brute-force tally of the assignment.
  std::vector<Requests> load(tree.Size(), 0);
  for (const ServiceEntry& entry : solved.solution.assignment) load[entry.server] += entry.amount;
  std::vector<std::uint8_t> is_replica(tree.Size(), 0);
  for (const NodeId replica : solved.solution.replicas) is_replica[replica] = 1;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    EXPECT_EQ(snapshot->DemandOf(id), tree.RequestsOf(id));
    EXPECT_EQ(snapshot->IsReplica(id), is_replica[id] != 0);
    EXPECT_EQ(snapshot->LoadOf(id), is_replica[id] ? load[id] : 0u);
    EXPECT_EQ(snapshot->ResidualOf(id),
              is_replica[id] ? instance.Capacity() - load[id] : 0u);
  }

  // Routing CSR: each client's span is ascending in server id, sums to the
  // client's demand, and reproduces the assignment exactly.
  std::size_t entries_seen = 0;
  for (const NodeId client : tree.Clients()) {
    const auto span = snapshot->ServersOf(client);
    Requests routed = 0;
    for (std::size_t i = 0; i < span.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(span[i - 1].server, span[i].server);
      }
      routed += span[i].amount;
      ++entries_seen;
    }
    EXPECT_EQ(routed, tree.RequestsOf(client)) << "client " << client;
  }
  EXPECT_EQ(entries_seen, solved.solution.assignment.size());
  for (NodeId id = 0; id < tree.Size(); ++id) {
    if (!tree.IsClient(id)) {
      EXPECT_TRUE(snapshot->ServersOf(id).empty());
    }
  }

  // Subtree aggregates and attach probes against brute force.
  for (NodeId node = 0; node < tree.Size(); ++node) {
    Requests residual_under = 0;
    std::uint32_t replicas_under = 0;
    for (const NodeId replica : solved.solution.replicas) {
      if (tree.IsAncestorOrSelf(node, replica)) {
        residual_under += instance.Capacity() - load[replica];
        ++replicas_under;
      }
    }
    EXPECT_EQ(snapshot->ResidualUnder(node), residual_under) << "node " << node;
    EXPECT_EQ(snapshot->ReplicasUnder(node), replicas_under) << "node " << node;

    for (const Requests demand : {Requests{0}, Requests{1}, Requests{7}, Requests{100}}) {
      AttachResult expect;
      Distance distance = 0;
      for (NodeId cursor = node;;) {
        if (is_replica[cursor] && instance.Capacity() - load[cursor] >= demand) {
          expect = AttachResult{true, cursor, distance};
          break;
        }
        if (cursor == tree.Root()) break;
        distance += tree.DistToParent(cursor);
        cursor = tree.Parent(cursor);
      }
      EXPECT_EQ(snapshot->AttachAt(node, demand), expect)
          << "node " << node << " demand " << demand;
    }
  }

  // PrimaryServerOf: largest share, smallest id on ties.
  for (const NodeId client : tree.Clients()) {
    const auto span = snapshot->ServersOf(client);
    NodeId expect = kInvalidNode;
    Requests best = 0;
    for (const RouteEntry& entry : span) {
      if (entry.amount > best) {
        best = entry.amount;
        expect = entry.server;
      }
    }
    EXPECT_EQ(snapshot->PrimaryServerOf(client), expect);
  }
}

TEST(PlacementSnapshot, ValidatesItsInputs) {
  const Instance instance = MakeSolvedInstance(4);
  const Tree& tree = instance.GetTree();
  const auto solved = multiple::SolveMultipleNodDp(instance);
  ASSERT_TRUE(solved.feasible);

  EXPECT_THROW((void)PlacementSnapshot::Build(tree, 0, tree.RequestsColumn(), solved.solution, 1),
               InvalidArgument);
  const std::vector<Requests> short_demand(3, 0);
  EXPECT_THROW(
      (void)PlacementSnapshot::Build(tree, instance.Capacity(), short_demand, solved.solution, 1),
      InvalidArgument);
  Solution rogue = solved.solution;
  rogue.replicas.clear();  // assignment now targets non-replica servers
  EXPECT_THROW(
      (void)PlacementSnapshot::Build(tree, instance.Capacity(), tree.RequestsColumn(), rogue, 1),
      InvalidArgument);
}

TEST(PlacementSnapshot, InfeasibleStateHasNoReplicasAndFailsProbes) {
  const Instance instance(gen::MakeChain(/*depth=*/3, /*requests=*/5), /*capacity=*/10);
  const Tree& tree = instance.GetTree();
  const Solution empty;
  const auto snapshot =
      PlacementSnapshot::Build(tree, instance.Capacity(), tree.RequestsColumn(), empty, 2);

  EXPECT_FALSE(snapshot->Feasible());
  EXPECT_EQ(snapshot->ReplicaCount(), 0u);
  for (NodeId id = 0; id < tree.Size(); ++id) {
    EXPECT_FALSE(snapshot->IsReplica(id));
    EXPECT_EQ(snapshot->ResidualUnder(id), 0u);
    EXPECT_FALSE(snapshot->AttachAt(id, 0).feasible);
    EXPECT_TRUE(snapshot->ServersOf(id).empty());
  }
  EXPECT_EQ(snapshot->PrimaryServerOf(tree.Clients()[0]), kInvalidNode);
}

TEST(PlacementSnapshot, CanonicalHashSeparatesStates) {
  const Instance instance = MakeSolvedInstance(5);
  IncrementalSolver solver(instance);
  const auto a = SnapshotOf(solver, 1);
  const auto a_again = SnapshotOf(solver, 1);
  EXPECT_EQ(a->CanonicalHash(), a_again->CanonicalHash());

  const auto other_version = SnapshotOf(solver, 2);
  EXPECT_NE(a->CanonicalHash(), other_version->CanonicalHash());

  const NodeId client = instance.GetTree().Clients()[0];
  ASSERT_TRUE(solver.Apply(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(client, 1)}));
  const auto changed = SnapshotOf(solver, 1);
  EXPECT_NE(a->CanonicalHash(), changed->CanonicalHash());
}

TEST(SnapshotStore, PinPublishAndVersioning) {
  const Instance instance = MakeSolvedInstance(6);
  IncrementalSolver solver(instance);
  SnapshotStore store;
  EXPECT_FALSE(store.Acquire());
  EXPECT_EQ(store.CurrentVersion(), 0u);
  EXPECT_EQ(store.Publishes(), 0u);

  store.Publish(SnapshotOf(solver, 1));
  SnapshotStore::Ref ref = store.Acquire();
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->Version(), 1u);
  EXPECT_EQ(store.CurrentVersion(), 1u);

  // A pinned snapshot survives one publish untouched (it sits in the spare
  // slot); copies carry their own pin and release independently.
  SnapshotStore::Ref copy = ref;
  store.Publish(SnapshotOf(solver, 2));
  EXPECT_EQ(store.CurrentVersion(), 2u);
  EXPECT_EQ(ref->Version(), 1u);
  copy.Release();
  EXPECT_FALSE(copy);
  EXPECT_EQ(ref->Version(), 1u);
  ref.Release();
  EXPECT_EQ(store.Publishes(), 2u);
}

TEST(SnapshotStore, PublishDrainWaitsForLastReader) {
  const Instance instance = MakeSolvedInstance(7);
  IncrementalSolver solver(instance);
  SnapshotStore store;
  store.Publish(SnapshotOf(solver, 1));
  SnapshotStore::Ref pinned = store.Acquire();  // pins slot of version 1
  store.Publish(SnapshotOf(solver, 2));         // spare slot: version 1, pinned

  // Version 3 must reuse the slot `pinned` holds, so the publisher blocks
  // until the pin is released — and completes promptly afterwards.
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    store.Publish(SnapshotOf(solver, 3));
    published.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(published.load(std::memory_order_acquire));
  EXPECT_EQ(store.CurrentVersion(), 2u);
  EXPECT_EQ(pinned->Version(), 1u);  // still alive and untouched
  pinned.Release();
  publisher.join();
  EXPECT_TRUE(published.load(std::memory_order_acquire));
  EXPECT_EQ(store.CurrentVersion(), 3u);
}

TEST(WireCodec, RoundTripsAndRejectsMalformedPayloads) {
  const QueryRequest request{QueryKind::kAttachCost, 42, 7};
  std::vector<std::uint8_t> wire;
  EncodeRequest(request, wire);
  ASSERT_EQ(wire.size(), 4 + kRequestWireSize);
  EXPECT_EQ(DecodeRequest({wire.data() + 4, kRequestWireSize}), request);

  QueryResponse response;
  response.version = 9000;
  response.ok = true;
  response.server = 17;
  response.value = 123456789;
  response.distance = 55;
  wire.clear();
  EncodeResponse(response, wire);
  ASSERT_EQ(wire.size(), 4 + kResponseWireSize);
  EXPECT_EQ(DecodeResponse({wire.data() + 4, kResponseWireSize}), response);

  EXPECT_THROW((void)DecodeRequest({wire.data(), 3}), InvalidArgument);
  std::vector<std::uint8_t> bad_kind(kRequestWireSize, 0);
  bad_kind[0] = 3;  // one past the last QueryKind
  EXPECT_THROW((void)DecodeRequest(bad_kind), InvalidArgument);
  EXPECT_THROW((void)DecodeResponse({wire.data(), 5}), InvalidArgument);
}

TEST(ServeHarness, PublishesOnConstructionAndPerBatch) {
  const Instance instance = MakeSolvedInstance(8);
  ServeHarness harness(instance);
  EXPECT_EQ(harness.Publishes(), 1u);
  const SnapshotStore::Ref initial = harness.Pin();
  ASSERT_TRUE(initial);
  EXPECT_EQ(initial->Version(), 1u);

  // Queries match a direct Answer() against the pinned snapshot.
  const NodeId client = instance.GetTree().Clients()[0];
  for (const QueryKind kind :
       {QueryKind::kWhichReplica, QueryKind::kResidual, QueryKind::kAttachCost}) {
    const QueryRequest request{kind, client, 3};
    EXPECT_EQ(harness.Query(request), Answer(*initial, request));
  }
  EXPECT_EQ(harness.QueriesAnswered(), 3u);

  const std::vector<UpdateEvent> batch{UpdateEvent::DemandDelta(client, 2)};
  EXPECT_TRUE(harness.ApplyAndPublish(batch));
  EXPECT_EQ(harness.Publishes(), 2u);
  EXPECT_EQ(harness.Store().CurrentVersion(), 2u);
  EXPECT_EQ(harness.Query({QueryKind::kWhichReplica, client, 0}).version, 2u);

  // An invalid batch publishes nothing; the service answers on.
  const std::vector<UpdateEvent> bad{UpdateEvent::DemandDelta(client, 1),
                                     UpdateEvent::Capacity(0)};
  EXPECT_THROW((void)harness.ApplyAndPublish(bad), InvalidArgument);
  EXPECT_EQ(harness.Publishes(), 2u);
  const QueryResponse after = harness.Query({QueryKind::kResidual, instance.GetTree().Root(), 0});
  EXPECT_TRUE(after.ok);
  EXPECT_EQ(after.version, 2u);
}

TEST(TcpServer, LoopbackQueriesMatchInProcessAnswers) {
  const Instance instance = MakeSolvedInstance(9);
  ServeHarness harness(instance);
  TcpServer server(harness);
  server.Start(/*port=*/0);
  ASSERT_GT(server.Port(), 0);

  TcpClient client(server.Port());
  const NodeId probe = instance.GetTree().Clients()[1];
  for (const QueryKind kind :
       {QueryKind::kWhichReplica, QueryKind::kResidual, QueryKind::kAttachCost}) {
    const QueryRequest request{kind, probe, 2};
    const SnapshotStore::Ref pinned = harness.Pin();
    EXPECT_EQ(client.Query(request), Answer(*pinned, request));
  }

  // A publish between wire queries is visible in the next response version.
  (void)harness.ApplyAndPublish(
      std::vector<UpdateEvent>{UpdateEvent::DemandDelta(probe, 1)});
  EXPECT_EQ(client.Query({QueryKind::kResidual, instance.GetTree().Root(), 0}).version, 2u);

  // Malformed payloads get a failure response on a live connection.
  const std::vector<std::uint8_t> garbage(kRequestWireSize, 0xEE);
  const QueryResponse failed = client.RawFrame(garbage);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.version, 0u);
  const std::vector<std::uint8_t> short_frame(5, 1);
  EXPECT_FALSE(client.RawFrame(short_frame).ok);
  // ... and the same connection still answers real queries.
  EXPECT_TRUE(client.Query({QueryKind::kResidual, instance.GetTree().Root(), 0}).ok);

  EXPECT_GE(server.RequestsServed(), 6u);
  EXPECT_EQ(server.ConnectionsAccepted(), 1u);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(WireCodec, StaleBitRoundTripsAndUnknownStatusBitsAreRejected) {
  QueryResponse response;
  response.version = 4;
  response.ok = true;
  response.stale = true;
  response.follower = true;
  response.server = 3;
  std::vector<std::uint8_t> wire;
  EncodeResponse(response, wire);
  const QueryResponse decoded = DecodeResponse({wire.data() + 4, kResponseWireSize});
  EXPECT_TRUE(decoded.ok);
  EXPECT_TRUE(decoded.stale);
  EXPECT_TRUE(decoded.follower);
  EXPECT_EQ(decoded, response);

  // Status bits beyond ok|stale|follower mean a protocol desync, not a guess.
  wire[4 + 8] = 0x08;
  EXPECT_THROW((void)DecodeResponse({wire.data() + 4, kResponseWireSize}),
               InvalidArgument);
}

TEST(TcpServer, HalfWrittenFrameTimesOutWithoutWedgingTheService) {
  const Instance instance = MakeSolvedInstance(10);
  ServeHarness harness(instance);
  TcpServerOptions server_options;
  server_options.io_timeout_ms = 100;
  TcpServer server(harness, server_options);
  server.Start(/*port=*/0);

  // A peer that sends half a length prefix and goes silent: the handler
  // must give up after one timeout window, not hold the thread forever.
  TcpClient rude(server.Port());
  const std::uint8_t half_prefix[2] = {13, 0};
  rude.SendBytes(half_prefix);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.TimeoutsObserved() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.TimeoutsObserved(), 1u);

  // The service is still up for well-behaved clients.
  TcpClient polite(server.Port());
  const QueryRequest request{QueryKind::kResidual, instance.GetTree().Root(), 0};
  EXPECT_TRUE(polite.Query(request).ok);
  server.Stop();
}

TEST(TcpServer, ClientRetriesThroughAStalledServer) {
  const Instance instance = MakeSolvedInstance(11);
  ServeHarness harness(instance);
  TcpServer server(harness);
  server.Start(/*port=*/0);

  // First connection's handler sleeps past the client's I/O budget; the
  // client times out, reconnects, and the (one-shot) stall is gone.
  fail::ScopedArm stall("tcp.serve.stall", fail::Action::kDelay, 1, /*param=*/500);
  TcpClientOptions client_options;
  client_options.io_timeout_ms = 100;
  client_options.max_retries = 2;
  client_options.backoff_base_ms = 1;
  TcpClient client(server.Port(), client_options);
  const QueryRequest request{QueryKind::kResidual, instance.GetTree().Root(), 0};
  const QueryResponse response = client.Query(request);
  EXPECT_TRUE(response.ok);
  EXPECT_GE(client.Retries(), 1u);
  EXPECT_GE(server.ConnectionsAccepted(), 2u);

  server.Stop();
}

TEST(TcpServer, ExhaustedRetryBudgetSurfacesTheTimeout) {
  // A listener that accepts into its backlog but never reads: every attempt
  // (initial + retries) must time out, and the final one must escape.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);

  TcpClientOptions options;
  options.io_timeout_ms = 50;
  options.max_retries = 1;
  options.backoff_base_ms = 1;
  TcpClient client(ntohs(addr.sin_port), options);
  const QueryRequest request{QueryKind::kResidual, 0, 0};
  EXPECT_THROW((void)client.Query(request), TimeoutError);
  EXPECT_EQ(client.Retries(), 1u);
  ::close(listen_fd);
}

/// Polls `pred` every millisecond for up to ten seconds.
template <typename Pred>
bool PollFor(Pred&& pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(TcpServer, StopLeavesReusedFdsAlone) {
  // A connection that closed on server A frees its fd number, which the
  // next sockets in the process (here, server B's connections) reuse.
  // A.Stop() must shut down only A's live connections, never that number.
  const Instance instance = MakeSolvedInstance(13);
  ServeHarness harness(instance);
  TcpServer a(harness);
  TcpServer b(harness);
  a.Start(/*port=*/0);
  b.Start(/*port=*/0);
  const QueryRequest request{QueryKind::kResidual, instance.GetTree().Root(), 0};
  {
    TcpClient client(a.Port());
    EXPECT_TRUE(client.Query(request).ok);
  }
  ASSERT_TRUE(PollFor([&] { return a.ActiveConnections() == 0; }));

  // Four connections (eight fds, client and server side) surely take the
  // freed number, whatever else the process opens meanwhile.
  TcpClientOptions options;
  options.max_retries = 0;  // a broken connection must surface, not heal
  std::vector<std::unique_ptr<TcpClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<TcpClient>(b.Port(), options));
    EXPECT_TRUE(clients.back()->Query(request).ok);
  }
  a.Stop();
  for (const auto& client : clients) EXPECT_TRUE(client->Query(request).ok);
  b.Stop();
}

TEST(ConnectionCore, TcpServerReapsHandlersAcrossReconnects) {
  const Instance instance = MakeSolvedInstance(14);
  ServeHarness harness(instance);
  TcpServer server(harness);
  server.Start(/*port=*/0);
  const QueryRequest request{QueryKind::kResidual, instance.GetTree().Root(), 0};
  for (int cycle = 0; cycle < 256; ++cycle) {
    TcpClient client(server.Port());
    ASSERT_TRUE(client.Query(request).ok) << "cycle " << cycle;
  }
  // Every connection closed: the core holds no handler but at most the
  // one finished thread it has not joined yet.
  EXPECT_TRUE(PollFor([&] {
    return server.ActiveConnections() == 0 && server.HandlerThreads() <= 1;
  })) << server.HandlerThreads() << " handler threads held";
  EXPECT_EQ(server.ConnectionsAccepted(), 256u);
  server.Stop();
  EXPECT_EQ(server.HandlerThreads(), 0u);
}

TEST(TcpServer, StaleBitTravelsTheWire) {
  const Instance instance = MakeSolvedInstance(12);
  char dir_template[] = "/tmp/rpt_stale_XXXXXX";
  const std::string dir = ::mkdtemp(dir_template);
  DurabilityOptions durability;
  durability.dir = dir;
  {
    ServeHarness harness(instance, {}, durability);
    TcpServer server(harness);
    server.Start(/*port=*/0);
    TcpClient client(server.Port());
    const QueryRequest request{QueryKind::kResidual, instance.GetTree().Root(), 0};
    EXPECT_FALSE(client.Query(request).stale);

    // A durability failure degrades the service: answers keep flowing but
    // carry the stale bit until the next good publish.
    const NodeId probe = instance.GetTree().Clients()[0];
    fail::Arm("wal.sync", fail::Action::kError);
    EXPECT_THROW(harness.ApplyAndPublish(
                     std::vector<UpdateEvent>{UpdateEvent::DemandDelta(probe, 1)}),
                 InternalError);
    fail::DisarmAll();
    const QueryResponse degraded = client.Query(request);
    EXPECT_TRUE(degraded.ok);
    EXPECT_TRUE(degraded.stale);

    harness.ApplyAndPublish(
        std::vector<UpdateEvent>{UpdateEvent::DemandDelta(probe, 1)});
    const QueryResponse healed = client.Query(request);
    EXPECT_TRUE(healed.ok);
    EXPECT_FALSE(healed.stale);
    server.Stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplayStreaming, OnReplanHookPublishesPerResolve) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 32;
  cfg.min_requests = 1;
  cfg.max_requests = 8;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 21), /*capacity=*/40);

  sim::ReplayConfig config;
  config.ticks = 12;
  config.seed = 5;
  incremental::TraceConfig trace_config;
  trace_config.ticks = 12;
  trace_config.touches_per_tick = 2;
  trace_config.max_demand = 8;
  config.trace = incremental::MakeRandomTrace(instance.GetTree(), trace_config, 31);

  SnapshotStore store;
  std::uint64_t version = 0;
  config.on_replan = [&](const IncrementalSolver& solver, std::uint64_t) {
    store.Publish(SnapshotOf(solver, ++version));
  };
  const sim::ReplayReport report = sim::Replay(instance, config);
  ASSERT_TRUE(report.Drained() || report.arrived > 0);

  // One publish per resolve: the initial solve plus every non-empty batch.
  std::uint64_t expected = 1;
  for (const auto& batch : config.trace) {
    if (!batch.empty()) ++expected;
  }
  EXPECT_EQ(store.Publishes(), expected);

  // The final published snapshot is byte-identical to one built from a
  // shadow solver run through the same trace.
  IncrementalSolver shadow(instance);
  for (const auto& batch : config.trace) {
    if (!batch.empty()) (void)shadow.Apply(batch);
  }
  const SnapshotStore::Ref current = store.Acquire();
  ASSERT_TRUE(current);
  EXPECT_EQ(current->CanonicalHash(), SnapshotOf(shadow, expected)->CanonicalHash());
}

// The swap-torture test: readers hammer Query() while the publisher applies
// churn batches and swaps snapshots. Every response must be byte-identical
// to the precomputed answer archive for the version it reports — a torn
// read, a mixed-version snapshot, or a reclaimed-under-reader buffer cannot
// produce a clean pass (and TSan in the CI Debug leg watches the memory
// orderings directly).
TEST(SwapTorture, ConcurrentQueriesSeeOnlyPublishedVersions) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 64;
  cfg.min_requests = 1;
  cfg.max_requests = 9;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 13), /*capacity=*/30);
  const Tree& tree = instance.GetTree();

  incremental::TraceConfig trace_config;
  trace_config.ticks = 40;
  trace_config.touches_per_tick = 3;
  trace_config.max_demand = 9;
  trace_config.add_remove_fraction = 0.25;
  const UpdateTrace trace = MakeRandomTrace(tree, trace_config, 77);

  // Fixed query mix over the whole tree.
  std::vector<QueryRequest> queries;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    queries.push_back({tree.IsClient(id) ? QueryKind::kWhichReplica : QueryKind::kResidual,
                       id, 0});
    queries.push_back({QueryKind::kAttachCost, id, (id % 5) + 1});
  }

  // Precompute the per-version answer archive from a shadow solver — the
  // solvers are deterministic, so the harness's version v snapshot must
  // answer exactly like the shadow's version v snapshot.
  std::vector<std::vector<QueryResponse>> archive;  // archive[v-1][q]
  {
    IncrementalSolver shadow(instance);
    const auto record = [&](std::uint64_t version) {
      const auto snapshot = SnapshotOf(shadow, version);
      std::vector<QueryResponse> answers;
      answers.reserve(queries.size());
      for (const QueryRequest& query : queries) answers.push_back(Answer(*snapshot, query));
      archive.push_back(std::move(answers));
    };
    record(1);
    for (std::size_t tick = 0; tick < trace.size(); ++tick) {
      (void)shadow.Apply(trace[tick]);
      record(tick + 2);
    }
  }

  ServeHarness harness(instance);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> answered{0};
  constexpr std::size_t kReaders = 4;
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t at = r;  // stagger the start points
      while (!done.load(std::memory_order_acquire)) {
        // Single query through the harness.
        const QueryRequest& query = queries[at % queries.size()];
        const QueryResponse response = harness.Query(query);
        if (response.version == 0 || response.version > archive.size() ||
            response != archive[response.version - 1][at % queries.size()]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        // And a multi-query read against one pin: every answer must come
        // from the SAME version (the pin freezes the world).
        const SnapshotStore::Ref pinned = harness.Pin();
        const std::uint64_t version = pinned->Version();
        for (std::size_t i = 0; i < 8; ++i) {
          const std::size_t q = (at + i * 37) % queries.size();
          const QueryResponse pinned_answer = Answer(*pinned, queries[q]);
          if (version > archive.size() || pinned_answer != archive[version - 1][q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        answered.fetch_add(9, std::memory_order_relaxed);
        ++at;
      }
    });
  }

  for (std::size_t tick = 0; tick < trace.size(); ++tick) {
    (void)harness.ApplyAndPublish(trace[tick]);
  }
  // The applies can outrun reader startup; hold the world open until the
  // readers have demonstrably queried it so the assertions below are not
  // scheduling-dependent.
  while (answered.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(harness.Publishes(), trace.size() + 1);
  EXPECT_EQ(harness.Store().CurrentVersion(), trace.size() + 1);
}

TEST(SwapTorture, PinnedSnapshotsSurviveTopologyMutation) {
  // Same pin/verify discipline as above, but the update thread now mutates
  // the TOPOLOGY underneath the readers: attaches, detaches, migrations,
  // and link reconfigurations interleave with the demand churn. A pinned
  // snapshot copies the whole skeleton at publish time, so readers must see
  // bit-exact version-v answers no matter how the solver's overlay (ids,
  // child lists, tombstones) shifts after the pin.
  gen::BinaryTreeConfig cfg;
  cfg.clients = 64;
  cfg.min_requests = 1;
  cfg.max_requests = 9;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 29), /*capacity=*/30);
  const Tree& tree = instance.GetTree();

  incremental::TraceConfig trace_config;
  trace_config.ticks = 40;
  trace_config.touches_per_tick = 3;
  trace_config.max_demand = 9;
  trace_config.add_remove_fraction = 0.25;
  trace_config.join_rate = 0.15;
  trace_config.leave_rate = 0.10;
  trace_config.failure_rate = 0.10;
  trace_config.link_rate = 0.05;
  const UpdateTrace trace = MakeRandomTrace(tree, trace_config, 177);
  std::size_t topology_events = 0;
  for (const auto& batch : trace) {
    for (const UpdateEvent& event : batch) topology_events += event.IsTopology() ? 1 : 0;
  }
  ASSERT_GT(topology_events, 0u);  // the torture must actually churn topology

  // Queries target base-tree ids only: slots are never reused, so these ids
  // stay allocated in every version — detached ones answer ok=false.
  std::vector<QueryRequest> queries;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    queries.push_back({tree.IsClient(id) ? QueryKind::kWhichReplica : QueryKind::kResidual,
                       id, 0});
    queries.push_back({QueryKind::kAttachCost, id, (id % 5) + 1});
  }

  std::vector<std::vector<QueryResponse>> archive;  // archive[v-1][q]
  {
    IncrementalSolver shadow(instance);
    const auto record = [&](std::uint64_t version) {
      const auto snapshot = SnapshotOf(shadow, version);
      std::vector<QueryResponse> answers;
      answers.reserve(queries.size());
      for (const QueryRequest& query : queries) answers.push_back(Answer(*snapshot, query));
      archive.push_back(std::move(answers));
    };
    record(1);
    for (std::size_t tick = 0; tick < trace.size(); ++tick) {
      (void)shadow.Apply(trace[tick]);
      record(tick + 2);
    }
  }

  ServeHarness harness(instance);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> answered{0};
  constexpr std::size_t kReaders = 4;
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t at = r;
      while (!done.load(std::memory_order_acquire)) {
        const QueryRequest& query = queries[at % queries.size()];
        const QueryResponse response = harness.Query(query);
        if (response.version == 0 || response.version > archive.size() ||
            response != archive[response.version - 1][at % queries.size()]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        const SnapshotStore::Ref pinned = harness.Pin();
        const std::uint64_t version = pinned->Version();
        for (std::size_t i = 0; i < 8; ++i) {
          const std::size_t q = (at + i * 37) % queries.size();
          const QueryResponse pinned_answer = Answer(*pinned, queries[q]);
          if (version > archive.size() || pinned_answer != archive[version - 1][q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        answered.fetch_add(9, std::memory_order_relaxed);
        ++at;
      }
    });
  }

  for (std::size_t tick = 0; tick < trace.size(); ++tick) {
    (void)harness.ApplyAndPublish(trace[tick]);
  }
  while (answered.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(harness.Publishes(), trace.size() + 1);
  EXPECT_EQ(harness.Store().CurrentVersion(), trace.size() + 1);
  // The published world really did grow/shrink under the readers.
  const SnapshotStore::Ref last = harness.Pin();
  EXPECT_GT(last->Size(), tree.Size());
}

TEST(SwapTorture, PinnedVersionOutlivesSixtyFourBasedPublishes) {
  // Snapshots share unchanged pages with the version they were built on. A
  // reader pinning version k holds k's pages through k's own ownership:
  // while the publisher builds and publishes >= 64 more versions on top
  // (each sharing pages with k or its successors) and the store reclaims
  // them, the pinned snapshot must keep answering exactly as a from-scratch
  // build of state k does, with the same hash. The TSan CI leg watches the
  // page reference counts drop under the reader.
  gen::BinaryTreeConfig cfg;
  cfg.clients = 4096;  // 8191 nodes: eight pages
  cfg.min_requests = 1;
  cfg.max_requests = 9;
  const Instance instance(gen::GenerateFullBinaryTree(cfg, 41), /*capacity=*/30);
  const Tree& tree = instance.GetTree();

  constexpr std::size_t kPinnedAt = 6;
  constexpr std::size_t kLaterPublishes = 70;
  incremental::TraceConfig trace_config;
  trace_config.ticks = kPinnedAt + kLaterPublishes;
  trace_config.touches_per_tick = 8;
  trace_config.max_demand = 9;
  trace_config.add_remove_fraction = 0.25;
  const UpdateTrace trace = MakeRandomTrace(tree, trace_config, 91);

  std::vector<QueryRequest> queries;
  for (NodeId id = 0; id < tree.Size(); id += 7) {
    queries.push_back({tree.IsClient(id) ? QueryKind::kWhichReplica : QueryKind::kResidual,
                       id, 0});
    queries.push_back({QueryKind::kAttachCost, id, (id % 5) + 1});
  }

  IncrementalSolver solver(instance);
  SnapshotStore store;
  std::uint64_t version = 1;
  const auto publish_next = [&] {
    SnapshotStore::Ref base = store.Acquire();
    auto next = PlacementSnapshot::Build(solver.View(), solver.Capacity(), solver.Demands(),
                                         solver.Current(), version, base.get());
    base.Release();
    store.Publish(std::move(next));
    ++version;
  };
  publish_next();
  for (std::size_t tick = 0; tick + 1 < kPinnedAt; ++tick) {
    (void)solver.Apply(trace[tick]);
    publish_next();
  }
  (void)solver.Apply(trace[kPinnedAt - 1]);
  // Version k, built on the published k-1 like its published twin.
  std::unique_ptr<const PlacementSnapshot> pinned;
  {
    const SnapshotStore::Ref base = store.Acquire();
    pinned = PlacementSnapshot::Build(solver.View(), solver.Capacity(), solver.Demands(),
                                      solver.Current(), version, base.get());
  }
  const auto reference = SnapshotOf(solver, version);
  std::vector<QueryResponse> expected;
  for (const QueryRequest& query : queries) expected.push_back(Answer(*reference, query));
  const std::uint64_t expected_hash = reference->CanonicalHash();
  ASSERT_EQ(pinned->CanonicalHash(), expected_hash);
  publish_next();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> rounds{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::size_t at = r;
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t i = 0; i < 64; ++i, ++at) {
          const std::size_t q = at % queries.size();
          if (Answer(*pinned, queries[q]) != expected[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (pinned->CanonicalHash() != expected_hash) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        // The current version too: every page it reads may be shared.
        const SnapshotStore::Ref current = store.Acquire();
        (void)Answer(*current, queries[at % queries.size()]);
        rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t tick = kPinnedAt; tick < trace.size(); ++tick) {
    (void)solver.Apply(trace[tick]);
    publish_next();
  }
  while (rounds.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(store.Publishes(), kPinnedAt + 1 + 64);
  EXPECT_EQ(pinned->CanonicalHash(), expected_hash);
  // The last published version, built through the whole chain of bases,
  // is what a from-scratch build says.
  EXPECT_EQ(store.Acquire()->CanonicalHash(), SnapshotOf(solver, version - 1)->CanonicalHash());
}

}  // namespace
}  // namespace rpt::serve
