// serve-read and stream-write: the replicated placement service as deployed.
//
// One process runs the whole deployment over loopback: a durable primary
// ServeHarness (WAL fsync on, periodic checkpoints) behind a TcpServer and a
// ReplPrimary, one durable in-process ReplFollower, TcpClient readers and a
// publisher that drives churn batches through ReplPrimary::Apply. The two
// workloads differ only in size and in which side is loaded:
//
//   serve-read    4096 clients; 2 closed-loop readers; an open-loop
//                 publisher sending one batch every 20 ms.
//   stream-write  65536 clients; 1 closed-loop reader; a closed-loop
//                 publisher sending the next batch once the follower has
//                 applied the previous one.
//
// The traced run additionally replays the window's batch sequence through
// EventWal::Append, IncrementalSolver::Apply, PlacementSnapshot::Build and
// SnapshotStore::Publish one at a time (uncontended, after the window) to
// split primary-visible time into layers, and times ServeHarness::Query and
// serve::Answer in-process on the same request mix.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_tree.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "report.hpp"
#include "serve/event_wal.hpp"
#include "serve/placement_snapshot.hpp"
#include "serve/query.hpp"
#include "serve/repl_link.hpp"
#include "serve/serve_harness.hpp"
#include "serve/snapshot_store.hpp"
#include "serve/tcp_server.hpp"
#include "support/failpoint.hpp"

namespace perfbench {

namespace {

using namespace rpt;
namespace fs = std::filesystem;

constexpr Requests kCapacity = 40;
constexpr std::uint32_t kTouchesPerBatch = 8;
constexpr std::uint64_t kCheckpointEvery = 64;
constexpr int kRecheckEvery = 64;  // re-check 1 response in 64 against Answer
constexpr int kSpanEvery = 16;     // traced run: a span on 1 query in 16
constexpr int kFollowerWaitMs = 30000;
constexpr std::size_t kBatchGroup = 25;  // batches per publish-latency slice

struct ServeShape {
  std::uint32_t clients;
  int readers;
  /// Open loop: a batch is due every period_ms regardless of progress.
  /// Closed loop (0): the next batch goes once the follower applied the last.
  double period_ms;
};

// The fixed query mix of bench_serve: every node probed with the kind that
// fits it, plus an attach-cost probe with a small demand.
std::vector<serve::QueryRequest> MakeQueryMix(const Tree& tree) {
  std::vector<serve::QueryRequest> queries;
  queries.reserve(tree.Size() * 2);
  for (NodeId id = 0; id < tree.Size(); ++id) {
    queries.push_back({tree.IsClient(id) ? serve::QueryKind::kWhichReplica
                                         : serve::QueryKind::kResidual,
                       id, 0});
    queries.push_back({serve::QueryKind::kAttachCost, id, (id % 7) + 1});
  }
  return queries;
}

struct ServeInputs {
  std::unique_ptr<const Instance> instance;
  incremental::UpdateTrace churn;
  std::vector<serve::QueryRequest> mix;
};

ServeInputs MakeInputs(const ServeShape& shape, std::uint64_t seed, std::size_t batches) {
  gen::BinaryTreeConfig tree_config;
  tree_config.clients = shape.clients;
  tree_config.min_requests = 1;
  tree_config.max_requests = 10;
  tree_config.min_edge = 1;
  tree_config.max_edge = 2;
  tree_config.balanced = true;
  ServeInputs inputs;
  inputs.instance = std::make_unique<const Instance>(
      gen::GenerateFullBinaryTree(tree_config, seed), kCapacity, kNoDistanceLimit);
  incremental::TraceConfig trace_config;
  trace_config.ticks = batches;
  trace_config.touches_per_tick = kTouchesPerBatch;
  trace_config.max_demand = 10;
  trace_config.add_remove_fraction = 0.2;
  inputs.churn = incremental::MakeRandomTrace(inputs.instance->GetTree(), trace_config, seed + 31);
  inputs.mix = MakeQueryMix(inputs.instance->GetTree());
  return inputs;
}

/// The running service. Members are destroyed in reverse order: the TCP
/// front and the replication link stop before the harnesses they use. Tear
/// it down by destruction, never by move-assignment, which resets members
/// front to back and would free a harness under a live server thread.
struct Deployment {
  std::unique_ptr<serve::ServeHarness> primary;
  std::unique_ptr<serve::ServeHarness> follower;
  std::unique_ptr<serve::ReplPrimary> repl;
  std::unique_ptr<serve::ReplFollower> link;
  std::unique_ptr<serve::TcpServer> tcp;
};

serve::DurabilityOptions Durable(const std::string& dir) {
  serve::DurabilityOptions durability;
  durability.dir = dir;
  durability.checkpoint_every = kCheckpointEvery;
  durability.sync_appends = true;
  return durability;
}

Deployment Deploy(const Instance& instance, const std::string& dir) {
  Deployment d;
  d.primary = std::make_unique<serve::ServeHarness>(instance, incremental::SolverOptions{},
                                                    Durable(dir + "/primary"));
  d.follower = std::make_unique<serve::ServeHarness>(instance, incremental::SolverOptions{},
                                                     Durable(dir + "/follower"));
  serve::ReplPrimaryOptions repl_options;
  repl_options.ack_wait_ms = 0;  // visible_* excludes acks; follower_visible_* covers them
  d.repl = std::make_unique<serve::ReplPrimary>(*d.primary, repl_options);
  d.repl->Start(0);
  serve::ReplFollowerOptions link_options;
  link_options.heartbeat_timeout_ms = 0;  // no failover inside a measurement
  d.link = std::make_unique<serve::ReplFollower>(*d.follower, d.repl->Port(), link_options);
  d.link->Start();
  if (!d.repl->WaitForFollowers(1, 5000)) {
    throw std::runtime_error("perfbench: follower did not subscribe within 5 s");
  }
  d.tcp = std::make_unique<serve::TcpServer>(*d.primary);
  d.tcp->Start(0);
  return d;
}

bool SameAnswer(const serve::QueryResponse& a, const serve::QueryResponse& b) {
  return a.version == b.version && a.ok == b.ok && a.server == b.server &&
         a.value == b.value && a.distance == b.distance;
}

/// One closed-loop TcpClient connection cycling the query mix.
struct Reader {
  /// Round-trip times per second of the window, by completion time.
  std::vector<LatencyHistogram> per_second;
  std::vector<std::uint64_t> answered_per_s;  // answered queries per window second
  std::vector<double> traced_us;              // the sampled tcp.query spans
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t busy = 0;
  std::uint64_t stale = 0;
  std::uint64_t rechecked = 0;
  std::uint64_t retries = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> wrong_details;  // the first few
  Clock::time_point finished;

  void Wrong(std::string what) {
    if (++wrong <= 4) wrong_details.push_back(std::move(what));
  }
};

void RunReader(const serve::ServeHarness& harness, serve::TcpClient& client,
               const std::vector<serve::QueryRequest>& mix, std::size_t offset,
               const std::atomic<bool>& stop, Clock::time_point window_start, Tracer& tracer,
               std::uint64_t op_base, Reader& reader) {
  std::uint64_t last_version = 0;
  std::size_t at = offset;
  while (!stop.load(std::memory_order_acquire)) {
    const serve::QueryRequest& request = mix[at++ % mix.size()];
    ++reader.attempted;
    const bool traced = tracer.Enabled() && reader.attempted % kSpanEvery == 0;
    const std::uint64_t span_id = traced ? tracer.NewId() : 0;
    serve::QueryResponse response;
    bool answered = false;
    const auto start = Clock::now();
    try {
      response = client.Query(request);
      answered = true;
    } catch (const serve::TimeoutError&) {
      ++reader.timeouts;
    } catch (const serve::ServerBusy&) {
      ++reader.busy;
    } catch (const std::exception&) {
    }
    const auto end = Clock::now();
    // A failed request keeps its (long) latency: it missed every limit.
    const auto second = static_cast<std::size_t>(Ms(window_start, end) / 1000.0);
    if (second >= reader.per_second.size()) {
      reader.per_second.resize(second + 1);
      reader.answered_per_s.resize(second + 1, 0);
    }
    reader.per_second[second].Add(Us(start, end));
    if (traced) {
      tracer.Record("tcp.query", start, end, span_id, 0, op_base + reader.attempted);
      reader.traced_us.push_back(Us(start, end));
    }
    if (!answered) {
      ++reader.failed;
      continue;
    }
    ++reader.answered_per_s[second];
    if (response.version == 0 || response.version < last_version) {
      reader.Wrong("wire response version " + std::to_string(response.version) + " after " +
                   std::to_string(last_version));
    }
    last_version = std::max(last_version, response.version);
    if (response.stale) {
      ++reader.stale;
      ++reader.failed;
    }
    if (reader.attempted % kRecheckEvery == 0) {
      // Re-answer in-process against the snapshot pinned at the same
      // version; a publish in between makes the sample uncheckable.
      const serve::SnapshotStore::Ref pinned = harness.Pin();
      if (pinned->Version() == response.version) {
        ++reader.rechecked;
        if (!SameAnswer(serve::Answer(*pinned, request), response)) {
          reader.Wrong("wire answer for node " + std::to_string(request.node) +
                                 " differs from serve::Answer at version " +
                                 std::to_string(response.version));
        }
      }
    }
  }
  reader.retries = client.Retries();
  reader.finished = Clock::now();
}

/// One published batch: when it was due, when the primary had published it
/// and when the follower had applied it.
struct BatchTiming {
  std::uint64_t seq = 0;
  Clock::time_point due;
  Clock::time_point visible;
  Clock::time_point follower_visible;
  bool follower_ok = false;
};

std::atomic<std::uint64_t> g_answer_sink{0};

/// Times `fn` over consecutive blocks of 64 requests from `mix`; returns the
/// median per-request time in µs (single calls are too short for the clock).
template <typename Fn>
double MedianPerRequestUs(const std::vector<serve::QueryRequest>& mix, std::size_t total,
                          Fn&& fn) {
  constexpr std::size_t kBlock = 64;
  std::vector<double> per_request;
  std::uint64_t sink = 0;
  for (std::size_t done = 0; done < total; done += kBlock) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kBlock; ++i) sink += fn(mix[(done + i) % mix.size()]).value;
    per_request.push_back(Us(start, Clock::now()) / kBlock);
  }
  g_answer_sink.fetch_add(sink, std::memory_order_relaxed);  // keeps the answers observable
  return Quantile(per_request, 0.5);
}

struct ReplayTimes {
  std::vector<double> wal_append_us;
  std::vector<double> apply_ms;
  std::vector<double> build_ms;
  std::vector<double> publish_us;
  std::uint64_t final_hash = 0;
  double hash_ms = 0.0;  // PlacementSnapshot::CanonicalHash on the final snapshot
};

/// Replays the window's batches through the four write-path layers one call
/// at a time, in the order ServeHarness::ApplyAndPublish makes them.
ReplayTimes ReplayWritePath(const Instance& instance, const incremental::UpdateTrace& churn,
                            std::size_t batches, const std::string& dir, Tracer& tracer) {
  fs::create_directories(dir);
  ReplayTimes times;
  serve::EventWal wal = serve::EventWal::OpenForAppend(dir + "/replay.wal", /*sync=*/true);
  incremental::IncrementalSolver solver(instance);
  serve::SnapshotStore store;
  std::uint64_t version = 1;
  store.Publish(serve::PlacementSnapshot::Build(solver.View(), solver.Capacity(),
                                                solver.Demands(), solver.Current(), version));
  for (std::size_t k = 0; k < batches; ++k) {
    const std::vector<incremental::UpdateEvent>& events = churn[k];
    Span publish(tracer, "replay.publish", 0, k + 1);
    auto t0 = Clock::now();
    {
      Span span(tracer, "wal.append", publish.Id(), k + 1);
      wal.Append(k + 1, events);
    }
    auto t1 = Clock::now();
    {
      Span span(tracer, "incremental.apply", publish.Id(), k + 1);
      (void)solver.Apply(events);
    }
    auto t2 = Clock::now();
    std::unique_ptr<const serve::PlacementSnapshot> snapshot;
    {
      Span span(tracer, "snapshot.build", publish.Id(), k + 1);
      snapshot = serve::PlacementSnapshot::Build(solver.View(), solver.Capacity(),
                                                 solver.Demands(), solver.Current(), ++version);
    }
    auto t3 = Clock::now();
    {
      Span span(tracer, "snapshot.publish", publish.Id(), k + 1);
      store.Publish(std::move(snapshot));
    }
    auto t4 = Clock::now();
    times.wal_append_us.push_back(Us(t0, t1));
    times.apply_ms.push_back(Ms(t1, t2));
    times.build_ms.push_back(Ms(t2, t3));
    times.publish_us.push_back(Us(t3, t4));
  }
  // ReplPrimary::Apply hashes every snapshot it ships; time that call too.
  const serve::SnapshotStore::Ref last = store.Acquire();
  std::vector<double> hash_ms;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    times.final_hash = last->CanonicalHash();
    hash_ms.push_back(Ms(start, Clock::now()));
  }
  times.hash_ms = Quantile(hash_ms, 0.5);
  return times;
}

Outcome RunServe(const RunConfig& config, const ServeShape& shape, Tracer& tracer) {
  Outcome outcome;
  // Enough batches for the window at any plausible publish rate.
  const double min_batch_ms = shape.period_ms > 0.0 ? shape.period_ms : 5.0;
  const auto batch_budget = static_cast<std::size_t>(config.seconds * 1000.0 / min_batch_ms) + 2;

  // ---- Set-up, repeated: inputs (gen) + the deployment; the last is kept.
  std::vector<double> setup_s;
  ServeInputs inputs;
  std::optional<Deployment> deployment;
  std::string dir;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    deployment.reset();
    inputs = ServeInputs{};
    if (!dir.empty()) fs::remove_all(dir);
    dir = config.work_dir + "/deploy-" + std::to_string(repeat);
    fs::remove_all(dir);
    const SetupPin pin(repeat);
    const auto start = Clock::now();
    inputs = MakeInputs(shape, config.seed, batch_budget);
    deployment.emplace(Deploy(*inputs.instance, dir));
    setup_s.push_back(Ms(start, Clock::now()) / 1000.0);
  }
  const std::size_t tree_size = inputs.instance->GetTree().Size();
  std::printf("instance: full binary NoD tree, %u clients, %zu nodes, W=%llu; %zu query kinds "
              "x nodes in the mix; %d reader(s); publisher %s\n",
              shape.clients, tree_size, static_cast<unsigned long long>(kCapacity),
              inputs.mix.size(), shape.readers,
              shape.period_ms > 0.0 ? "open loop, one 8-touch batch every 20 ms"
                                    : "closed loop on follower apply");

  std::vector<std::unique_ptr<serve::TcpClient>> clients;
  for (int r = 0; r < shape.readers; ++r) {
    serve::TcpClientOptions options;
    options.io_timeout_ms = 1000;
    options.backoff_seed = static_cast<std::uint64_t>(r) + 1;
    clients.push_back(std::make_unique<serve::TcpClient>(deployment->tcp->Port(), options));
  }
  if (config.control == "stall") {
    // Negative control: every request stalls past the client's timeout.
    fail::ArmSticky("tcp.serve.stall", fail::Action::kDelay, 1500);
  }

  const incremental::IncrementalStats stats_before = deployment->primary->Solver().Stats();
  const std::uint64_t served_before = deployment->tcp->RequestsServed();

  // ---- The timed window.
  std::atomic<bool> stop{false};
  std::vector<Reader> readers(static_cast<std::size_t>(shape.readers));
  std::vector<std::thread> reader_threads;
  const auto window_start = Clock::now();
  for (int r = 0; r < shape.readers; ++r) {
    reader_threads.emplace_back([&, r] {
      try {
        RunReader(*deployment->primary, *clients[static_cast<std::size_t>(r)], inputs.mix,
                  static_cast<std::size_t>(r) * inputs.mix.size() / shape.readers, stop,
                  window_start, tracer, (static_cast<std::uint64_t>(r) + 1) << 40,
                  readers[static_cast<std::size_t>(r)]);
      } catch (const std::exception& e) {
        readers[static_cast<std::size_t>(r)].Wrong(std::string("reader died: ") + e.what());
      }
    });
  }

  // Pre-sized so the watcher can hold a reference while the publisher fills
  // later slots; `published` counts the filled prefix.
  std::vector<BatchTiming> batches(inputs.churn.size());
  std::size_t published = 0;
  std::vector<double> late_ms;
  std::uint64_t batch_failures = 0;
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));

  // Open loop: the follower watcher runs beside the publisher so a slow
  // follower never delays the next due batch.
  std::mutex watch_mu;
  std::condition_variable watch_cv;
  std::deque<std::size_t> watch_queue;  // `batches` slots awaiting the follower
  bool publishing_done = false;
  const auto watch_one = [&](BatchTiming& batch) {
    batch.follower_ok = deployment->link->WaitForSeq(batch.seq, kFollowerWaitMs);
    batch.follower_visible = Clock::now();
    if (tracer.Enabled()) {
      tracer.Record("repl.follower_wait", batch.visible, batch.follower_visible,
                    tracer.NewId(), 0, batch.seq);
    }
  };
  std::thread watcher;
  if (shape.period_ms > 0.0) {
    watcher = std::thread([&] {
      for (;;) {
        std::unique_lock lock(watch_mu);
        watch_cv.wait(lock, [&] { return publishing_done || !watch_queue.empty(); });
        if (watch_queue.empty()) return;
        const std::size_t index = watch_queue.front();
        watch_queue.pop_front();
        BatchTiming& batch = batches[index];
        lock.unlock();
        watch_one(batch);
      }
    });
  }

  for (std::size_t k = 0; k < inputs.churn.size(); ++k) {
    Clock::time_point due;
    if (shape.period_ms > 0.0) {
      due = window_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(shape.period_ms * k));
      if (due >= window_end) break;
      std::this_thread::sleep_until(due);
      late_ms.push_back(Ms(due, Clock::now()));
    } else {
      due = Clock::now();
      if (due >= window_end) break;
    }
    BatchTiming& batch = batches[published];
    batch.due = due;
    bool applied = false;
    {
      Span span(tracer, "repl.apply", 0, k + 1);
      try {
        (void)deployment->repl->Apply(inputs.churn[k]);
        applied = true;
      } catch (const std::exception& e) {
        ++batch_failures;
        std::printf("batch %zu failed: %s\n", k + 1, e.what());
      }
    }
    batch.visible = Clock::now();
    if (!applied) continue;
    batch.seq = deployment->primary->LastDurableSeq();
    if (shape.period_ms > 0.0) {
      std::lock_guard lock(watch_mu);
      watch_queue.push_back(published++);
      watch_cv.notify_one();
    } else {
      watch_one(batch);
      ++published;
    }
  }
  const auto publish_end = Clock::now();
  if (watcher.joinable()) {
    {
      std::lock_guard lock(watch_mu);
      publishing_done = true;
    }
    watch_cv.notify_one();
    watcher.join();
  }
  batches.resize(published);
  // Readers run until the window closes even when the churn ran out early.
  std::this_thread::sleep_until(window_end);
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : reader_threads) thread.join();
  fail::DisarmAll();

  // ---- End-to-end metrics.
  LatencyHistogram all_us;
  std::vector<double> traced_us;
  // One-second query slices; a window under a second is one slice.
  const std::size_t full_slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(config.seconds));
  std::vector<LatencyHistogram> slice_us(full_slices);
  std::vector<double> slice_rps(full_slices, 0.0);
  std::uint64_t queries = 0, query_failures = 0, timeouts = 0, busy = 0, stale = 0,
                rechecked = 0, retries = 0;
  Clock::time_point readers_done = window_start;
  for (Reader& reader : readers) {
    for (std::size_t second = 0; second < reader.per_second.size(); ++second) {
      all_us.Merge(reader.per_second[second]);
      if (second < full_slices) {
        slice_us[second].Merge(reader.per_second[second]);
        slice_rps[second] += static_cast<double>(reader.answered_per_s[second]);
      }
    }
    traced_us.insert(traced_us.end(), reader.traced_us.begin(), reader.traced_us.end());
    queries += reader.attempted;
    query_failures += reader.failed;
    timeouts += reader.timeouts;
    busy += reader.busy;
    stale += reader.stale;
    rechecked += reader.rechecked;
    retries += reader.retries;
    readers_done = std::max(readers_done, reader.finished);
    for (const std::string& what : reader.wrong_details) outcome.Wrong(what);
    outcome.wrong += reader.wrong - reader.wrong_details.size();
  }
  const double read_window_s = Ms(window_start, readers_done) / 1000.0;
  std::vector<double> visible_ms, follower_ms, lag_ms;
  std::uint64_t follower_failures = 0;
  for (const BatchTiming& batch : batches) {
    visible_ms.push_back(Ms(batch.due, batch.visible));
    if (!batch.follower_ok) {
      ++follower_failures;
      continue;
    }
    follower_ms.push_back(Ms(batch.due, batch.follower_visible));
    lag_ms.push_back(Ms(batch.visible, batch.follower_visible));
  }
  outcome.attempted = queries + batches.size() + batch_failures;
  outcome.failed = query_failures + batch_failures + follower_failures;

  // Quiet-slice figures (README.md): each statistic is taken per slice of
  // the window (1-s slices of queries, groups of kBatchGroup consecutive
  // batches) and the run reports the quiet quartile across slices. The
  // whole-window figures are printed for comparison.
  std::vector<double> slice_p50, slice_p90, slice_p99;
  for (const LatencyHistogram& slice : slice_us) {
    if (slice.Count() == 0) continue;
    slice_p50.push_back(slice.Quantile(0.5));
    slice_p90.push_back(slice.Quantile(0.9));
    slice_p99.push_back(slice.Quantile(0.99));
  }
  std::vector<double> group_p50, group_p90, group_follower_p50, group_follower_p90,
      group_rate;
  for (std::size_t first = 0; first < batches.size(); first += kBatchGroup) {
    const std::size_t last = std::min(first + kBatchGroup, batches.size());
    if (last - first < kBatchGroup && first > 0) break;  // a short tail group
    const std::vector<double> visible(visible_ms.begin() + first, visible_ms.begin() + last);
    group_p50.push_back(Quantile(visible, 0.5));
    group_p90.push_back(Quantile(visible, 0.9));
    std::vector<double> follower;
    for (std::size_t k = first; k < last; ++k) {
      if (batches[k].follower_ok) {
        follower.push_back(Ms(batches[k].due, batches[k].follower_visible));
      }
    }
    group_follower_p50.push_back(Quantile(follower, 0.5));
    group_follower_p90.push_back(Quantile(follower, 0.9));
    group_rate.push_back(static_cast<double>(last - first) /
                         (Ms(batches[first].due, batches[last - 1].follower_visible) / 1000.0));
  }

  auto& fig = outcome.figures;
  fig["query_rps"] = Quantile(slice_rps, kQuietRate);
  fig["query_p50_us"] = Quantile(slice_p50, kQuietTime);
  fig["query_p99_us"] = Quantile(slice_p99, kQuietTime);
  fig["visible_p50_ms"] = Quantile(group_p50, kQuietTime);
  fig["visible_p90_ms"] = Quantile(group_p90, kQuietTime);
  fig["follower_visible_p50_ms"] = Quantile(group_follower_p50, kQuietTime);
  fig["follower_visible_p90_ms"] = Quantile(group_follower_p90, kQuietTime);
  if (shape.period_ms == 0.0) fig["batches_per_s"] = Quantile(group_rate, kQuietRate);

  // The operation of the end-to-end metrics: a query round trip on the
  // read-heavy workload, a batch through primary and follower on the
  // write-heavy one.
  auto& e2e = outcome.end_to_end;
  e2e["setup_s"] = Quantile(setup_s, 0.5);
  if (shape.period_ms > 0.0) {
    e2e["ops_per_s"] = fig["query_rps"];
    e2e["op_p50_ms"] = fig["query_p50_us"] / 1000.0;
    e2e["op_p90_ms"] = Quantile(slice_p90, kQuietTime) / 1000.0;
  } else {
    e2e["ops_per_s"] = fig["batches_per_s"];
    e2e["op_p50_ms"] = fig["follower_visible_p50_ms"];
    e2e["op_p90_ms"] = fig["follower_visible_p90_ms"];
  }
  std::printf("whole window: query_rps %.1f, query p50 %.3f us, p99 %.3f us; visible p50 %.3f "
              "ms, p90 %.3f ms; follower p50 %.3f ms, p90 %.3f ms; %.3f batches/s\n",
              static_cast<double>(queries - query_failures) / read_window_s,
              all_us.Quantile(0.5), all_us.Quantile(0.99), Quantile(visible_ms, 0.5),
              Quantile(visible_ms, 0.9), Quantile(follower_ms, 0.5), Quantile(follower_ms, 0.9),
              static_cast<double>(batches.size()) / (Ms(window_start, publish_end) / 1000.0));

  // ---- Correctness at the end: follower == primary, the final state is a
  // valid placement, and incremental == a full re-solve.
  const std::uint64_t final_seq = deployment->primary->LastDurableSeq();
  if (!deployment->link->WaitForSeq(final_seq, kFollowerWaitMs)) {
    outcome.Wrong("follower never reached seq " + std::to_string(final_seq));
  }
  const std::uint64_t primary_hash = deployment->primary->Pin()->CanonicalHash();
  const std::uint64_t follower_hash = deployment->follower->Pin()->CanonicalHash();
  if (primary_hash != follower_hash) {
    outcome.Wrong("follower CanonicalHash differs from the primary's");
  }
  const incremental::IncrementalSolver& solver = deployment->primary->Solver();
  const Instance final_instance = solver.MaterializeInstance();
  const ValidationReport validation =
      ValidateSolution(final_instance, Policy::kMultiple, solver.Current());
  if (!solver.Feasible() || !validation.ok) {
    outcome.Wrong("final primary placement fails ValidateSolution");
  }
  const auto resolved = multiple::SolveMultipleNodDp(final_instance);
  if (resolved.solution.ReplicaCount() != solver.Current().ReplicaCount()) {
    outcome.Wrong("incremental cost " + std::to_string(solver.Current().ReplicaCount()) +
                  " != full re-solve cost " + std::to_string(resolved.solution.ReplicaCount()));
  }

  std::printf("window: %.3f s, %llu queries (%llu re-checked against serve::Answer), "
              "%zu batches published, seq %llu\n",
              read_window_s, static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(rechecked), batches.size(),
              static_cast<unsigned long long>(final_seq));
  std::printf("checks: follower hash %s primary, final placement %s, incremental cost %zu "
              "vs re-solve %zu\n",
              primary_hash == follower_hash ? "==" : "!=", validation.ok ? "valid" : "INVALID",
              solver.Current().ReplicaCount(), resolved.solution.ReplicaCount());

  // ---- Per-layer metrics (counters are cheap; read them in every run).
  auto& layer = outcome.layer;
  const incremental::IncrementalStats& stats_after = solver.Stats();
  const double resolves = static_cast<double>(stats_after.resolves - stats_before.resolves);
  layer["tcp.requests"] = static_cast<double>(deployment->tcp->RequestsServed() - served_before);
  layer["tcp.timeouts"] = static_cast<double>(timeouts + deployment->tcp->TimeoutsObserved());
  layer["tcp.rejected"] = static_cast<double>(busy + deployment->tcp->RejectedConnections());
  layer["tcp.retries"] = static_cast<double>(retries);
  layer["serve.stale_answers"] = static_cast<double>(stale);
  layer["incremental.nodes_recomputed"] =
      resolves > 0 ? static_cast<double>(stats_after.nodes_recomputed -
                                         stats_before.nodes_recomputed) / resolves
                   : 0.0;
  layer["incremental.full_recomputes"] =
      static_cast<double>(stats_after.full_recomputes - stats_before.full_recomputes);
  layer["incremental.reuse_frac"] =
      resolves > 0 ? static_cast<double>(stats_after.nodes_reused - stats_before.nodes_reused) /
                         (resolves * static_cast<double>(tree_size))
                   : 0.0;
  layer["repl.applied"] = static_cast<double>(deployment->link->Core().Applied());
  layer["repl.duplicates"] = static_cast<double>(deployment->link->Core().Duplicates());
  layer["repl.resyncs"] = static_cast<double>(deployment->link->Core().Resyncs());
  const std::uint64_t applies = deployment->primary->Publishes() - 1;  // minus the initial
  layer["serve.checkpoints"] = static_cast<double>(applies / kCheckpointEvery -
                                                   deployment->primary->CheckpointFailures());
  layer["serve.checkpoint_failures"] =
      static_cast<double>(deployment->primary->CheckpointFailures());
  layer["gen.late_ms"] = Quantile(late_ms, 0.9);
  layer["repl.lag_ms"] = Quantile(lag_ms, 0.5);
  layer["tcp.query_us"] = Quantile(traced_us, 0.5);

  if (tracer.Enabled()) {
    // Uncontended layer timings, after the window (README.md says so).
    const ReplayTimes replay =
        ReplayWritePath(*inputs.instance, inputs.churn, batches.size(), dir + "/replay", tracer);
    if (batch_failures == 0 && replay.final_hash != primary_hash) {
      outcome.Wrong("replayed write path ends on a different snapshot than the primary");
    }
    layer["wal.append_us"] = Quantile(replay.wal_append_us, 0.5);
    layer["incremental.apply_ms"] = Quantile(replay.apply_ms, 0.5);
    layer["snapshot.build_ms"] = Quantile(replay.build_ms, 0.5);
    layer["snapshot.publish_us"] = Quantile(replay.publish_us, 0.5);
    const double attributed = layer["wal.append_us"] / 1000.0 + layer["incremental.apply_ms"] +
                              layer["snapshot.build_ms"] + layer["snapshot.publish_us"] / 1000.0;
    const double visible = Quantile(visible_ms, 0.5);  // whole window, like the replay
    layer["publish.unattributed_ms"] = visible - attributed;
    const std::size_t replay_queries = std::min<std::size_t>(inputs.mix.size() * 4, 1 << 18);
    layer["serve.query_us"] = MedianPerRequestUs(
        inputs.mix, replay_queries,
        [&](const serve::QueryRequest& request) { return deployment->primary->Query(request); });
    const serve::SnapshotStore::Ref pinned = deployment->primary->Pin();
    layer["serve.answer_us"] =
        MedianPerRequestUs(inputs.mix, replay_queries, [&](const serve::QueryRequest& request) {
          return serve::Answer(*pinned, request);
        });
    layer["tcp.wire_us"] = layer["tcp.query_us"] - layer["serve.query_us"];
    std::printf("note: wal/incremental/snapshot/serve.query timings come from an uncontended "
                "replay of this run's %zu batches and request mix after the window\n",
                batches.size());
    std::printf("closure: primary-visible p50 %.3f ms = wal.append %.3f + incremental.apply "
                "%.3f + snapshot.build %.3f + snapshot.publish %.3f + unattributed %.3f ms "
                "(%.1f%% unattributed: ReplPrimary shipping, of which CanonicalHash %.3f ms, "
                "checkpoints, scheduling)\n",
                visible, layer["wal.append_us"] / 1000.0, layer["incremental.apply_ms"],
                layer["snapshot.build_ms"], layer["snapshot.publish_us"] / 1000.0,
                layer["publish.unattributed_ms"],
                visible > 0 ? 100.0 * layer["publish.unattributed_ms"] / visible : 0.0,
                replay.hash_ms);
    std::printf("closure: tcp.query p50 %.3f us = serve.query %.3f us + wire %.3f us\n",
                layer["tcp.query_us"], layer["serve.query_us"], layer["tcp.wire_us"]);
  }

  deployment.reset();
  fs::remove_all(dir);
  e2e["peak_rss_mib"] = PeakRssMib();

  std::printf("figures:\n");
  std::printf("  (query figures: %zu one-second slices of %zu queries; publish figures: %zu "
              "groups of %zu of %zu batches)\n",
              slice_rps.size(), all_us.Count(), group_p50.size(), kBatchGroup,
              batches.size());
  PrintSample("query_rps", fig["query_rps"], "1/s", all_us.Count());
  PrintSample("query_p50_us", fig["query_p50_us"], "us", all_us.Count());
  PrintSample("query_p99_us", fig["query_p99_us"], "us", all_us.Count());
  PrintSample("visible_p50_ms", fig["visible_p50_ms"], "ms", visible_ms.size());
  PrintSample("visible_p90_ms", fig["visible_p90_ms"], "ms", visible_ms.size());
  PrintSample("follower_visible_p50_ms", fig["follower_visible_p50_ms"], "ms",
              follower_ms.size());
  PrintSample("follower_visible_p90_ms", fig["follower_visible_p90_ms"], "ms",
              follower_ms.size());
  if (fig.count("batches_per_s") != 0) {
    PrintSample("batches_per_s", fig["batches_per_s"], "1/s", batches.size());
  }
  PrintEndToEnd(outcome, shape.period_ms > 0.0 ? "a TcpClient::Query round trip"
                                               : "a batch through primary and follower",
                setup_s.size(), shape.period_ms > 0.0 ? all_us.Count() : follower_ms.size());
  return outcome;
}

}  // namespace

Outcome RunServeRead(const RunConfig& config, Tracer& tracer) {
  return RunServe(config, ServeShape{4096, 2, 20.0}, tracer);
}

Outcome RunStreamWrite(const RunConfig& config, Tracer& tracer) {
  return RunServe(config, ServeShape{65536, 1, 0.0}, tracer);
}

}  // namespace perfbench
