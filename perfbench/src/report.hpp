// Shared plumbing of the repo benchmark: the metric catalogue, the per-run
// outcome a workload fills in, summary statistics, and the span recorder of
// the traced run.
//
// Every number comes from outside the library: spans wrap the benchmark's
// own calls into rpt's public functions, and counters are read from rpt's
// public accessors. Nothing here reaches into src/.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One metric of the catalogue: its stable name and unit.
struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics, in print order. Every workload reports all of them,
/// each over the workload's own operation: a query, a replicated batch, a
/// sharded solve, a grid pass (README.md has the table).
std::span<const MetricDef> EndToEndMetrics();

/// Per-layer metrics, in print order. A traced run reports all of them; a
/// layer the workload bypasses reads 0.
std::span<const MetricDef> PerLayerMetrics();

/// What one run of one workload measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;  ///< operations attempted in the timed window
  std::uint64_t failed = 0;     ///< of those, failed, refused or stale
  std::uint64_t wrong = 0;      ///< answers that contradict a check
  std::vector<std::string> wrong_details;  ///< first few wrong answers
  std::map<std::string, double> end_to_end;  ///< every EndToEndMetrics() name
  /// The workload's own figures (query_rps, visible_p90_ms, solve_p50_ms,
  /// ...), printed above the result line but not part of it.
  std::map<std::string, double> figures;
  std::map<std::string, double> layer;

  /// Records a correctness violation; any one makes the run exit nonzero.
  void Wrong(const std::string& what);
};

/// Quiet-slice quantiles (README.md): a run splits its samples into slices,
/// computes each statistic per slice and reports the slice at these
/// quantiles, so co-tenants that steal the CPU for seconds at a time move
/// the figures less than the code under test does.
inline constexpr double kQuietTime = 0.25;  // lower is better: first quartile
inline constexpr double kQuietRate = 0.75;  // higher is better: third quartile

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 for an empty
/// sample.
double Quantile(std::vector<double> values, double q);

/// Fixed-memory latency histogram, so the sample store does not grow with
/// throughput (peak_rss_mib describes the service, not the load generator):
/// 0.1-µs buckets below 1 ms, 1%-wide buckets up to 10 s, one overflow
/// bucket beyond.
class LatencyHistogram {
 public:
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t Count() const noexcept { return count_; }
  /// The midpoint of the bucket holding quantile q; 0 when empty.
  [[nodiscard]] double Quantile(double q) const;

 private:
  static constexpr std::size_t kFine = 10000;   // [0, 1000) µs in 0.1-µs steps
  static constexpr std::size_t kCoarse = 926;   // [1 ms, 10 s) in 1% steps
  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(kFine + kCoarse + 1, 0);
  std::uint64_t count_ = 0;
};

/// Milliseconds / microseconds between two steady-clock points.
double Ms(Clock::time_point from, Clock::time_point to);
double Us(Clock::time_point from, Clock::time_point to);

/// Peak resident set so far, in MiB: the larger of this process's and that
/// of the largest child it waited for (a shard worker).
double PeakRssMib();

/// Prints "name = value unit (n=samples)" for a human reader.
void PrintSample(std::string_view name, double value, std::string_view unit,
                 std::size_t samples);

/// Prints the end-to-end metrics of `outcome` with their sample counts.
void PrintEndToEnd(const Outcome& outcome, std::string_view operation, std::size_t setups,
                   std::size_t operations);

/// One recorded span: a timed call into a layer, its parent span (0 = a
/// root) and the id of the operation (request, batch, solve, cell) all
/// spans of one operation share.
struct SpanRecord {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
};

/// In-memory span store of the traced run; a disabled tracer records
/// nothing. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool Enabled() const noexcept { return enabled_; }

  /// Reserves a span id (ids start at 1 so 0 can mean "no parent").
  std::uint64_t NewId();

  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id, std::uint64_t parent, std::uint64_t op);

  /// Writes one JSON object per span (times in µs since `origin`).
  void WriteJsonl(const std::string& path, Clock::time_point origin) const;

  /// Per span name: count, total, self time (duration minus the part its
  /// child spans cover) and median duration.
  void PrintSummary() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: records [construction, destruction) when the tracer is on.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent, std::uint64_t op)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        op_(op),
        id_(tracer.Enabled() ? tracer.NewId() : 0),
        start_(Clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (id_ != 0) tracer_.Record(name_, start_, Clock::now(), id_, parent_, op_);
  }

  [[nodiscard]] std::uint64_t Id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t op_;
  std::uint64_t id_;
  Clock::time_point start_;
};

/// Command-line settings every workload sees.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Negative control to arm (README.md "Negative controls"); empty = none.
  std::string control;
  std::string work_dir;  ///< working directory for WAL, checkpoints, btabs
  std::string self_exe;  ///< this binary, re-exec'd as the shard worker
};

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 13;

/// Pins the calling thread to one CPU for the life of a set-up repeat, the
/// repeats in turn over every CPU the process may use, and then restores its
/// affinity. The vCPUs of a shared host run at different speeds, and a
/// short set-up left where the scheduler put it would read a whole run at
/// one vCPU's speed. The last repeat, the one a workload keeps, is not
/// pinned, so the threads it starts are not either.
class SetupPin {
 public:
  explicit SetupPin(int repeat);
  ~SetupPin();
  SetupPin(const SetupPin&) = delete;
  SetupPin& operator=(const SetupPin&) = delete;

 private:
  cpu_set_t original_{};
  bool pinned_ = false;
};

Outcome RunServeRead(const RunConfig& config, Tracer& tracer);
Outcome RunStreamWrite(const RunConfig& config, Tracer& tracer);
Outcome RunShardSolve(const RunConfig& config, Tracer& tracer);
Outcome RunPaperBatch(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
