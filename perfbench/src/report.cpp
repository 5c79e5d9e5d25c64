#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    // Read path.
    {"tcp.query_us", "us"},
    {"serve.query_us", "us"},
    {"serve.answer_us", "us"},
    {"tcp.wire_us", "us"},
    {"tcp.requests", "count"},
    {"tcp.timeouts", "count"},
    {"tcp.rejected", "count"},
    {"tcp.retries", "count"},
    {"serve.stale_answers", "count"},
    // Write path.
    {"wal.append_us", "us"},
    {"incremental.apply_ms", "ms"},
    {"snapshot.build_ms", "ms"},
    {"snapshot.publish_us", "us"},
    {"publish.unattributed_ms", "ms"},
    {"repl.lag_ms", "ms"},
    {"incremental.nodes_recomputed", "count/batch"},
    {"incremental.full_recomputes", "count"},
    {"incremental.reuse_frac", "ratio"},
    {"repl.applied", "count"},
    {"repl.duplicates", "count"},
    {"repl.resyncs", "count"},
    {"serve.checkpoints", "count"},
    {"serve.checkpoint_failures", "count"},
    {"gen.late_ms", "ms"},
    // Shard.
    {"shard.plan_ms", "ms"},
    {"shard.inproc_solve_ms", "ms"},
    {"shard.dispatch_ms", "ms"},
    {"shard.cut_solve_ms", "ms"},
    {"shard.extract_ms", "ms"},
    {"shard.imbalance", "ratio"},
    {"shard.cuts", "count"},
    {"shard.boundary_bytes", "bytes"},
    {"shard.worker_table_entries", "count"},
    {"shard.worker_convolve_cells", "count"},
    {"shard.spine_table_entries", "count"},
    {"shard.redispatches", "count"},
    {"multiple.dp_ms", "ms"},
    // Paper batch.
    {"tree.build_ms", "ms"},
    {"single.gen_ms", "ms"},
    {"single.nod_ms", "ms"},
    {"multiple.bin_ms", "ms"},
    {"multiple.bin_pruned_ms", "ms"},
    {"multiple.nod_dp_ms", "ms"},
    {"model.validate_ms", "ms"},
    {"flow.feasible_ms", "ms"},
    {"runner.busy_frac", "ratio"},
};

}  // namespace

std::span<const MetricDef> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricDef> PerLayerMetrics() { return kPerLayer; }

void Outcome::Wrong(const std::string& what) {
  ++wrong;
  if (wrong_details.size() < 16) wrong_details.push_back(what);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = at - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void LatencyHistogram::Add(double us) {
  std::size_t bucket = 0;
  if (us < 1000.0) {
    bucket = static_cast<std::size_t>(std::max(0.0, us) * 10.0);
  } else {
    bucket = kFine + static_cast<std::size_t>(std::log(us / 1000.0) / std::log(1.01));
  }
  ++buckets_[std::min(bucket, buckets_.size() - 1)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t before = 0;
  std::size_t bucket = 0;
  for (; bucket + 1 < buckets_.size(); ++bucket) {
    if (before + buckets_[bucket] > rank) break;
    before += buckets_[bucket];
  }
  // Spread the bucket's samples evenly across its width.
  const double within = buckets_[bucket] == 0
                            ? 0.5
                            : (static_cast<double>(rank - before) + 0.5) / buckets_[bucket];
  if (bucket < kFine) return (static_cast<double>(bucket) + within) / 10.0;
  return 1000.0 * std::pow(1.01, static_cast<double>(bucket - kFine) + within);
}

double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double PeakRssMib() {
  struct rusage self{};
  struct rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);  // the largest waited-for child
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // ru_maxrss is KiB
}

void PrintSample(std::string_view name, double value, std::string_view unit,
                 std::size_t samples) {
  std::printf("  %-28.*s %14.4f %-6.*s (n=%zu)\n", static_cast<int>(name.size()),
              name.data(), value, static_cast<int>(unit.size()), unit.data(), samples);
}

void PrintEndToEnd(const Outcome& outcome, std::string_view operation,
                   std::size_t setups, std::size_t operations) {
  std::printf("end-to-end (one operation = %.*s):\n", static_cast<int>(operation.size()),
              operation.data());
  for (const MetricDef& def : EndToEndMetrics()) {
    const auto it = outcome.end_to_end.find(std::string(def.name));
    const std::size_t samples =
        def.name == "setup_s" ? setups : def.name == "peak_rss_mib" ? 1 : operations;
    PrintSample(def.name, it == outcome.end_to_end.end() ? 0.0 : it->second, def.unit,
                samples);
  }
}

SetupPin::SetupPin(int repeat) {
  if (repeat + 1 >= kSetupRepeats) return;
  if (::sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  const int allowed = CPU_COUNT(&original_);
  if (allowed < 2) return;
  int skip = repeat % allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &original_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

SetupPin::~SetupPin() {
  if (pinned_) (void)::sched_setaffinity(0, sizeof original_, &original_);
}

std::uint64_t Tracer::NewId() {
  std::lock_guard lock(mu_);
  return next_id_++;
}

void Tracer::Record(const char* name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t id, std::uint64_t parent, std::uint64_t op) {
  if (!enabled_) return;
  std::lock_guard lock(mu_);
  spans_.push_back(SpanRecord{name, start, end, id, parent, op});
}

void Tracer::WriteJsonl(const std::string& path, Clock::time_point origin) const {
  std::lock_guard lock(mu_);
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("perfbench: cannot write span dump " + path);
  char line[256];
  for (const SpanRecord& span : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"id\":%llu,"
                  "\"parent\":%llu,\"op\":%llu}\n",
                  span.name, Us(origin, span.start), Us(origin, span.end),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.op));
    os << line;
  }
  if (!os.flush()) throw std::runtime_error("perfbench: span dump write failed " + path);
}

void Tracer::PrintSummary() const {
  std::lock_guard lock(mu_);
  // Children of each span, to subtract the part of its interval they cover.
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> durations_us;
  };
  std::map<std::string, Totals> by_name;
  for (const SpanRecord& span : spans_) {
    Totals& totals = by_name[span.name];
    const double duration = Ms(span.start, span.end);
    double covered = 0.0;
    if (const auto it = children.find(span.id); it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
      for (const SpanRecord* child : it->second) {
        intervals.emplace_back(std::max(child->start, span.start),
                               std::min(child->end, span.end));
      }
      std::sort(intervals.begin(), intervals.end());
      Clock::time_point reach = span.start;
      for (const auto& [from, to] : intervals) {
        const Clock::time_point begin = std::max(from, reach);
        if (to > begin) {
          covered += Ms(begin, to);
          reach = to;
        }
      }
    }
    ++totals.count;
    totals.total_ms += duration;
    totals.self_ms += duration - covered;
    totals.durations_us.push_back(duration * 1000.0);
  }
  std::printf("span summary (%zu spans):\n", spans_.size());
  std::printf("  %-24s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms",
              "median_us");
  for (auto& [name, totals] : by_name) {
    std::printf("  %-24s %9zu %12.3f %12.3f %12.3f\n", name.c_str(), totals.count,
                totals.total_ms, totals.self_ms, Quantile(totals.durations_us, 0.5));
  }
}

}  // namespace perfbench
