// perfbench — the repo benchmark's measuring program. run.py builds it and
// calls it once per run:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--control <name>] [--work-dir <dir>] [--trace-dir <dir>]
//             [--commit <id>]
//
// It prints an environment stamp, the workload's human-readable report and,
// as its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report every end-to-end metric; traced runs
// report every per-layer metric. A wrong answer makes
// the exit code nonzero. The binary is also its own shard worker: the
// sharded solve re-execs it with --rpt-shard-worker.
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "shard/worker.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace perfbench;

std::string Number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

// A fixed integer spin the optimizer cannot drop (the result is published).
std::atomic<std::uint64_t> g_spin_sink{0};
void Spin(std::uint64_t iterations) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

// Cores this process can actually use at once: nproc spinning threads
// against one, effective = nproc * t_one / t_all. A box that advertises 4
// CPUs but time-slices them reports well below 4.
double EffectiveParallelism(unsigned nproc) {
  constexpr std::uint64_t kIterations = 40'000'000;
  double one = 1e30;
  for (int repeat = 0; repeat < 2; ++repeat) {
    const auto start = Clock::now();
    Spin(kIterations);
    one = std::min(one, Ms(start, Clock::now()));
  }
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < nproc; ++t) threads.emplace_back(Spin, kIterations);
  for (std::thread& thread : threads) thread.join();
  const double all = Ms(start, Clock::now());
  return all > 0.0 ? nproc * one / all : 0.0;
}

void PrintStamp(const RunConfig& config, const std::string& commit) {
  const auto nproc = static_cast<unsigned>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  std::printf(
      "env: {\"nproc\": %u, \"effective_parallelism\": %.3f, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"seed\": %llu, \"solver_threads\": 1}\n",
      nproc, EffectiveParallelism(nproc), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      commit.c_str(), static_cast<unsigned long long>(config.seed));
}

std::string MetricsJson(const std::map<std::string, double>& values, bool per_layer,
                        bool& valid) {
  std::string out = "{";
  const auto catalogue = per_layer ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricDef& def : catalogue) {
    const auto it = values.find(std::string(def.name));
    if (it == values.end() && !per_layer) {
      std::printf("end-to-end metric %.*s was not measured\n",
                  static_cast<int>(def.name.size()), def.name.data());
      valid = false;
    }
    const double value = it == values.end() ? 0.0 : it->second;  // a bypassed layer reads 0
    if (!std::isfinite(value)) valid = false;
    if (out.size() > 1) out += ", ";
    out.append("\"").append(def.name).append("\": {\"value\": ").append(Number(value));
    out.append(", \"unit\": \"").append(def.unit).append("\"}");
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve-read|stream-write|"
               "shard-solve|paper-batch --seed N --seconds S --trace 0|1 "
               "[--control stall|worker-crash|wrong-cost] [--work-dir DIR] "
               "[--trace-dir DIR] [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], rpt::shard::kWorkerFlag) == 0) {
    return rpt::shard::ShardWorkerMain(argc, argv);
  }

  RunConfig config;
  std::string trace_dir = ".";
  std::string commit = "unknown";
  config.work_dir = "perfbench-work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") config.workload = value;
      else if (flag == "--seed") config.seed = std::stoull(value);
      else if (flag == "--seconds") config.seconds = std::stod(value);
      else if (flag == "--trace") config.trace = value == "1";
      else if (flag == "--control") config.control = value;
      else if (flag == "--work-dir") config.work_dir = value;
      else if (flag == "--trace-dir") trace_dir = value;
      else if (flag == "--commit") commit = value;
      else return Usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in --name value pairs");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be > 0");
  if (!config.control.empty() && config.control != "stall" &&
      config.control != "worker-crash" && config.control != "wrong-cost") {
    return Usage("unknown --control");
  }
  config.self_exe = std::filesystem::absolute(argv[0]).string();

  Outcome (*run)(const RunConfig&, Tracer&) = nullptr;
  if (config.workload == "serve-read") run = RunServeRead;
  else if (config.workload == "stream-write") run = RunStreamWrite;
  else if (config.workload == "shard-solve") run = RunShardSolve;
  else if (config.workload == "paper-batch") run = RunPaperBatch;
  else return Usage("unknown --workload");

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s%s\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0,
              config.control.empty() ? "" : " control=", config.control.c_str());
  PrintStamp(config, commit);
  std::fflush(stdout);

  // One solver thread: the load generators, servers and workers already
  // outnumber the cores this benchmark is run on, and a wider intra-solve
  // pool only adds scheduling noise. README.md states this.
  rpt::SetSolverThreads(1);

  Tracer tracer(config.trace);
  const auto origin = Clock::now();
  Outcome outcome;
  try {
    std::filesystem::create_directories(config.work_dir);
    outcome = run(config, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(), e.what());
    return 2;
  }

  if (config.trace) {
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + config.workload + "-seed" +
                             std::to_string(config.seed) + ".spans.jsonl";
    tracer.WriteJsonl(path, origin);
    tracer.PrintSummary();
    std::printf("span dump: %s\n", path.c_str());
  }

  const double failed_frac =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted)
          : 1.0;
  std::printf("failed_frac = %s ratio (%llu failed of %llu attempted)\n",
              Number(failed_frac).c_str(), static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  for (const std::string& detail : outcome.wrong_details) {
    std::printf("WRONG: %s\n", detail.c_str());
  }
  if (outcome.wrong > 0) {
    std::printf("%llu wrong answer(s)\n", static_cast<unsigned long long>(outcome.wrong));
  }

  bool valid = true;
  if (config.trace) {
    // The same end-to-end metrics, measured with spans on: run.py compares
    // them with the last untraced run to report the tracing overhead.
    std::printf("traced_end_to_end: %s\n",
                MetricsJson(outcome.end_to_end, false, valid).c_str());
  }
  const std::string metrics =
      MetricsJson(config.trace ? outcome.layer : outcome.end_to_end, config.trace, valid);
  const bool correct = outcome.wrong == 0 && valid && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(outcome.attempted, 1)),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
