// perfbench: the repository's end-to-end benchmark. One process
// runs one workload for a fixed time and prints every metric it measured
// by name, unit and sample count, then one JSON result line. perfbench/
// run.py builds this binary and selects the metrics BENCHMARK.json
// declares; see perfbench/METRICS.md for what each workload and metric
// is for.
//
//   perfbench --workload topk_interactive|routed_bulk|live_ingest_mix
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Exit codes: 0 = result printed and every answer matched its oracle;
// 1 = a wrong answer or failed self-check (result printed, correct=false);
// 2 = bad arguments; 3 = refused (non-Release or sanitizer build, load
// above nproc, too few samples for a reportable p99).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "util/logging.h"
#include "workload.h"

namespace approxql::perfbench {

LoopResult RunClosedLoop(size_t clients, double seconds, uint64_t max_ops,
                         const std::function<OpResult(size_t, uint64_t)>& op) {
  using Clock = std::chrono::steady_clock;
  std::vector<LoopResult> per_client(clients);
  std::atomic<uint64_t> next_seq{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per_client[c];
      while (Clock::now() < deadline) {
        uint64_t seq = next_seq.fetch_add(1, std::memory_order_relaxed);
        if (seq >= max_ops) break;
        OpResult result = op(c, seq);
        ++mine.attempted;
        if (result.wrong) ++mine.wrong;
        if (!result.ok || result.wrong) {
          ++mine.failed;
        } else {
          mine.latencies_us.push_back(result.latency_us);
          mine.completed_s.push_back(
              std::chrono::duration<double>(Clock::now() - start).count());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoopResult total;
  total.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (LoopResult& part : per_client) {
    total.latencies_us.insert(total.latencies_us.end(),
                              part.latencies_us.begin(),
                              part.latencies_us.end());
    total.completed_s.insert(total.completed_s.end(),
                             part.completed_s.begin(), part.completed_s.end());
    total.attempted += part.attempted;
    total.failed += part.failed;
    total.wrong += part.wrong;
  }
  return total;
}

bool SameAnswers(const std::vector<engine::QueryAnswer>& a,
                 const std::vector<engine::QueryAnswer>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const engine::QueryAnswer& x,
                       const engine::QueryAnswer& y) {
                      return x.root == y.root && x.cost == y.cost;
                    });
}

void AddQueryMetrics(const LoopResult& loop, size_t windows,
                     Report* report) {
  report->attempted += loop.attempted;
  report->failed += loop.failed;
  report->wrong += loop.wrong;
  const double window_s = loop.seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> by_window(windows);
  for (size_t i = 0; i < loop.latencies_us.size(); ++i) {
    size_t w = static_cast<size_t>(loop.completed_s[i] / window_s);
    by_window[std::min(w, windows - 1)].push_back(loop.latencies_us[i]);
  }
  std::vector<double> qps, p50, p99;
  size_t fewest_beyond = SIZE_MAX;
  for (const std::vector<double>& window : by_window) {
    LatencySummary s = Summarize(window);
    qps.push_back(static_cast<double>(s.count) / window_s);
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    fewest_beyond = std::min(fewest_beyond, s.beyond_p99);
    std::printf("window: qps=%.1f p50=%.1fus p99=%.1fus\n", qps.back(),
                s.p50, s.p99);
  }
  LatencySummary whole = Summarize(loop.latencies_us);
  std::printf("whole run: %zu queries in %.2f s, qps=%.1f p50=%.1fus "
              "p99=%.1fus (beyond=%zu)\n",
              whole.count, loop.seconds,
              static_cast<double>(whole.count) / loop.seconds, whole.p50,
              whole.p99, whole.beyond_p99);
  char note[64];
  std::snprintf(note, sizeof(note), "median of %zu windows of %.1f s",
                windows, window_s);
  report->metrics.Add("query_qps", Median(qps), "1/s", whole.count, note);
  report->metrics.Add("query_p50_us", Median(p50), "us", whole.count, note);
  report->metrics.Add("query_p99_us", Median(p99), "us", whole.count,
                      std::string(note) + ", fewest beyond p99 in a window: " +
                          std::to_string(fewest_beyond));
  if (fewest_beyond < 10) {
    report->refusal = "a window's query_p99_us has " +
                      std::to_string(fewest_beyond) +
                      " samples beyond it (needs 10)";
  }
}

namespace {

/// Every per-layer metric any workload reports, with its unit. A traced
/// run reports each one: a layer its workload does not exercise reads 0.
struct PerLayerMetric {
  const char* name;
  const char* unit;
};
constexpr PerLayerMetric kPerLayerMetrics[] = {
    {"query.parse_us_p50", "us"},
    {"query.expand_us_p50", "us"},
    {"query.disjuncts", "count"},
    {"engine.direct.exec_us_p50", "us"},
    {"engine.direct.entries_fetched", "count"},
    {"engine.direct.list_ops", "count"},
    {"engine.direct.fetches", "count"},
    {"engine.direct.dp_cache_hit_ratio", "1"},
    {"engine.self_frac", "1"},
    {"service.queue_us_mean", "us"},
    {"service.exec_us_p50", "us"},
    {"service.self_frac", "1"},
    {"net.self_frac", "1"},
    {"net.response_bytes", "B"},
    {"dist.self_frac", "1"},
    {"dist.retries", "count"},
    {"dist.degraded", "count"},
    {"shard.self_frac", "1"},
    {"shard.straggler_ratio", "1"},
    {"index.lock_waits_per_query", "count"},
    {"index.lock_wait_frac", "1"},
    {"ingest.unpublished_acks", "count"},
    {"storage.wal_bytes_per_op", "B"},
    {"storage.vlog_bytes_per_op", "B"},
    {"trace.overhead_frac", "1"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "topk_interactive|routed_bulk|live_ingest_mix --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || config.seconds <= 0) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  void (*run)(const RunConfig&, Report*) = nullptr;
  if (config.workload == "topk_interactive") {
    run = RunTopkInteractive;
  } else if (config.workload == "routed_bulk") {
    run = RunRoutedBulk;
  } else if (config.workload == "live_ingest_mix") {
    run = RunLiveIngestMix;
  } else {
    return Usage("unknown --workload");
  }

  std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time a %s\n",
                 refusal.c_str());
    return 3;
  }
  util::SetLogLevel(util::LogLevel::kError);
  std::filesystem::create_directories(config.work_dir);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  run(config, &report);
  if (report.wrong > 0) {
    std::printf("CHECK FAILED: %llu answers differ from the oracle\n",
                static_cast<unsigned long long>(report.wrong));
  }
  if (!report.refusal.empty()) {
    std::fprintf(stderr, "perfbench: refused: %s\n", report.refusal.c_str());
    return 3;
  }
  if (config.trace) {
    for (const PerLayerMetric& metric : kPerLayerMetrics) {
      if (!report.metrics.Has(metric.name)) {
        report.metrics.Add(metric.name, 0, metric.unit, 0,
                           "(layer not exercised by this workload)");
      }
    }
  } else {
    report.metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.metrics.Add(
      "failed_frac",
      SafeRatio(static_cast<double>(report.failed),
                static_cast<double>(report.attempted)),
      "1", report.attempted, "failed=" + std::to_string(report.failed));
  const bool correct = report.wrong == 0 && report.self_check_error.empty();
  if (!report.self_check_error.empty()) {
    std::printf("CHECK FAILED: %s\n", report.self_check_error.c_str());
  }
  std::printf("%s\n", report.metrics
                          .ResultJson(correct, report.attempted, report.failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace approxql::perfbench

int main(int argc, char** argv) {
  return approxql::perfbench::Main(argc, argv);
}
