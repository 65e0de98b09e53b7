// What every perfbench workload shares: the run configuration, the
// report it fills, repeated set-up, the closed loop and the
// answer comparison its oracles use.
#ifndef APPROXQL_PERFBENCH_WORKLOAD_H_
#define APPROXQL_PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "harness.h"

namespace approxql::perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Scratch directory inside the checkout (corpus files, span dumps).
  std::string work_dir;
};

/// What a workload run hands back to main().
struct Report {
  MetricTable metrics;
  uint64_t attempted = 0;
  /// Errors + rejections + degraded answers + wrong answers.
  uint64_t failed = 0;
  /// Wrong answers alone; any makes the run incorrect.
  uint64_t wrong = 0;
  /// Set when a self-check other than an answer comparison failed
  /// (counters that must repeat exactly did not).
  std::string self_check_error;
  /// Set when the run must not produce a result (budget or build).
  std::string refusal;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 5;

/// Runs `setup` kSetupRepetitions times, keeping only the last state
/// (earlier ones are destroyed before the next starts, so peak memory is
/// one state), and returns each repetition's seconds.
template <typename State>
std::vector<double> RepeatSetup(std::unique_ptr<State>* state,
                                const std::function<std::unique_ptr<State>()>&
                                    setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    state->reset();
    auto start = std::chrono::steady_clock::now();
    *state = setup();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return seconds;
}

/// The outcome of one closed-loop operation.
struct OpResult {
  bool ok = true;      // false: error, rejection or degraded answer
  bool wrong = false;  // answers differ from the oracle
  /// The library call alone; oracle checks after it are not timed.
  double latency_us = 0;
};

/// A closed loop: `clients` threads each issue their next operation only
/// after the previous one returned, until `seconds` have passed or
/// `max_ops` operations were issued. `op` receives the client index and
/// a global operation sequence number and times its own library call.
struct LoopResult {
  std::vector<double> latencies_us;  // successful operations only
  /// When each successful operation completed, seconds since the start.
  std::vector<double> completed_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  double seconds = 0;
};
LoopResult RunClosedLoop(size_t clients, double seconds, uint64_t max_ops,
                         const std::function<OpResult(size_t client,
                                                      uint64_t seq)>& op);

/// Bit-identical comparison of two ranked answer lists.
bool SameAnswers(const std::vector<engine::QueryAnswer>& a,
                 const std::vector<engine::QueryAnswer>& b);

/// The closed loop is judged in this many equal time windows; each
/// query metric is the median of its per-window values, so a burst of
/// host noise in a minority of windows does not move it.
inline constexpr size_t kWindows = 9;

/// Adds query_qps / query_p50_us / query_p99_us from a closed loop, each
/// the median over `windows` equal time windows; sets a refusal when a
/// window's p99 has fewer than ten samples beyond it.
void AddQueryMetrics(const LoopResult& loop, size_t windows, Report* report);

void RunTopkInteractive(const RunConfig& config, Report* report);
void RunRoutedBulk(const RunConfig& config, Report* report);
void RunLiveIngestMix(const RunConfig& config, Report* report);

}  // namespace approxql::perfbench

#endif  // APPROXQL_PERFBENCH_WORKLOAD_H_
