// Measurement helpers shared by the perfbench workloads: exact
// percentiles with the "ten samples beyond" reporting rule, the metric
// table that becomes the result line, in-memory spans with self-time
// arithmetic, and the provenance/budget checks every run stamps.
#ifndef APPROXQL_PERFBENCH_HARNESS_H_
#define APPROXQL_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"

namespace approxql::perfbench {

// ---------------------------------------------------------------------------
// Percentiles

/// Samples strictly above the nearest-rank q-quantile of `n` samples.
size_t SamplesBeyond(size_t n, double q);

/// A q-quantile is reported only when at least ten samples lie beyond
/// it; below that one slow sample decides the figure.
bool TailReportable(size_t n, double q);

/// Nearest-rank median and p99 of one latency series (any order), with
/// the sample counts the reporting rule needs. Zeros when empty.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  size_t beyond_p99 = 0;
  bool p99_reportable = false;
};
LatencySummary Summarize(std::vector<double> samples);

/// Median of a few repetitions (set-up times).
double Median(std::vector<double> values);

/// Microseconds since `start` on the steady clock.
inline double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Metrics and the result line

/// Metric names are `[A-Za-z0-9_.-]`, start with a letter or digit and
/// are at most 64 characters long.
bool ValidMetricName(std::string_view name);

/// "name=0.8123 (12.00/14.77)": a ratio is never printed without the
/// numerator and denominator it came from. A zero base prints 0.
std::string FormatRatio(std::string_view name, double numerator,
                        double denominator);
double SafeRatio(double numerator, double denominator);

/// The named values one run reports. Insertion order is print order.
class MetricTable {
 public:
  /// Records `name` and prints a human-readable line for it. `samples`
  /// is the number of measurements behind the value (0 = not a sample
  /// statistic). Aborts on an invalid or repeated name: such a result
  /// line could not be read back.
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "");

  bool Has(const std::string& name) const;

  /// The final result line: {"correct": .., "attempted": .., "failed": ..,
  /// "metrics": {name: {"value": v, "unit": u}, ...}}.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Reads `name`'s value from a MetricsRegistry::DumpText() dump: the
/// integer of a counter line ("name 42"), or one field of a histogram
/// line ("name count=.. mean=12.5us p50=..."). 0 when absent.
double DumpValue(const std::string& dump, const std::string& name,
                 const std::string& field = "");

// ---------------------------------------------------------------------------
// Spans

/// One timed call. Spans of one query share `request`; `parent` is the
/// span whose layer called (or, for a probe run after the fact, stands
/// above) this one; 0 = a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// The children are one fan-out that runs concurrently in the real
  /// path (shards of a scatter), so they cover max(child), not the sum.
  bool fanout = false;

  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1000.0;
  }
};

/// A layer's self time: its span minus the layer beneath it for the same
/// request — the sum of its direct children's durations, or the longest
/// child for a fan-out. May be negative when the layer beneath was
/// measured by a separate call that ran slower than the whole path.
double SelfTimeUs(const Span& span, const std::vector<Span>& all);

/// Collects spans in memory; thread-safe. Written out once at the end.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  uint64_t NewRequest();
  /// Starts a span now; finish it with End().
  uint64_t Begin(std::string name, uint64_t request, uint64_t parent,
                 bool fanout = false);
  void End(uint64_t id);

  std::vector<Span> spans() const;
  /// Durations in microseconds of every span called `name`.
  std::vector<double> Durations(std::string_view name) const;
  /// Self times of every span called `name`.
  std::vector<double> SelfTimes(std::string_view name) const;
  /// One JSON object per line; false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const;

  const Clock::time_point origin_ = Clock::now();
  mutable util::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::map<uint64_t, size_t> open_ GUARDED_BY(mu_);  // id -> index
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  uint64_t next_request_ GUARDED_BY(mu_) = 1;
};

/// RAII span on a Tracer; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t request,
             uint64_t parent = 0, bool fanout = false)
      : tracer_(tracer),
        id_(tracer == nullptr
                ? 0
                : tracer->Begin(std::move(name), request, parent, fanout)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

// ---------------------------------------------------------------------------
// Provenance and budget

/// Processor count the load budget is checked against.
size_t Nproc();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Empty when the binary may be timed; otherwise why not (a non-Release
/// or sanitizer build).
std::string BuildRefusal();

/// One budget entry: the pool or load-generator size and what it is.
struct PoolSize {
  std::string name;
  size_t threads = 0;
  /// Load threads or connections: these must not exceed nproc.
  bool load = false;
};

/// Prints the provenance line (build type, git SHA, nproc, seed, every
/// pool size) and returns an empty string, or the reason the load
/// budget is exceeded.
std::string StampAndCheckBudget(const std::string& workload, uint64_t seed,
                                const std::vector<PoolSize>& pools);

}  // namespace approxql::perfbench

#endif  // APPROXQL_PERFBENCH_HARNESS_H_
