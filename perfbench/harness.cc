#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/bench_env.h"

namespace approxql::perfbench {

// ---------------------------------------------------------------------------
// Percentiles

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  double rank = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) { return n - NearestRank(n, q); }

bool TailReportable(size_t n, double q) { return SamplesBeyond(n, q) >= 10; }

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.p50 = samples[NearestRank(samples.size(), 0.50) - 1];
  summary.p99 = samples[NearestRank(samples.size(), 0.99) - 1];
  summary.beyond_p99 = SamplesBeyond(samples.size(), 0.99);
  summary.p99_reportable = TailReportable(samples.size(), 0.99);
  return summary;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------------------
// Metrics

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

double SafeRatio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

std::string FormatRatio(std::string_view name, double numerator,
                        double denominator) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%.*s=%.4f (%.2f/%.2f)",
                static_cast<int>(name.size()), name.data(),
                SafeRatio(numerator, denominator), numerator, denominator);
  return buffer;
}

void MetricTable::Add(const std::string& name, double value,
                      const std::string& unit, size_t samples,
                      const std::string& note) {
  if (!ValidMetricName(name) || Has(name) || !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: bad metric %s = %f\n", name.c_str(),
                 value);
    std::abort();
  }
  entries_.push_back({name, value, unit});
  std::printf("metric %-36s %14.4f %-6s", name.c_str(), value, unit.c_str());
  if (samples > 0) std::printf(" samples=%zu", samples);
  if (!note.empty()) std::printf(" %s", note.c_str());
  std::printf("\n");
}

bool MetricTable::Has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::string MetricTable::ResultJson(bool correct, uint64_t attempted,
                                    uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double DumpValue(const std::string& dump, const std::string& name,
                 const std::string& field) {
  const std::string key = name + " ";
  size_t at = 0;
  while ((at = dump.find(key, at)) != std::string::npos) {
    if (at == 0 || dump[at - 1] == '\n') break;
    at += key.size();
  }
  if (at == std::string::npos) return 0;
  size_t value = at + key.size();
  if (!field.empty()) {
    const size_t line_end = dump.find('\n', value);
    size_t f = dump.find(field + "=", value);
    if (f == std::string::npos || f > line_end) return 0;
    value = f + field.size() + 1;
  }
  return std::strtod(dump.c_str() + value, nullptr);
}

// ---------------------------------------------------------------------------
// Spans

double SelfTimeUs(const Span& span, const std::vector<Span>& all) {
  double covered = 0;
  for (const Span& child : all) {
    if (child.parent != span.id || child.request != span.request) continue;
    covered = span.fanout ? std::max(covered, child.duration_us())
                          : covered + child.duration_us();
  }
  return span.duration_us() - covered;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

uint64_t Tracer::NewRequest() {
  util::MutexLock lock(&mu_);
  return next_request_++;
}

uint64_t Tracer::Begin(std::string name, uint64_t request, uint64_t parent,
                       bool fanout) {
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.fanout = fanout;
  span.start_ns = NowNs();
  util::MutexLock lock(&mu_);
  span.id = next_id_++;
  open_[span.id] = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  int64_t now = NowNs();
  util::MutexLock lock(&mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  open_.erase(it);
}

std::vector<Span> Tracer::spans() const {
  util::MutexLock lock(&mu_);
  return spans_;
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans()) {
    if (span.name == name) out.push_back(span.duration_us());
  }
  return out;
}

std::vector<double> Tracer::SelfTimes(std::string_view name) const {
  std::vector<Span> all = spans();
  std::vector<double> out;
  for (const Span& span : all) {
    if (span.name == name) out.push_back(SelfTimeUs(span, all));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"fanout\": %s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.fanout ? "true" : "false");
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Provenance and budget

size_t Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string BuildRefusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  if (std::string_view(APPROXQL_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + APPROXQL_BUILD_TYPE +
           "', not Release";
  }
  return "";
}

std::string StampAndCheckBudget(const std::string& workload, uint64_t seed,
                                const std::vector<PoolSize>& pools) {
  const size_t nproc = Nproc();
  std::printf("provenance: workload=%s %s nproc=%zu seed=%llu\n",
              workload.c_str(), bench::BenchEnvJson().c_str(), nproc,
              static_cast<unsigned long long>(seed));
  std::string refusal;
  std::printf("pools:");
  for (const PoolSize& pool : pools) {
    std::printf(" %s=%zu%s", pool.name.c_str(), pool.threads,
                pool.load ? "(load)" : "");
    if (pool.load && pool.threads > nproc && refusal.empty()) {
      refusal = pool.name + "=" + std::to_string(pool.threads) +
                " load threads exceed nproc=" + std::to_string(nproc);
    }
  }
  std::printf("\n");
  return refusal;
}

}  // namespace approxql::perfbench
