// live_ingest_mix: writes beside reads. One writer thread keeps a
// MutableCorpus (2 shards) at constant size: every AddDocument is paired
// with a RemoveDocument of the oldest live document, so the publish cost
// (a shard rebuild) does not grow during the run, and pairs start at a
// fixed period. nproc-1 readers submit direct-strategy, n = 10 queries
// to a QueryService over the corpus.
// Every publish hands readers a new generation with cold posting caches,
// so ingest, storage, shard scatter and index locking all do real work.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "ingest/mutable_corpus.h"
#include "query/expanded.h"
#include "query/separated.h"
#include "service/query_service.h"
#include "shard/sharded_database.h"
#include "util/logging.h"
#include "xml/xml_parser.h"
#include "inputs.h"
#include "workload.h"

namespace approxql::perfbench {
namespace {

/// Live corpus size, held constant: documents of ~100 elements at the
/// paper's ratios for a 10,000-element collection. Set-up ingests them
/// one by one, each add rebuilding its shard, so its cost grows with the
/// square of the document count: the count is fixed, not the elements.
constexpr size_t kElements = 10000;
constexpr size_t kInitialDocs = 110;
/// Documents the writer cycles through (re-adding one gives it a new id).
constexpr size_t kPoolDocs = 200;
constexpr size_t kQueries = 2000;
constexpr size_t kN = 10;
constexpr size_t kShards = 2;
/// The writer starts one add + remove pair per period (or as soon as the
/// previous pair is done, if that took longer): readers see the same
/// rate of new generations on a fast host and a slow one.
constexpr auto kWriterPeriod = std::chrono::milliseconds(200);

struct LiveDoc {
  doc::NodeId root = 0;
  uint32_t length = 0;
  size_t source = 0;  // index into the document list it came from
};

struct State {
  std::unique_ptr<ingest::MutableCorpus> corpus;
  std::unique_ptr<service::QueryService> service;
  std::deque<LiveDoc> live;  // oldest first
};

engine::ExecOptions DirectExec() {
  engine::ExecOptions exec;
  exec.strategy = engine::Strategy::kDirect;
  exec.n = kN;
  return exec;
}

/// The writer's per-op record.
struct IngestLog {
  std::vector<double> add_us, remove_us, xml_parse_us;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t unpublished_acks = 0;
  double seconds = 0;
};

/// (document ordinal among the live documents, offset inside it, cost):
/// the id-space-independent form of an answer, so a corpus with holes
/// left by removals compares with a compacted rebuild of its survivors.
using Located = std::tuple<size_t, doc::NodeId, cost::Cost>;

std::vector<Located> Locate(const std::vector<engine::QueryAnswer>& answers,
                            const std::vector<std::pair<doc::NodeId,
                                                        uint32_t>>& spans) {
  std::vector<Located> out;
  for (const engine::QueryAnswer& answer : answers) {
    auto it = std::upper_bound(
        spans.begin(), spans.end(), answer.root,
        [](doc::NodeId root, const auto& span) { return root < span.first; });
    size_t ordinal = static_cast<size_t>(it - spans.begin()) - 1;
    if (it == spans.begin() ||
        answer.root >= spans[ordinal].first + spans[ordinal].second) {
      out.emplace_back(SIZE_MAX, answer.root, answer.cost);  // no document
    } else {
      out.emplace_back(ordinal, answer.root - spans[ordinal].first,
                       answer.cost);
    }
  }
  return out;
}

}  // namespace

void RunLiveIngestMix(const RunConfig& config, Report* report) {
  const size_t nproc = Nproc();
  const size_t readers = std::max<size_t>(1, nproc - 1);
  service::ServiceOptions options;
  options.num_threads = readers;
  options.queue_capacity = 64;
  options.cache_capacity = 0;
  options.parallelism = 1;
  report->refusal = StampAndCheckBudget(
      config.workload, config.seed,
      {{"readers", readers, true},
       {"writers", 1, true},
       {"corpus.shards", kShards},
       {"service.num_threads", options.num_threads},
       {"service.parallelism", options.parallelism}});
  if (!report->refusal.empty()) return;

  // Inputs: the initial documents, the writer's pool and the queries.
  gen::XmlGenOptions gen_options = PaperRatioOptions(config.seed, kElements);
  const cost::CostModel model = SeededDeleteCosts(config.seed, gen_options);
  const std::vector<std::string> initial =
      GenerateDocuments(gen_options, kInitialDocs);
  gen_options.seed = config.seed + 1;
  const std::vector<std::string> pool =
      GenerateDocuments(gen_options, kPoolDocs);
  auto built = engine::Database::BuildFromXml(initial, model);
  APPROXQL_CHECK(built.ok()) << built.status();
  const std::vector<std::string> queries =
      WireQueries(*built, config.seed, kQueries);
  std::vector<std::string> digest_parts = initial;
  digest_parts.insert(digest_parts.end(), pool.begin(), pool.end());
  digest_parts.insert(digest_parts.end(), queries.begin(), queries.end());
  std::printf("inputs: %zu initial documents, %zu pool documents, %zu "
              "queries, digest=%016llx\n",
              initial.size(), pool.size(), queries.size(),
              static_cast<unsigned long long>(InputDigest(digest_parts)));
  // Sources: initial documents first, then the pool.
  auto source_xml = [&](size_t source) -> const std::string& {
    return source < initial.size() ? initial[source]
                                   : pool[source - initial.size()];
  };

  const std::string data_dir = config.work_dir + "/corpus";
  std::unique_ptr<State> state;
  std::vector<double> setup_seconds =
      RepeatSetup<State>(&state, [&]() -> std::unique_ptr<State> {
        std::filesystem::remove_all(data_dir);
        auto s = std::make_unique<State>();
        ingest::MutableCorpus::Options corpus_options;
        corpus_options.data_dir = data_dir;
        corpus_options.num_shards = kShards;
        corpus_options.model = model;
        auto opened = ingest::MutableCorpus::Open(corpus_options);
        APPROXQL_CHECK(opened.ok()) << opened.status();
        s->corpus = std::move(opened).value();
        for (size_t i = 0; i < initial.size(); ++i) {
          auto added = s->corpus->AddDocument(initial[i]);
          APPROXQL_CHECK(added.ok()) << added.status();
          s->live.push_back({added->doc_root, added->length, i});
        }
        s->service = std::make_unique<service::QueryService>(*s->corpus,
                                                             options);
        for (size_t i = 0; i < 16; ++i) {
          service::QueryRequest request;
          request.query_text = queries[i % queries.size()];
          request.exec = DirectExec();
          APPROXQL_CHECK(s->service->Submit(request).get().status.ok());
        }
        return s;
      });
  ingest::MutableCorpus& corpus = *state->corpus;

  // The writer: add the next pool document, then remove the oldest live
  // one; `tracer` (when set) records each call's span.
  size_t next_source = initial.size();
  auto run_writer = [&](const std::atomic<bool>& stop, Tracer* tracer) {
    IngestLog log;
    auto begin = std::chrono::steady_clock::now();
    auto next_pair = begin;
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_until(next_pair);
      next_pair = std::max(next_pair + kWriterPeriod,
                           std::chrono::steady_clock::now());
      const size_t source =
          initial.size() + (next_source - initial.size()) % pool.size();
      ++next_source;
      const uint64_t request = tracer ? tracer->NewRequest() : 0;
      {
        ScopedSpan span(tracer, "ingest.add", request);
        if (tracer != nullptr) {
          ScopedSpan parse(tracer, "xml.parse", request, span.id());
          auto start = std::chrono::steady_clock::now();
          CountElements(source_xml(source));
          log.xml_parse_us.push_back(ElapsedUs(start));
        }
        auto start = std::chrono::steady_clock::now();
        auto added = corpus.AddDocument(source_xml(source));
        log.add_us.push_back(ElapsedUs(start));
        ++log.ops;
        if (!added.ok()) {
          ++log.failed;
          continue;
        }
        if (corpus.snapshot()->epoch() < added->epoch) ++log.unpublished_acks;
        state->live.push_back({added->doc_root, added->length, source});
      }
      const LiveDoc oldest = state->live.front();
      state->live.pop_front();
      ScopedSpan span(tracer, "ingest.remove", request);
      auto start = std::chrono::steady_clock::now();
      auto removed = corpus.RemoveDocument(oldest.root);
      log.remove_us.push_back(ElapsedUs(start));
      ++log.ops;
      if (!removed.ok()) {  // did not happen: the document is still live
        ++log.failed;
        state->live.push_front(oldest);
        continue;
      }
      if (corpus.snapshot()->epoch() < removed->epoch) ++log.unpublished_acks;
    }
    log.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - begin)
                      .count();
    return log;
  };

  // Readers: submit, then (untimed) re-execute serially on the response's
  // own snapshot — the oracle for an answer from a moving corpus.
  auto submit = [&](size_t i, service::QueryResponse* response_out) {
    service::QueryRequest request;
    request.query_text = queries[i];
    request.exec = DirectExec();
    auto start = std::chrono::steady_clock::now();
    service::QueryResponse response = state->service->Submit(request).get();
    OpResult result;
    result.latency_us = ElapsedUs(start);
    result.ok = response.status.ok() && !response.degraded &&
                response.backend_snapshot != nullptr;
    if (response_out != nullptr) {
      // The caller checks the answers itself.
      *response_out = std::move(response);
    } else if (result.ok) {
      auto expected = response.backend_snapshot->Execute(
          queries[i], DirectExec(), shard::ScatterOptions{});
      result.wrong =
          !expected.ok() || !SameAnswers(response.answers, *expected);
    }
    return result;
  };

  // Runs the readers' closed loop beside the writer.
  auto mixed = [&](double seconds, uint64_t max_ops, Tracer* tracer,
                   const std::function<OpResult(size_t, uint64_t)>& op,
                   IngestLog* log) {
    std::atomic<bool> stop{false};
    std::thread writer([&] { *log = run_writer(stop, tracer); });
    LoopResult loop = RunClosedLoop(readers, seconds, max_ops, op);
    stop.store(true, std::memory_order_release);
    writer.join();
    report->attempted += log->ops;
    report->failed += log->failed;
    return loop;
  };

  // After the run, quiesced: the corpus must answer like a database
  // rebuilt from its live documents in id order (the ingest tests'
  // oracle), compared per (document ordinal, offset, cost).
  auto final_check = [&] {
    std::vector<LiveDoc> live(state->live.begin(), state->live.end());
    std::sort(live.begin(), live.end(),
              [](const LiveDoc& a, const LiveDoc& b) { return a.root < b.root; });
    std::vector<std::string> docs;
    std::vector<std::pair<doc::NodeId, uint32_t>> corpus_spans, oracle_spans;
    doc::NodeId next = 1;  // the rebuilt corpus packs documents from id 1
    for (const LiveDoc& d : live) {
      docs.push_back(source_xml(d.source));
      corpus_spans.emplace_back(d.root, d.length);
      oracle_spans.emplace_back(next, d.length);
      next += d.length;
    }
    auto oracle = engine::Database::BuildFromXml(docs, model);
    APPROXQL_CHECK(oracle.ok()) << oracle.status();
    auto snapshot = corpus.snapshot();
    uint64_t mismatches = 0;
    for (const std::string& query : queries) {
      auto want = oracle->Execute(query, DirectExec());
      auto got = snapshot->Execute(query, DirectExec(), shard::ScatterOptions{});
      if (!want.ok() || !got.ok() ||
          Locate(*got, corpus_spans) != Locate(*want, oracle_spans)) {
        ++mismatches;
      }
    }
    report->attempted += queries.size();
    report->failed += mismatches;
    report->wrong += mismatches;
    std::printf("final check: %zu queries against a rebuild of %zu live "
                "documents, %llu mismatches\n",
                queries.size(), docs.size(),
                static_cast<unsigned long long>(mismatches));
  };

  if (!config.trace) {
    report->metrics.Add("setup_s", Median(setup_seconds), "s",
                        setup_seconds.size());
    IngestLog log;
    LoopResult loop = mixed(
        config.seconds, UINT64_MAX, nullptr,
        [&](size_t, uint64_t seq) {
          return submit(seq % queries.size(), nullptr);
        },
        &log);
    AddQueryMetrics(loop, kWindows, report);
    std::vector<double> ingest_us = log.add_us;
    ingest_us.insert(ingest_us.end(), log.remove_us.begin(),
                     log.remove_us.end());
    LatencySummary ingest = Summarize(ingest_us);
    report->metrics.Add("ingest_ops_per_s",
                        static_cast<double>(log.ops - log.failed) / log.seconds,
                        "1/s", log.ops);
    report->metrics.Add("ingest_p50_us", ingest.p50, "us", ingest.count);
    final_check();
    return;
  }

  // Traced run. Phase A: untraced. Phase B: the same number of reader
  // operations with spans (parse -> expand -> submit under one query
  // span, then the serial scatter on the response's snapshot beneath the
  // service), and the writer's adds, removes and document parses.
  const double phase_seconds = config.seconds * 0.45;
  IngestLog untraced_log;
  LoopResult untraced = mixed(
      phase_seconds, UINT64_MAX, nullptr,
      [&](size_t, uint64_t seq) {
        return submit(seq % queries.size(), nullptr);
      },
      &untraced_log);
  report->attempted += untraced.attempted;
  report->failed += untraced.failed;
  report->wrong += untraced.wrong;

  Tracer tracer;
  util::Mutex mu;
  std::vector<double> disjuncts, queue_us, exec_us, shard_eval_us,
      straggler;
  engine::EvalStats direct_sums;
  double scatter_total_us = 0, slowest_total_us = 0;
  // Stored-posting lock contention per generation (epoch): counters only
  // grow, so the largest value seen is the generation's total so far.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> lock_by_epoch;
  const auto statuses_before = corpus.ShardStatuses();
  IngestLog log;
  LoopResult traced = mixed(
      config.seconds * 4, untraced.attempted, &tracer,
      [&](size_t, uint64_t seq) {
        const size_t i = seq % queries.size();
        const uint64_t request = tracer.NewRequest();
        std::optional<query::Query> parsed;
        uint64_t submit_span = 0;
        OpResult result;
        service::QueryResponse response;
        shard::ScatterStats scatter;
        {
          ScopedSpan root(&tracer, "query", request);
          {
            ScopedSpan span(&tracer, "query.parse", request, root.id());
            auto p = query::Parse(queries[i]);
            APPROXQL_CHECK(p.ok()) << p.status();
            parsed.emplace(std::move(p).value());
          }
          {
            ScopedSpan span(&tracer, "query.expand", request, root.id());
            auto expanded = query::ExpandedQuery::Build(*parsed, model);
            APPROXQL_CHECK(expanded.ok()) << expanded.status();
          }
          ScopedSpan span(&tracer, "service.submit", request, root.id());
          submit_span = span.id();
          // The oracle re-execution runs after this span closes, below.
          result = submit(i, &response);
        }
        double scatter_us = 0;
        if (result.ok) {
          ScopedSpan span(&tracer, "shard.scatter", request, submit_span);
          auto start = std::chrono::steady_clock::now();
          auto expected = response.backend_snapshot->Execute(
              *parsed, DirectExec(), shard::ScatterOptions{}, &scatter);
          scatter_us = ElapsedUs(start);
          result.wrong =
              !expected.ok() || !SameAnswers(response.answers, *expected);
        }
        auto separated = query::SeparatedRepresentation(*parsed);
        util::MutexLock lock(&mu);
        disjuncts.push_back(
            separated.ok() ? static_cast<double>(separated->size()) : 0);
        queue_us.push_back(static_cast<double>(response.queue_micros));
        exec_us.push_back(static_cast<double>(response.exec_micros));
        uint64_t slowest = 0, total = 0;
        for (const auto& shard_stats : scatter.shards) {
          shard_eval_us.push_back(static_cast<double>(shard_stats.eval_us));
          slowest = std::max(slowest, shard_stats.eval_us);
          total += shard_stats.eval_us;
        }
        scatter_total_us += scatter_us;
        slowest_total_us += static_cast<double>(slowest);
        if (total > 0) {
          straggler.push_back(static_cast<double>(slowest) *
                              static_cast<double>(scatter.shards.size()) /
                              static_cast<double>(total));
        }
        direct_sums.fetches += scatter.direct.fetches;
        direct_sums.entries_fetched += scatter.direct.entries_fetched;
        direct_sums.list_ops += scatter.direct.list_ops;
        direct_sums.cache_hits += scatter.direct.cache_hits;
        direct_sums.cache_misses += scatter.direct.cache_misses;
        if (response.backend_snapshot != nullptr) {
          const shard::ShardedDatabase& snap = *response.backend_snapshot;
          uint64_t waits = 0, wait_us = 0;
          for (size_t s = 0; s < snap.num_shards(); ++s) {
            waits += snap.shard_postings(s).lock_waits();
            wait_us += snap.shard_postings(s).lock_wait_us();
          }
          auto& seen = lock_by_epoch[snap.epoch()];
          seen.first = std::max(seen.first, waits);
          seen.second = std::max(seen.second, wait_us);
        }
        return result;
      },
      &log);
  const auto statuses_after = corpus.ShardStatuses();
  report->attempted += traced.attempted;
  report->failed += traced.failed;
  report->wrong += traced.wrong;
  const double queries_run = static_cast<double>(traced.attempted);

  MetricTable& m = report->metrics;
  LatencySummary parse = Summarize(tracer.Durations("query.parse"));
  LatencySummary expand = Summarize(tracer.Durations("query.expand"));
  m.Add("query.parse_us_p50", parse.p50, "us", parse.count);
  m.Add("query.expand_us_p50", expand.p50, "us", expand.count);
  m.Add("query.disjuncts", Summarize(disjuncts).p50, "count",
        disjuncts.size(), "median conjunctive queries per query");
  LatencySummary shard_eval = Summarize(shard_eval_us);
  m.Add("engine.direct.exec_us_p50", shard_eval.p50, "us", shard_eval.count,
        "per-shard evaluation inside the serial scatter");
  const std::string per = "per query over " +
                          std::to_string(traced.attempted) + " queries";
  m.Add("engine.direct.entries_fetched",
        SafeRatio(static_cast<double>(direct_sums.entries_fetched),
                  queries_run),
        "count", 0, per);
  m.Add("engine.direct.list_ops",
        SafeRatio(static_cast<double>(direct_sums.list_ops), queries_run),
        "count", 0, per);
  m.Add("engine.direct.fetches",
        SafeRatio(static_cast<double>(direct_sums.fetches), queries_run),
        "count", 0, per);
  const double hits = static_cast<double>(direct_sums.cache_hits);
  const double lookups = hits + static_cast<double>(direct_sums.cache_misses);
  m.Add("engine.direct.dp_cache_hit_ratio", SafeRatio(hits, lookups), "1", 0,
        FormatRatio("hits/lookups", hits, lookups));
  double queue_total = 0;
  for (double q : queue_us) queue_total += q;
  LatencySummary queue = Summarize(queue_us);
  m.Add("service.queue_us_mean",
        SafeRatio(queue_total, static_cast<double>(queue_us.size())), "us",
        queue_us.size());
  std::printf("layer service.queue_us p50=%.0f p99=%.0f samples=%zu\n",
              queue.p50, queue.p99, queue.count);
  LatencySummary exec = Summarize(exec_us);
  m.Add("service.exec_us_p50", exec.p50, "us", exec.count);
  LatencySummary scatter_us = Summarize(tracer.Durations("shard.scatter"));
  std::printf("layer shard.scatter_us p50=%.1f samples=%zu\n", scatter_us.p50,
              scatter_us.count);
  m.Add("shard.straggler_ratio", Summarize(straggler).p50, "1",
        straggler.size(), "median slowest/mean shard eval_us");
  uint64_t waits = 0, wait_us = 0;
  for (const auto& [epoch, seen] : lock_by_epoch) {
    waits += seen.first;
    wait_us += seen.second;
  }
  m.Add("index.lock_waits_per_query",
        SafeRatio(static_cast<double>(waits), queries_run), "count", 0,
        FormatRatio("waits/queries", static_cast<double>(waits),
                    queries_run) +
            " over " + std::to_string(lock_by_epoch.size()) + " generations");
  std::printf("layer index.lock_wait_us_per_query %s\n",
              FormatRatio("wait_us/queries", static_cast<double>(wait_us),
                          queries_run)
                  .c_str());

  LatencySummary add = Summarize(log.add_us);
  LatencySummary remove = Summarize(log.remove_us);
  LatencySummary xml_parse = Summarize(log.xml_parse_us);
  std::printf("layer ingest.add_us p50=%.0f p99=%.0f samples=%zu\n", add.p50,
              add.p99, add.count);
  std::printf("layer ingest.remove_us p50=%.0f p99=%.0f samples=%zu\n",
              remove.p50, remove.p99, remove.count);
  std::printf("layer xml.parse_us p50=%.1f samples=%zu\n", xml_parse.p50,
              xml_parse.count);
  m.Add("ingest.unpublished_acks", static_cast<double>(log.unpublished_acks),
        "count", log.ops);
  uint64_t wal_bytes = 0, vlog_bytes = 0;
  for (size_t s = 0; s < statuses_after.size(); ++s) {
    wal_bytes += statuses_after[s].wal_bytes - statuses_before[s].wal_bytes;
    vlog_bytes += statuses_after[s].vlog_bytes - statuses_before[s].vlog_bytes;
  }
  const double ops = static_cast<double>(log.ops);
  m.Add("storage.wal_bytes_per_op",
        SafeRatio(static_cast<double>(wal_bytes), ops), "B", log.ops);
  m.Add("storage.vlog_bytes_per_op",
        SafeRatio(static_cast<double>(vlog_bytes), ops), "B", log.ops);

  // Where one query's time goes, as shares of the service call (ratios
  // of sums): the service above the scatter, the scatter above its
  // slowest shard, the slowest shard's engine, and posting-lock waits.
  double submit_total = 0, service_self = 0;
  {
    std::vector<Span> all = tracer.spans();
    for (const Span& span : all) {
      if (span.name != "service.submit") continue;
      submit_total += span.duration_us();
      service_self += SelfTimeUs(span, all);
    }
  }
  m.Add("service.self_frac", SafeRatio(service_self, submit_total), "1",
        traced.attempted,
        FormatRatio("service_self_us/submit_us", service_self, submit_total));
  m.Add("shard.self_frac",
        SafeRatio(scatter_total_us - slowest_total_us, submit_total), "1",
        traced.attempted,
        FormatRatio("(scatter_us-slowest_shard_us)/submit_us",
                    scatter_total_us - slowest_total_us, submit_total));
  m.Add("engine.self_frac", SafeRatio(slowest_total_us, submit_total), "1",
        traced.attempted,
        FormatRatio("slowest_shard_us/submit_us", slowest_total_us,
                    submit_total));
  m.Add("index.lock_wait_frac",
        SafeRatio(static_cast<double>(wait_us), submit_total), "1",
        traced.attempted,
        FormatRatio("lock_wait_us/submit_us", static_cast<double>(wait_us),
                    submit_total));

  LatencySummary base = Summarize(untraced.latencies_us);
  LatencySummary with_spans = Summarize(tracer.Durations("service.submit"));
  m.Add("trace.overhead_frac", SafeRatio(with_spans.p50 - base.p50, base.p50),
        "1", with_spans.count,
        FormatRatio("(traced_p50-untraced_p50)/untraced_p50",
                    with_spans.p50 - base.p50, base.p50));
  final_check();
  if (!tracer.WriteJsonLines(config.work_dir + "/spans.jsonl")) {
    std::printf("warning: could not write spans\n");
  }
}

}  // namespace approxql::perfbench
