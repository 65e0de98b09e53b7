// topk_interactive: one user, idle cores. A single closed-loop client
// submits the paper's query mix (patterns 1-3 x {0, 5, 10} renamings,
// per-query cost models) with the schema strategy and n = 10 to an
// in-process QueryService over one engine::Database, with intra-query
// parallelism = nproc and the result cache off. Exercises query, the
// engine's schema top-k and the service's parallel path; never touches
// stored postings, net, dist or ingest.
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "query/expanded.h"
#include "query/separated.h"
#include "service/query_service.h"
#include "util/logging.h"
#include "inputs.h"
#include "workload.h"

namespace approxql::perfbench {
namespace {

/// Collection size at the paper's ratios. Schema-strategy cost is set by
/// the query's closure, not the collection size, so this mainly bounds
/// set-up time.
constexpr size_t kElements = 12000;
/// Queries per pattern at 0, 5 and 10 renamings per label: the paper's
/// ten generated queries per pattern and setting.
constexpr std::array<size_t, 3> kPerPattern = {10, 10, 10};
constexpr size_t kN = 10;

struct State {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<service::QueryService> service;
};

engine::ExecOptions ExecFor(const gen::GeneratedQuery& query,
                            engine::Strategy strategy) {
  engine::ExecOptions exec;
  exec.strategy = strategy;
  exec.n = kN;
  exec.cost_model = &query.cost_model;
  return exec;
}

void AddSums(const engine::SchemaEvalStats& s, engine::SchemaEvalStats* t) {
  t->rounds += s.rounds;
  t->entries_created += s.entries_created;
  t->second_level_executed += s.second_level_executed;
  t->instances_scanned += s.instances_scanned;
}

bool SameCounts(const engine::SchemaEvalStats& a,
                const engine::SchemaEvalStats& b) {
  return a.rounds == b.rounds && a.entries_created == b.entries_created &&
         a.second_level_executed == b.second_level_executed &&
         a.instances_scanned == b.instances_scanned &&
         a.k_capped == b.k_capped;
}

}  // namespace

void RunTopkInteractive(const RunConfig& config, Report* report) {
  const size_t nproc = Nproc();
  service::ServiceOptions options;
  options.num_threads = nproc;
  options.queue_capacity = 64;
  options.cache_capacity = 0;
  options.parallelism = nproc;
  report->refusal = StampAndCheckBudget(
      config.workload, config.seed,
      {{"clients", 1, true},
       {"service.num_threads", options.num_threads},
       {"service.parallelism", options.parallelism}});
  if (!report->refusal.empty()) return;

  // Inputs: XML documents and queries, all from the seed.
  const gen::XmlGenOptions gen_options =
      PaperRatioOptions(config.seed, kElements);
  const std::vector<std::string> docs = GenerateDocuments(gen_options);
  auto built = engine::Database::BuildFromXml(docs, cost::CostModel());
  APPROXQL_CHECK(built.ok()) << built.status();
  const engine::Database oracle_db = std::move(built).value();
  const std::vector<gen::GeneratedQuery> queries =
      PaperQueryMix(oracle_db, config.seed, kPerPattern);
  std::vector<std::string> digest_parts = docs;
  for (const auto& q : queries) digest_parts.push_back(q.text);
  std::printf("inputs: %zu documents, %zu queries, digest=%016llx\n",
              docs.size(), queries.size(),
              static_cast<unsigned long long>(InputDigest(digest_parts)));

  // Oracle: serial Database::Execute of every distinct query (the
  // service's parallel answers are meant to be bit-identical to it),
  // with its exact engine counters.
  std::vector<std::vector<engine::QueryAnswer>> oracle(queries.size());
  std::vector<engine::SchemaEvalStats> serial_stats(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    engine::ExecOptions exec = ExecFor(queries[i], engine::Strategy::kSchema);
    exec.schema_stats_out = &serial_stats[i];
    auto answers = oracle_db.Execute(queries[i].query, exec);
    APPROXQL_CHECK(answers.ok()) << answers.status();
    oracle[i] = std::move(answers).value();
  }

  std::unique_ptr<State> state;
  std::vector<double> setup_seconds =
      RepeatSetup<State>(&state, [&]() -> std::unique_ptr<State> {
        auto s = std::make_unique<State>();
        auto db = engine::Database::BuildFromXml(docs, cost::CostModel());
        APPROXQL_CHECK(db.ok()) << db.status();
        s->db = std::make_unique<engine::Database>(std::move(db).value());
        s->service = std::make_unique<service::QueryService>(*s->db, options);
        for (size_t i = 0; i < 9 && i < queries.size(); ++i) {  // warm-up
          service::QueryRequest request;
          request.query_text = queries[i].text;
          request.exec = ExecFor(queries[i], engine::Strategy::kSchema);
          APPROXQL_CHECK(s->service->Submit(request).get().status.ok());
        }
        return s;
      });
  service::QueryService& service = *state->service;

  // Wrong answers whose serial evaluation stopped at the k cap (max_k):
  // a capped answer depends on how the evaluation was split, so these
  // are reported apart from other mismatches.
  std::atomic<uint64_t> capped_mismatches{0};
  auto submit = [&](size_t i, engine::SchemaEvalStats* stats_out,
                    service::QueryResponse* response_out) {
    service::QueryRequest request;
    request.query_text = queries[i].text;
    request.exec = ExecFor(queries[i], engine::Strategy::kSchema);
    request.exec.schema_stats_out = stats_out;
    auto start = std::chrono::steady_clock::now();
    service::QueryResponse response = service.Submit(request).get();
    OpResult result;
    result.latency_us = ElapsedUs(start);
    result.ok = response.status.ok() && !response.degraded;
    result.wrong = result.ok && !SameAnswers(response.answers, oracle[i]);
    if (result.wrong && serial_stats[i].k_capped) {
      capped_mismatches.fetch_add(1, std::memory_order_relaxed);
    }
    if (response_out != nullptr) *response_out = std::move(response);
    return result;
  };
  auto print_capped = [&] {
    std::printf("wrong answers on k-capped queries: %llu\n",
                static_cast<unsigned long long>(capped_mismatches.load()));
  };

  if (!config.trace) {
    report->metrics.Add("setup_s", Median(setup_seconds), "s",
                        setup_seconds.size());
    LoopResult loop = RunClosedLoop(
        1, config.seconds, UINT64_MAX, [&](size_t, uint64_t seq) {
          return submit(seq % queries.size(), nullptr, nullptr);
        });
    AddQueryMetrics(loop, 1, report);
    print_capped();
    return;
  }

  // Traced run. Phase A: the untraced loop, time-boxed. Phase B: the
  // same operations again with spans around the chained calls (parse ->
  // expand -> submit under one query span) and, after each query span
  // closes, the serial engine call beneath the service as a probe. One
  // client means the probe never overlaps a timed call.
  const double phase_seconds = config.seconds * 0.4;
  LoopResult untraced = RunClosedLoop(
      1, phase_seconds, UINT64_MAX, [&](size_t, uint64_t seq) {
        return submit(seq % queries.size(), nullptr, nullptr);
      });
  report->attempted += untraced.attempted;
  report->failed += untraced.failed;
  report->wrong += untraced.wrong;

  Tracer tracer;
  std::vector<double> queue_us, exec_us, disjuncts;
  double serial_total_us = 0, service_exec_total_us = 0;
  engine::SchemaEvalStats service_sums, probe_sums;
  uint64_t count_mismatches = 0;
  const uint64_t tasks_before = service.GetSnapshot().parallel_tasks;
  auto steals = [&] {
    return DumpValue(service.DumpMetrics(), "thread_pool_steals");
  };
  const double steals_before = steals();
  LoopResult traced = RunClosedLoop(
      1, config.seconds * 4, untraced.attempted, [&](size_t, uint64_t seq) {
        const size_t i = seq % queries.size();
        const uint64_t request = tracer.NewRequest();
        uint64_t submit_span = 0;
        OpResult result;
        std::optional<query::Query> parsed;
        engine::SchemaEvalStats service_stats;
        service::QueryResponse response;
        {
          ScopedSpan root(&tracer, "query", request);
          {
            ScopedSpan span(&tracer, "query.parse", request, root.id());
            auto result = query::Parse(queries[i].text);
            APPROXQL_CHECK(result.ok()) << result.status();
            parsed.emplace(std::move(result).value());
          }
          {
            ScopedSpan span(&tracer, "query.expand", request, root.id());
            auto expanded =
                query::ExpandedQuery::Build(*parsed, queries[i].cost_model);
            APPROXQL_CHECK(expanded.ok()) << expanded.status();
          }
          ScopedSpan span(&tracer, "service.submit", request, root.id());
          submit_span = span.id();
          result = submit(i, &service_stats, &response);
        }
        // Probes beneath the service, outside the query span.
        engine::SchemaEvalStats serial;
        {
          ScopedSpan span(&tracer, "engine.schema.exec", request,
                          submit_span);
          engine::ExecOptions exec =
              ExecFor(queries[i], engine::Strategy::kSchema);
          exec.schema_stats_out = &serial;
          auto start = std::chrono::steady_clock::now();
          auto answers = state->db->Execute(*parsed, exec);
          serial_total_us += ElapsedUs(start);
          APPROXQL_CHECK(answers.ok()) << answers.status();
          if (!SameAnswers(*answers, oracle[i])) result.wrong = true;
        }
        if (!SameCounts(serial, serial_stats[i])) ++count_mismatches;
        auto separated = query::SeparatedRepresentation(*parsed);
        disjuncts.push_back(
            separated.ok() ? static_cast<double>(separated->size()) : 0);
        AddSums(service_stats, &service_sums);
        AddSums(serial, &probe_sums);
        queue_us.push_back(static_cast<double>(response.queue_micros));
        exec_us.push_back(static_cast<double>(response.exec_micros));
        service_exec_total_us += static_cast<double>(response.exec_micros);
        return result;
      });
  report->attempted += traced.attempted;
  report->failed += traced.failed;
  report->wrong += traced.wrong;
  const double ops = static_cast<double>(traced.attempted);

  MetricTable& m = report->metrics;
  LatencySummary parse = Summarize(tracer.Durations("query.parse"));
  LatencySummary expand = Summarize(tracer.Durations("query.expand"));
  m.Add("query.parse_us_p50", parse.p50, "us", parse.count);
  m.Add("query.expand_us_p50", expand.p50, "us", expand.count);
  m.Add("query.disjuncts", Summarize(disjuncts).p50, "count",
        disjuncts.size(), "median conjunctive queries per query");
  LatencySummary schema = Summarize(tracer.Durations("engine.schema.exec"));
  m.Add("engine.schema.exec_us_p50", schema.p50, "us", schema.count);
  m.Add("engine.schema.exec_us_p99", schema.p99, "us", schema.count,
        "beyond=" + std::to_string(schema.beyond_p99) +
            (schema.p99_reportable ? "" : " (under 10: not reportable)"));
  // Exact counts over the distinct query list, serial evaluation.
  engine::SchemaEvalStats distinct;
  size_t capped = 0;
  for (const auto& s : serial_stats) {
    AddSums(s, &distinct);
    capped += s.k_capped ? 1 : 0;
  }
  std::printf("exact-counts: engine.schema rounds=%llu entries_created=%llu "
              "second_level_executed=%llu instances_scanned=%llu "
              "k_capped=%zu\n",
              static_cast<unsigned long long>(distinct.rounds),
              static_cast<unsigned long long>(distinct.entries_created),
              static_cast<unsigned long long>(distinct.second_level_executed),
              static_cast<unsigned long long>(distinct.instances_scanned),
              capped);
  const double n = static_cast<double>(queries.size());
  const std::string per =
      "per query over " + std::to_string(queries.size()) + " distinct queries";
  m.Add("engine.schema.rounds", static_cast<double>(distinct.rounds) / n,
        "count", 0, per);
  m.Add("engine.schema.entries_created",
        static_cast<double>(distinct.entries_created) / n, "count", 0, per);
  m.Add("engine.schema.second_level_executed",
        static_cast<double>(distinct.second_level_executed) / n, "count", 0,
        per);
  m.Add("engine.schema.instances_scanned",
        static_cast<double>(distinct.instances_scanned) / n, "count", 0, per);
  m.Add("engine.schema.k_capped_queries", static_cast<double>(capped),
        "count", 0, "of " + std::to_string(queries.size()) + " distinct queries");
  if (count_mismatches > 0) {
    report->self_check_error =
        std::to_string(count_mismatches) +
        " serial schema executions did not repeat the oracle pass's exact "
        "engine counters";
  }

  LatencySummary queue = Summarize(queue_us);
  LatencySummary exec = Summarize(exec_us);
  double queue_total = 0;
  for (double q : queue_us) queue_total += q;
  m.Add("service.queue_us_mean",
        SafeRatio(queue_total, static_cast<double>(queue_us.size())), "us",
        queue_us.size());
  std::printf("layer service.queue_us p50=%.0f p99=%.0f samples=%zu\n",
              queue.p50, queue.p99, queue.count);
  m.Add("service.exec_us_p50", exec.p50, "us", exec.count);
  m.Add("service.parallel_speedup",
        SafeRatio(serial_total_us, service_exec_total_us), "1", traced.attempted,
        FormatRatio("serial_us/service_exec_us", serial_total_us,
                    service_exec_total_us));
  const double tasks =
      static_cast<double>(service.GetSnapshot().parallel_tasks - tasks_before);
  m.Add("service.parallel_tasks_per_query", SafeRatio(tasks, ops), "count",
        traced.attempted, FormatRatio("tasks/queries", tasks, ops));
  m.Add("service.pool_steals", steals() - steals_before, "count");
  const double service_second =
      static_cast<double>(service_sums.second_level_executed);
  const double serial_second =
      static_cast<double>(probe_sums.second_level_executed);
  m.Add("service.second_level_overwork",
        SafeRatio(service_second, serial_second), "1", traced.attempted,
        FormatRatio("service/serial second_level_executed", service_second,
                    serial_second));

  // Shares of the service call (ratios of sums): the service above the
  // serial engine beneath it (negative when parallel evaluation beats
  // serial), and the serial engine itself.
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
  m.Add("engine.self_frac", SafeRatio(serial_total_us, submit_total), "1",
        traced.attempted,
        FormatRatio("serial_engine_us/submit_us", serial_total_us,
                    submit_total));

  LatencySummary base = Summarize(untraced.latencies_us);
  LatencySummary with_spans = Summarize(tracer.Durations("service.submit"));
  m.Add("trace.overhead_frac", SafeRatio(with_spans.p50 - base.p50, base.p50),
        "1", with_spans.count,
        FormatRatio("(traced_p50-untraced_p50)/untraced_p50",
                    with_spans.p50 - base.p50, base.p50));
  print_capped();
  if (!tracer.WriteJsonLines(config.work_dir + "/spans.jsonl")) {
    std::printf("warning: could not write spans\n");
  }
}

}  // namespace approxql::perfbench
