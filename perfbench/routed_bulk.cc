// routed_bulk: the serving path end to end. nproc wire clients send
// direct-strategy queries with a large n to a net::Server fronting a
// QueryService over a dist::ShardRouter, which scatters each query to
// nproc/2 shard net::Servers; everything runs in this process over
// loopback. Renamings cannot travel over the wire, so queries are priced
// by the corpus's own seeded cost model. Engine time per query is kept
// comparable to the wire and routing overhead so that net and dist carry
// a visible share. Never touches the schema top-k or ingest.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "dist/shard_router.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/expanded.h"
#include "query/separated.h"
#include "service/query_service.h"
#include "shard/sharded_database.h"
#include "util/logging.h"
#include "inputs.h"
#include "workload.h"

namespace approxql::perfbench {
namespace {

constexpr size_t kElements = 24000;
constexpr size_t kQueries = 3000;
/// Large n: every answer list crosses two wire hops.
constexpr size_t kN = 100;

/// Sizes derived from nproc; every one is printed with the provenance.
struct Budget {
  size_t clients = 0;
  size_t shards = 0;
  size_t shard_threads = 0;
  size_t front_threads = 0;
};

/// The serving stack. Members are declared so that everything that
/// calls into another piece is destroyed before it.
struct State {
  std::unique_ptr<shard::ShardedDatabase> sharded;
  std::vector<std::unique_ptr<service::QueryService>> shard_services;
  std::vector<std::unique_ptr<net::Server>> shard_servers;
  std::unique_ptr<dist::ShardRouter> router;
  std::unique_ptr<service::QueryService> front_service;
  std::unique_ptr<net::Server> front;
  std::vector<std::unique_ptr<net::Client>> clients;

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() {
    clients.clear();
    if (front) front->Shutdown(/*drain=*/false);
    if (router) router->Shutdown();
    for (auto& server : shard_servers) server->Shutdown(/*drain=*/false);
  }
};

std::unique_ptr<State> StartStack(const std::vector<std::string>& docs,
                                  const cost::CostModel& model,
                                  const Budget& budget) {
  auto s = std::make_unique<State>();
  auto sharded = shard::ShardedDatabase::BuildFromXml(docs, model,
                                                      budget.shards);
  APPROXQL_CHECK(sharded.ok()) << sharded.status();
  s->sharded =
      std::make_unique<shard::ShardedDatabase>(std::move(sharded).value());
  dist::RouterOptions router_options;
  for (size_t i = 0; i < budget.shards; ++i) {
    service::ServiceOptions options;
    options.num_threads = budget.shard_threads;
    options.queue_capacity = 256;
    options.cache_capacity = 0;
    s->shard_services.push_back(std::make_unique<service::QueryService>(
        s->sharded->shard(i), options));
    net::ServerOptions server_options;
    server_options.shard.enabled = true;
    server_options.shard.fingerprint = s->sharded->LayoutFingerprint();
    server_options.shard.shard_index = static_cast<uint32_t>(i);
    s->shard_servers.push_back(std::make_unique<net::Server>(
        *s->shard_services.back(), s->sharded->shard(i), server_options));
    auto started = s->shard_servers.back()->Start();
    APPROXQL_CHECK(started.ok()) << started;
    router_options.shards.push_back(
        {"127.0.0.1", s->shard_servers.back()->port()});
  }
  s->router = std::make_unique<dist::ShardRouter>(*s->sharded, router_options);
  auto started = s->router->Start();
  APPROXQL_CHECK(started.ok()) << started;
  service::ServiceOptions front_options;
  front_options.num_threads = budget.front_threads;
  front_options.queue_capacity = 256;
  front_options.cache_capacity = 0;
  front_options.parallelism = 1;
  s->front_service =
      std::make_unique<service::QueryService>(*s->router, front_options);
  s->front = std::make_unique<net::Server>(
      *s->front_service, s->router->manifest(), net::ServerOptions{});
  started = s->front->Start();
  APPROXQL_CHECK(started.ok()) << started;
  for (size_t c = 0; c < budget.clients; ++c) {
    net::ClientOptions client_options;
    client_options.port = s->front->port();
    s->clients.push_back(std::make_unique<net::Client>(client_options));
    auto connected = s->clients.back()->Connect();
    APPROXQL_CHECK(connected.ok()) << connected;
  }
  return s;
}

net::WireRequest WireQuery(const std::string& text) {
  net::WireRequest request;
  request.query = text;
  request.strategy = engine::Strategy::kDirect;
  request.n = kN;
  request.bypass_cache = true;
  return request;
}

bool SameWireAnswers(const std::vector<net::WireAnswer>& got,
                     const std::vector<engine::QueryAnswer>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](const net::WireAnswer& a, const engine::QueryAnswer& b) {
                      return a.root == b.root && a.cost == b.cost;
                    });
}

}  // namespace

void RunRoutedBulk(const RunConfig& config, Report* report) {
  const size_t nproc = Nproc();
  Budget budget;
  budget.clients = nproc;
  budget.shards = std::max<size_t>(1, nproc / 2);
  budget.shard_threads = std::max<size_t>(1, nproc / budget.shards);
  budget.front_threads = nproc;
  report->refusal = StampAndCheckBudget(
      config.workload, config.seed,
      {{"clients", budget.clients, true},
       {"connections", budget.clients, true},
       {"shard_servers", budget.shards},
       {"shard.service.num_threads", budget.shard_threads},
       {"front.service.num_threads", budget.front_threads},
       {"service.parallelism", 1}});
  if (!report->refusal.empty()) return;

  const gen::XmlGenOptions gen_options =
      PaperRatioOptions(config.seed, kElements);
  const cost::CostModel model = SeededDeleteCosts(config.seed, gen_options);
  const std::vector<std::string> docs = GenerateDocuments(gen_options);
  auto built = engine::Database::BuildFromXml(docs, model);
  APPROXQL_CHECK(built.ok()) << built.status();
  const engine::Database oracle_db = std::move(built).value();
  const std::vector<std::string> queries =
      WireQueries(oracle_db, config.seed, kQueries);
  std::vector<std::string> digest_parts = docs;
  digest_parts.insert(digest_parts.end(), queries.begin(), queries.end());
  std::printf("inputs: %zu documents, %zu queries, n=%zu, digest=%016llx\n",
              docs.size(), queries.size(), kN,
              static_cast<unsigned long long>(InputDigest(digest_parts)));

  // Oracle: the unsharded database, serially, with exact engine counters.
  std::vector<std::vector<engine::QueryAnswer>> oracle(queries.size());
  std::vector<engine::EvalStats> oracle_stats(queries.size());
  size_t answers_total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    engine::ExecOptions exec;
    exec.strategy = engine::Strategy::kDirect;
    exec.n = kN;
    exec.direct_stats_out = &oracle_stats[i];
    auto answers = oracle_db.Execute(queries[i], exec);
    APPROXQL_CHECK(answers.ok()) << answers.status();
    oracle[i] = std::move(answers).value();
    answers_total += oracle[i].size();
  }
  std::printf("oracle: %.1f answers per query\n",
              static_cast<double>(answers_total) /
                  static_cast<double>(queries.size()));

  std::unique_ptr<State> state;
  std::vector<double> setup_seconds =
      RepeatSetup<State>(&state, [&]() -> std::unique_ptr<State> {
        auto s = StartStack(docs, model, budget);
        // Warm-up: every connection carries a few queries.
        for (size_t c = 0; c < s->clients.size(); ++c) {
          for (size_t i = 0; i < 8; ++i) {
            auto response = s->clients[c]->Call(
                WireQuery(queries[(c * 8 + i) % queries.size()]));
            APPROXQL_CHECK(response.ok()) << response.status();
          }
        }
        return s;
      });

  auto call = [&](size_t client, size_t i) {
    auto start = std::chrono::steady_clock::now();
    auto response = state->clients[client]->Call(WireQuery(queries[i]));
    OpResult result;
    result.latency_us = ElapsedUs(start);
    result.ok = response.ok() && response->status_code == 0 &&
                !response->degraded && !response->truncated;
    result.wrong = result.ok && !SameWireAnswers(response->answers, oracle[i]);
    return result;
  };
  auto closed_loop = [&](double seconds, uint64_t max_ops,
                         const std::function<OpResult(size_t, size_t)>& op) {
    return RunClosedLoop(budget.clients, seconds, max_ops,
                         [&](size_t client, uint64_t seq) {
                           return op(client, seq % queries.size());
                         });
  };

  if (!config.trace) {
    report->metrics.Add("setup_s", Median(setup_seconds), "s",
                        setup_seconds.size());
    AddQueryMetrics(closed_loop(config.seconds, UINT64_MAX, call), kWindows,
                    report);
    return;
  }

  // Traced run. Phase A: the untraced loop. Phase B: the same operations
  // with spans around the chained client calls (parse -> expand -> wire
  // call under one query span). Phase C: one thread on the idle stack
  // measures each layer by calling it directly, top to bottom, for the
  // same query: wire call, service, router, and each shard's engine.
  const double phase_seconds = config.seconds * 0.35;
  LoopResult untraced = closed_loop(phase_seconds, UINT64_MAX, call);
  report->attempted += untraced.attempted;
  report->failed += untraced.failed;
  report->wrong += untraced.wrong;

  Tracer tracer;
  const cost::CostModel& router_model = state->router->cost_model();
  std::vector<double> disjuncts;
  util::Mutex disjuncts_mu;
  LoopResult traced = closed_loop(
      config.seconds * 4, untraced.attempted, [&](size_t client, size_t i) {
        const uint64_t request = tracer.NewRequest();
        ScopedSpan root(&tracer, "query", request);
        std::optional<query::Query> parsed;
        {
          ScopedSpan span(&tracer, "query.parse", request, root.id());
          auto result = query::Parse(queries[i]);
          APPROXQL_CHECK(result.ok()) << result.status();
          parsed.emplace(std::move(result).value());
        }
        {
          ScopedSpan span(&tracer, "query.expand", request, root.id());
          auto expanded = query::ExpandedQuery::Build(*parsed, router_model);
          APPROXQL_CHECK(expanded.ok()) << expanded.status();
        }
        auto separated = query::SeparatedRepresentation(*parsed);
        {
          util::MutexLock lock(&disjuncts_mu);
          disjuncts.push_back(
              separated.ok() ? static_cast<double>(separated->size()) : 0);
        }
        ScopedSpan span(&tracer, "net.call", request, root.id());
        return call(client, i);
      });
  report->attempted += traced.attempted;
  report->failed += traced.failed;
  report->wrong += traced.wrong;
  const std::string front_dump = state->front_service->DumpMetrics();

  // Phase C.
  Tracer probes;
  std::vector<double> encode_us, decode_us, response_bytes, direct_us;
  engine::EvalStats direct_sums;
  uint64_t retries = 0, degraded = 0, probe_ops = 0, probe_wrong = 0;
  double net_self = 0, service_self = 0, dist_self = 0, engine_max = 0,
         call_total = 0;
  const auto probe_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config.seconds * 0.3));
  for (size_t i = 0; std::chrono::steady_clock::now() < probe_deadline;
       i = (i + 1) % queries.size()) {
    const uint64_t request = probes.NewRequest();
    uint64_t call_span = 0, service_span = 0, route_span = 0;
    std::optional<net::WireResponse> wire;
    {
      ScopedSpan span(&probes, "net.call", request);
      call_span = span.id();
      auto response = state->clients[0]->Call(WireQuery(queries[i]));
      APPROXQL_CHECK(response.ok()) << response.status();
      wire.emplace(std::move(response).value());
    }
    {
      ScopedSpan span(&probes, "service.exec", request, call_span);
      service_span = span.id();
      service::QueryRequest service_request;
      service_request.query_text = queries[i];
      service_request.exec.strategy = engine::Strategy::kDirect;
      service_request.exec.n = kN;
      service_request.bypass_cache = true;
      service::QueryResponse response =
          state->front_service->ExecuteNow(std::move(service_request));
      APPROXQL_CHECK(response.status.ok()) << response.status;
      if (!SameAnswers(response.answers, oracle[i])) ++probe_wrong;
    }
    {
      ScopedSpan span(&probes, "dist.route", request, service_span,
                      /*fanout=*/true);
      route_span = span.id();
      auto routed = state->router->Execute(
          queries[i], engine::Strategy::kDirect, kN, /*deadline_ms=*/0);
      APPROXQL_CHECK(routed.ok()) << routed.status();
      retries += routed->retries;
      degraded += routed->degraded ? 1 : 0;
      if (!SameAnswers(routed->answers, oracle[i])) ++probe_wrong;
    }
    for (size_t s = 0; s < state->sharded->num_shards(); ++s) {
      ScopedSpan span(&probes, "engine.direct.shard", request, route_span);
      engine::ExecOptions exec;
      exec.strategy = engine::Strategy::kDirect;
      exec.n = kN;
      auto answers = state->sharded->shard(s).Execute(queries[i], exec);
      APPROXQL_CHECK(answers.ok()) << answers.status();
    }
    {
      // The unsharded engine alone: its time and exact work counts.
      engine::EvalStats stats;
      engine::ExecOptions exec;
      exec.strategy = engine::Strategy::kDirect;
      exec.n = kN;
      exec.direct_stats_out = &stats;
      auto start = std::chrono::steady_clock::now();
      auto answers = oracle_db.Execute(queries[i], exec);
      direct_us.push_back(ElapsedUs(start));
      APPROXQL_CHECK(answers.ok()) << answers.status();
      const engine::EvalStats& want = oracle_stats[i];
      if (stats.fetches != want.fetches ||
          stats.entries_fetched != want.entries_fetched ||
          stats.list_ops != want.list_ops ||
          stats.cache_hits != want.cache_hits) {
        report->self_check_error =
            "serial direct counters did not repeat exactly";
      }
    }
    auto start = std::chrono::steady_clock::now();
    const std::string encoded = net::EncodeQueryResponse(*wire);
    encode_us.push_back(ElapsedUs(start));
    response_bytes.push_back(static_cast<double>(encoded.size()));
    net::WireResponse decoded;
    start = std::chrono::steady_clock::now();
    util::Status status = net::DecodeQueryResponse(encoded, &decoded);
    decode_us.push_back(ElapsedUs(start));
    APPROXQL_CHECK(status.ok()) << status;
    ++probe_ops;
  }
  report->attempted += probe_ops;
  report->wrong += probe_wrong;
  report->failed += probe_wrong;
  {
    std::vector<Span> all = probes.spans();
    for (const Span& span : all) {
      if (span.name == "net.call") {
        net_self += SelfTimeUs(span, all);
        call_total += span.duration_us();
      } else if (span.name == "service.exec") {
        service_self += SelfTimeUs(span, all);
      } else if (span.name == "dist.route") {
        dist_self += SelfTimeUs(span, all);
        engine_max += span.duration_us() - SelfTimeUs(span, all);
      }
    }
  }
  for (const engine::EvalStats& s : oracle_stats) {
    direct_sums.fetches += s.fetches;
    direct_sums.entries_fetched += s.entries_fetched;
    direct_sums.list_ops += s.list_ops;
    direct_sums.cache_hits += s.cache_hits;
    direct_sums.cache_misses += s.cache_misses;
  }

  MetricTable& m = report->metrics;
  LatencySummary parse = Summarize(tracer.Durations("query.parse"));
  LatencySummary expand = Summarize(tracer.Durations("query.expand"));
  m.Add("query.parse_us_p50", parse.p50, "us", parse.count);
  m.Add("query.expand_us_p50", expand.p50, "us", expand.count);
  m.Add("query.disjuncts", Summarize(disjuncts).p50, "count",
        disjuncts.size(), "median conjunctive queries per query");
  LatencySummary direct = Summarize(direct_us);
  m.Add("engine.direct.exec_us_p50", direct.p50, "us", direct.count,
        "serial, unsharded");
  // Exact work counts of the serial unsharded engine over the distinct
  // queries: these repeat exactly for a seed (the traced run fails if the
  // probes disagree with the oracle pass; steadiness.py compares runs).
  std::printf("exact-counts: engine.direct fetches=%llu entries_fetched=%llu "
              "list_ops=%llu cache_hits=%llu cache_misses=%llu\n",
              static_cast<unsigned long long>(direct_sums.fetches),
              static_cast<unsigned long long>(direct_sums.entries_fetched),
              static_cast<unsigned long long>(direct_sums.list_ops),
              static_cast<unsigned long long>(direct_sums.cache_hits),
              static_cast<unsigned long long>(direct_sums.cache_misses));
  const double distinct = static_cast<double>(queries.size());
  const std::string per =
      "per query over " + std::to_string(queries.size()) + " distinct queries";
  m.Add("engine.direct.entries_fetched",
        static_cast<double>(direct_sums.entries_fetched) / distinct, "count",
        0, per);
  m.Add("engine.direct.list_ops",
        static_cast<double>(direct_sums.list_ops) / distinct, "count", 0, per);
  m.Add("engine.direct.fetches",
        static_cast<double>(direct_sums.fetches) / distinct, "count", 0, per);
  const double hits = static_cast<double>(direct_sums.cache_hits);
  const double lookups =
      hits + static_cast<double>(direct_sums.cache_misses);
  m.Add("engine.direct.dp_cache_hit_ratio", SafeRatio(hits, lookups), "1", 0,
        FormatRatio("hits/lookups", hits, lookups));
  m.Add("service.queue_us_mean", DumpValue(front_dump, "queue_wait_us", "mean"),
        "us", static_cast<size_t>(DumpValue(front_dump, "queue_wait_us",
                                            "count")),
        "front service histogram");
  std::printf("layer service.queue_us p50=%.0f p99=%.0f (front service "
              "histogram, bucketed)\n",
              DumpValue(front_dump, "queue_wait_us", "p50"),
              DumpValue(front_dump, "queue_wait_us", "p99"));
  LatencySummary service_exec = Summarize(probes.Durations("service.exec"));
  m.Add("service.exec_us_p50", service_exec.p50, "us", service_exec.count,
        "ExecuteNow on the idle stack");
  LatencySummary net_overhead = Summarize(probes.SelfTimes("net.call"));
  std::printf("layer net.overhead_us p50=%.1f samples=%zu (Call - "
              "ExecuteNow)\n",
              net_overhead.p50, net_overhead.count);
  LatencySummary encode = Summarize(encode_us);
  LatencySummary decode = Summarize(decode_us);
  std::printf("layer net.encode_us p50=%.2f net.decode_us p50=%.2f "
              "samples=%zu\n",
              encode.p50, decode.p50, encode.count);
  m.Add("net.response_bytes", Summarize(response_bytes).p50, "B",
        response_bytes.size(), "median encoded kQueryResponse payload");
  net::Server::Stats front_stats = state->front->GetStats();
  std::printf("net.server requests=%llu bytes_written=%llu (%.1f B/request)\n",
              static_cast<unsigned long long>(front_stats.requests),
              static_cast<unsigned long long>(front_stats.bytes_written),
              SafeRatio(static_cast<double>(front_stats.bytes_written),
                        static_cast<double>(front_stats.requests)));
  LatencySummary route = Summarize(probes.Durations("dist.route"));
  LatencySummary scatter_overhead = Summarize(probes.SelfTimes("dist.route"));
  std::printf("layer dist.route_us p50=%.1f p99=%.1f samples=%zu "
              "beyond=%zu\n",
              route.p50, route.p99, route.count, route.beyond_p99);
  std::printf("layer dist.scatter_overhead_us p50=%.1f (route - slowest "
              "shard's serial engine)\n",
              scatter_overhead.p50);
  m.Add("dist.retries", static_cast<double>(retries), "count", probe_ops);
  m.Add("dist.degraded", static_cast<double>(degraded), "count", probe_ops);
  // Where one wire call's time goes, as shares of the call (ratios of
  // sums over the probes).
  m.Add("net.self_frac", SafeRatio(net_self, call_total), "1", probe_ops,
        FormatRatio("net_self_us/call_us", net_self, call_total));
  m.Add("service.self_frac", SafeRatio(service_self, call_total), "1",
        probe_ops,
        FormatRatio("service_self_us/call_us", service_self, call_total));
  m.Add("dist.self_frac", SafeRatio(dist_self, call_total), "1", probe_ops,
        FormatRatio("dist_self_us/call_us", dist_self, call_total));
  m.Add("engine.self_frac", SafeRatio(engine_max, call_total), "1",
        probe_ops,
        FormatRatio("slowest_shard_engine_us/call_us", engine_max,
                    call_total));

  LatencySummary base = Summarize(untraced.latencies_us);
  LatencySummary with_spans = Summarize(tracer.Durations("net.call"));
  m.Add("trace.overhead_frac", SafeRatio(with_spans.p50 - base.p50, base.p50),
        "1", with_spans.count,
        FormatRatio("(traced_p50-untraced_p50)/untraced_p50",
                    with_spans.p50 - base.p50, base.p50));
  if (!tracer.WriteJsonLines(config.work_dir + "/spans.jsonl") ||
      !probes.WriteJsonLines(config.work_dir + "/probe_spans.jsonl")) {
    std::printf("warning: could not write spans\n");
  }
}

}  // namespace approxql::perfbench
