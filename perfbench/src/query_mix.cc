// query_mix_live: serve-bound, with writes beside the reads. Two keep-alive
// closed-loop clients, each on its own thread, query a serve::HttpServer
// that answers from a live estate's ViewChannel through
// serve::EstateQueryHandler (both in their default configuration). A third
// thread ticks the estate on a fixed wall-clock schedule; every tick swaps
// the view, which invalidates the answer cache. Targets are /v1/forecast,
// /v1/breach, /v1/headroom and /v1/decompose for every series plus
// /v1/estate — more targets than the cache's 1,024 entries, built the way
// bench/serve_load.cc builds its target list. Each request draws one target
// with Zipf popularity over a seed-shuffled order of all targets, so the
// run sees both hits and LRU evictions. No endpoint shares are chosen: they
// follow from the target list and the shuffle, and so differ between
// seeds. No refit comes due during the run.
//
// End-to-end: throughput = answers per second of client time (the median
// over one-second windows), latency = client-observed request latency.
// Correctness: every 32nd response is compared byte for byte with a direct
// Handle() on the same view version by a second, uncached handler;
// documented 4xx answers (422 from /v1/decompose on a series with no
// detectable season) are counted per status, not as failures.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/json_writer.h"
#include "serve/handlers.h"
#include "serve/http.h"
#include "serve/http_client.h"
#include "serve/http_server.h"
#include "tsa/mstl.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using namespace capplan;
using serve::HttpRequest;
using serve::HttpResponse;
using serve::HttpServerStats;
using serve::RequestParser;

constexpr int kInstances = 86;  // x 3 metrics = 258 series, 1,033 targets
constexpr int kSetupReps = 3;
constexpr int kClients = 2;
constexpr int kTickIntervalMs = 250;
// Ticks stay inside the one-week age limit, so no refit comes due; the
// query phase is capped to the time they cover.
constexpr int kMaxTicks = 150;
constexpr double kZipfExponent = 1.0;

enum Endpoint { kForecast, kBreach, kHeadroom, kDecompose, kEstate, kNumEp };
constexpr const char* kEndpointNames[kNumEp] = {"forecast", "breach",
                                                "headroom", "decompose",
                                                "estate"};
constexpr const char* kHandleSpans[kNumEp] = {
    "serve.handle.forecast", "serve.handle.breach", "serve.handle.headroom",
    "serve.handle.decompose", "serve.handle.estate"};
constexpr const char* kRenderSpans[kNumEp] = {
    "serve.render.forecast", "serve.render.breach", "serve.render.headroom",
    "serve.render.decompose", "serve.render.estate"};

// Query targets: per series, one per endpoint; plus /v1/estate.
using Targets = std::vector<std::pair<Endpoint, std::string>>;

Endpoint EndpointOf(const std::string& path) {
  for (int ep = 0; ep < kNumEp; ++ep) {
    if (path == std::string("/v1/") + kEndpointNames[ep]) {
      return static_cast<Endpoint>(ep);
    }
  }
  return kNumEp;
}

Targets MakeTargets(const Estate& e) {
  Targets targets;
  for (const service::WatchConfig& watch : e.watches) {
    const std::string instance = e.cluster->InstanceName(watch.instance);
    const std::string metric = workload::MetricName(watch.metric);
    const std::string qs = "instance=" + instance + "&metric=" + metric;
    char capacity[32];
    std::snprintf(capacity, sizeof(capacity), "%.0f",
                  std::ceil(2.0 * watch.threshold));
    targets.emplace_back(kForecast, "/v1/forecast?" + qs);
    targets.emplace_back(kBreach, "/v1/breach?" + qs);
    targets.emplace_back(kHeadroom,
                         "/v1/headroom?" + qs + "&capacity=" + capacity);
    targets.emplace_back(kDecompose,
                         "/v1/decompose?key=" + instance + "/" + metric);
  }
  targets.emplace_back(kEstate, "/v1/estate");
  return targets;
}

// Draws a target with Zipf(s) popularity over a seed-shuffled order of the
// targets.
class QueryPicker {
 public:
  QueryPicker(const Targets& targets, std::uint64_t seed)
      : targets_(&targets), order_(targets.size()) {
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
    double acc = 0.0;
    for (std::size_t rank = 1; rank <= order_.size(); ++rank) {
      acc += 1.0 / std::pow(static_cast<double>(rank), kZipfExponent);
      zipf_cdf_.push_back(acc);
    }
  }

  const std::pair<Endpoint, std::string>& Pick(std::mt19937_64& rng) const {
    std::uniform_real_distribution<double> u(0.0, zipf_cdf_.back());
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u(rng)) -
        zipf_cdf_.begin());
    return (*targets_)[order_[std::min(rank, order_.size() - 1)]];
  }

 private:
  const Targets* targets_;
  std::vector<std::size_t> order_;
  std::vector<double> zipf_cdf_;
};

HttpRequest ParseGet(const std::string& target) {
  RequestParser parser;
  const std::string raw =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  parser.Feed(raw.data(), raw.size());
  return parser.TakeRequest();
}

// "view_version" (or /v1/estate's "version") from a response body; 0 when
// the body carries none.
std::uint64_t ViewVersionOf(const std::string& body) {
  for (const char* field : {"\"view_version\":", "\"version\":"}) {
    const std::size_t at = body.find(field);
    if (at != std::string::npos) {
      return std::strtoull(body.c_str() + at + std::strlen(field), nullptr,
                           10);
    }
  }
  return 0;
}

struct ClientStats {
  std::vector<double> latency_ms;
  std::vector<double> finished_s;  // completion time, seconds into the run
  std::map<int, std::uint64_t> by_status;
  std::uint64_t transport_errors = 0;
  std::uint64_t verified = 0;
  std::uint64_t version_moved = 0;  // sample skipped: a tick swapped the view
  std::vector<std::string> mismatches;
  double bytes[kNumEp] = {};
  std::uint64_t answers[kNumEp] = {};
};

}  // namespace

ServeResult ServeEstate(Estate& e, const RunOptions& options, double seconds,
                        int verify_every, Report* report) {
  service::EstateService& svc = *e.service;
  serve::EstateQueryHandler handler(svc.view_channel());
  serve::HttpServer server([&handler](const HttpRequest& request) {
    std::uint64_t trace = 0;
    std::uint64_t parent = 0;
    if (const std::string* v = request.FindHeader("x-trace")) {
      trace = std::strtoull(v->c_str(), nullptr, 10);
    }
    if (const std::string* v = request.FindHeader("x-parent")) {
      parent = std::strtoull(v->c_str(), nullptr, 10);
    }
    const Endpoint ep = EndpointOf(request.path);
    spans::Span span(ep == kNumEp ? "serve.handle" : kHandleSpans[ep], trace,
                     parent);
    return handler.Handle(request);
  });
  Require(server.Start(), "HttpServer::Start");
  const Targets targets = MakeTargets(e);
  const QueryPicker picker(targets, options.seed);
  serve::EstateQueryHandler::Options uncached;
  uncached.cache.capacity = 0;
  serve::EstateQueryHandler verifier(svc.view_channel(), nullptr, uncached);

  // A traced run alternates untraced and traced quarters, so both sides
  // see the same cache warm-up and view churn.
  const bool traced_run = options.trace;
  std::vector<ClientStats> untraced(kClients);
  std::vector<ClientStats> traced(kClients);
  ServeResult result;
  result.bytes.assign(kNumEp, 0.0);
  result.answers.assign(kNumEp, 0);
  std::size_t refits_during_run = 0;
  std::uint64_t tick_failures = 0;
  const std::uint64_t swaps0 = svc.view_channel()->swaps();
  const auto run_t0 = Clock::now();

  int phases = 0;
  auto phase = [&](bool tracing, double phase_s,
                   std::vector<ClientStats>* stats) {
    const int phase_id = phases++;
    spans::Enable(tracing);
    std::atomic<bool> stop{false};
    std::thread ticker([&] {
      auto next = Clock::now();
      while (!stop.load() &&
             result.tick_ms.size() + result.traced_tick_ms.size() <
                 static_cast<std::size_t>(kMaxTicks)) {
        next += std::chrono::milliseconds(kTickIntervalMs);
        std::this_thread::sleep_until(next);
        if (stop.load()) break;
        spans::Span span("service.tick");
        const auto t0 = Clock::now();
        auto tick = svc.Tick();
        (tracing ? result.traced_tick_ms : result.tick_ms)
            .push_back(MsSince(t0));
        if (!tick.ok()) {
          ++tick_failures;
        } else {
          refits_during_run += tick->refits_dispatched;
        }
      }
    });
    std::vector<std::thread> clients;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(phase_s));
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c, tracing, phase_id] {
        ClientStats& st = (*stats)[static_cast<std::size_t>(c)];
        const int stream = phase_id * kClients + c;
        std::mt19937_64 rng(options.seed * 1000003 +
                            static_cast<std::uint64_t>(stream));
        serve::HttpClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          ++st.transport_errors;
          return;
        }
        std::uint64_t sent = 0;
        while (Clock::now() < deadline) {
          const auto& [endpoint, target] = picker.Pick(rng);
          const std::string* path = &target;
          const auto t0 = Clock::now();
          Result<serve::ClientResponse> resp = [&] {
            spans::Span span("http.request");
            if (!tracing) return client.Get(*path);
            const Status sent_ok = client.Send(
                "GET " + *path +
                " HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive"
                "\r\nX-Trace: " + std::to_string(span.trace_id()) +
                "\r\nX-Parent: " + std::to_string(span.id()) + "\r\n\r\n");
            return sent_ok.ok() ? client.ReadResponse()
                                : Result<serve::ClientResponse>(sent_ok);
          }();
          st.latency_ms.push_back(MsSince(t0));
          st.finished_s.push_back(MsSince(run_t0) / 1e3);
          ++sent;
          if (!resp.ok()) {
            ++st.transport_errors;
            client.Close();
            if (!client.Connect("127.0.0.1", server.port()).ok()) break;
            continue;
          }
          ++st.by_status[resp->status];
          st.bytes[endpoint] += static_cast<double>(resp->body.size());
          ++st.answers[endpoint];
          if (sent % static_cast<std::uint64_t>(verify_every) != 0) continue;
          HttpResponse direct;
          {
            spans::Span span(kRenderSpans[endpoint]);
            direct = verifier.Handle(ParseGet(*path));
          }
          const std::uint64_t version = ViewVersionOf(resp->body);
          if (version != ViewVersionOf(direct.body)) {
            ++st.version_moved;
          } else if (direct.status != resp->status ||
                     direct.body != resp->body) {
            st.mismatches.push_back(*path);
          } else {
            ++st.verified;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    stop.store(true);
    ticker.join();
    spans::Enable(false);
  };

  seconds = std::min(seconds, kMaxTicks * kTickIntervalMs / 1e3);
  if (traced_run) {
    for (int quarter = 0; quarter < 4; ++quarter) {
      phase(quarter % 2 == 1, seconds / 4,
            quarter % 2 == 1 ? &traced : &untraced);
    }
  } else {
    phase(false, seconds, &untraced);
  }
  result.peak_rss_mb = PeakRssMb();
  result.throttled = server.Stats().throttled;
  result.view_swaps = svc.view_channel()->swaps() - swaps0;
  result.cache_hits = handler.cache().hits();
  result.cache_misses = handler.cache().misses();

  // Tally both phases: failures, statuses, correctness.
  std::map<int, std::uint64_t> by_status;
  std::uint64_t verified = 0;
  std::uint64_t moved = 0;
  for (const auto* phase_stats : {&untraced, &traced}) {
    for (const ClientStats& st : *phase_stats) {
      report->attempted += st.latency_ms.size();
      report->failed += st.transport_errors;
      for (const auto& [status, n] : st.by_status) {
        by_status[status] += n;
        // 422 is the documented answer for a series without a detectable
        // season; anything else outside 2xx means a refused or broken query.
        if (status >= 300 && status != 422) report->failed += n;
      }
      verified += st.verified;
      moved += st.version_moved;
      for (const std::string& m : st.mismatches) {
        report->Check(false, "serving: " + m +
                                 " differs from a direct Handle on the same "
                                 "view version");
      }
      for (std::size_t ep = 0; ep < kNumEp; ++ep) {
        result.bytes[ep] += st.bytes[ep];
        result.answers[ep] += st.answers[ep];
      }
    }
  }
  std::string statuses;
  for (const auto& [status, n] : by_status) {
    statuses += ' ';
    statuses += std::to_string(status);
    statuses += 'x';
    statuses += std::to_string(n);
  }
  report->Check(verified >= 10, "serving: only " + std::to_string(verified) +
                                    " sampled responses could be verified");
  report->Check(refits_during_run == 0,
                "serving: " + std::to_string(refits_during_run) +
                    " refits came due while serving");
  const std::size_t ticks =
      result.tick_ms.size() + result.traced_tick_ms.size();
  report->attempted += ticks;
  report->failed += tick_failures;
  report->Note("serving: " + std::to_string(targets.size()) +
               " targets, statuses" + statuses + ", " +
               std::to_string(verified) + " responses verified (" +
               std::to_string(moved) + " skipped: view moved), " +
               std::to_string(ticks) + " ticks");

  for (const ClientStats& st : untraced) {
    result.latency_ms.insert(result.latency_ms.end(), st.latency_ms.begin(),
                             st.latency_ms.end());
  }
  for (const ClientStats& st : traced) {
    result.traced_latency_ms.insert(result.traced_latency_ms.end(),
                                    st.latency_ms.begin(),
                                    st.latency_ms.end());
  }
  if (!traced_run) {
    // Closed-loop throughput per one-second window: a client answers one
    // request per latency, so its rate is its answers over their summed
    // latency (time spent verifying samples is left out).
    const std::size_t n_windows = static_cast<std::size_t>(seconds);
    std::vector<double> answers(n_windows * kClients, 0.0);
    std::vector<double> busy_ms(n_windows * kClients, 0.0);
    for (std::size_t c = 0; c < kClients; ++c) {
      const ClientStats& st = untraced[c];
      for (std::size_t i = 0; i < st.latency_ms.size(); ++i) {
        const std::size_t w = static_cast<std::size_t>(st.finished_s[i]);
        if (w >= n_windows) continue;
        answers[w * kClients + c] += 1.0;
        busy_ms[w * kClients + c] += st.latency_ms[i];
      }
    }
    result.window_rates.assign(n_windows, 0.0);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      result.window_rates[i / kClients] += Ratio(answers[i], busy_ms[i] / 1e3);
    }
    server.Stop();
    return result;
  }

  // Traced run only: the two library calls behind /v1/decompose and every
  // JSON answer, timed on the final view.
  const auto view = svc.View();
  spans::Enable(true);
  for (const serve::InstanceStatus& row : view->instances) {
    std::vector<std::size_t> periods;
    for (double p : row.periods) {
      if (p >= 2.0) periods.push_back(static_cast<std::size_t>(p));
    }
    if (periods.empty() || row.history.empty()) continue;
    spans::Span span("tsa.mstl");
    (void)tsa::MstlDecompose(row.history, periods);
  }
  {
    spans::Span span("common.json_number");
    JsonWriter w(false);
    w.BeginObject();
    w.BeginArray("values");
    for (const serve::InstanceStatus& row : view->instances) {
      for (const auto* values :
           {&row.forecast.mean, &row.forecast.lower, &row.forecast.upper}) {
        for (double v : *values) w.ArrayNumber(v);
        result.json_numbers += values->size();
      }
    }
    w.EndArray();
    w.EndObject();
    (void)w.Take();
  }
  spans::Enable(false);
  server.Stop();  // joins the handler threads before their spans are read
  return result;
}

void ReportServeLayers(const spans::Profile& trace, const ServeResult& served,
                       Report* report) {
  double handle_ms = 0.0;
  for (const char* name : kHandleSpans) handle_ms += trace.total_ms(name);
  const double request_ms = trace.total_ms("http.request");
  const double http_self_ms = trace.self_ms("http.request");
  const std::size_t requests = trace.count("http.request");
  report->Layer("serve.handle.share", Ratio(handle_ms, request_ms), requests);
  report->Layer("serve.http.share", Ratio(http_self_ms, request_ms), requests);
  for (std::size_t ep = 0; ep < kNumEp; ++ep) {
    report->Layer(std::string("serve.handle_us.") + kEndpointNames[ep],
                  trace.mean_us(kHandleSpans[ep]),
                  trace.count(kHandleSpans[ep]));
    report->Layer(std::string("serve.response_bytes.") + kEndpointNames[ep],
                  Ratio(served.bytes[ep],
                        static_cast<double>(served.answers[ep])),
                  served.answers[ep]);
  }
  report->Layer("serve.render_us.forecast",
                trace.mean_us(kRenderSpans[kForecast]),
                trace.count(kRenderSpans[kForecast]));
  report->Layer("serve.render_us.decompose",
                trace.mean_us(kRenderSpans[kDecompose]),
                trace.count(kRenderSpans[kDecompose]));
  report->Layer("serve.http_us",
                1e3 * Ratio(http_self_ms, static_cast<double>(requests)),
                requests);
  const double hits = static_cast<double>(served.cache_hits);
  const double misses = static_cast<double>(served.cache_misses);
  report->Layer("serve.cache_hit_ratio", Ratio(hits, hits + misses),
                static_cast<std::size_t>(hits + misses));
  report->Layer("serve.view_swaps", static_cast<double>(served.view_swaps), 1);
  report->Layer("serve.throttled", static_cast<double>(served.throttled), 1);
  report->Layer("tsa.mstl_ms", trace.mean_us("tsa.mstl") / 1e3,
                trace.count("tsa.mstl"));
  report->Layer("common.json_number_ns",
                1e6 * Ratio(trace.total_ms("common.json_number"),
                            static_cast<double>(served.json_numbers)),
                served.json_numbers);
}

void RunQueryMix(const RunOptions& options, Report* report) {
  service::EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kBaseline;
  config.staleness.rmse_degradation_factor = 1e9;
  config.guardrail.early_refit_on_drift = false;
  const workload::WorkloadScenario scenario =
      workload::WorkloadScenario::Olap();

  // Set-up: construct + Start + the first wave (every query needs a
  // forecast), several times.
  std::vector<double> setup_ms;
  Estate e;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    e = Estate{};
    const auto t0 = Clock::now();
    e = StartEstate(scenario, options.seed, kInstances, config);
    Require(e.service->Tick().status(), "EstateService::Tick");
    Require(e.service->DrainRefits(), "EstateService::DrainRefits");
    setup_ms.push_back(MsSince(t0));
  }
  const ServeResult served =
      ServeEstate(e, options, options.seconds, /*verify_every=*/32, report);
  double mape = 0.0;
  for (const std::string& key : e.service->keys()) {
    if (const auto m = e.service->registry().Get(key); m.ok()) {
      mape += m->test_mape;
    }
  }
  mape /= static_cast<double>(e.service->keys().size());

  if (!options.trace) {
    report->E2e("setup_s", Percentile(setup_ms, 0.5) / 1e3, setup_ms.size());
    report->E2e("peak_rss_mb", served.peak_rss_mb, 1);
    report->E2e("throughput_per_s", Percentile(served.window_rates, 0.5),
                served.window_rates.size());
    report->E2e("latency_ms.p50", Percentile(served.latency_ms, 0.5),
                served.latency_ms.size());
    report->Note("query_mix_live: latency_ms.p99 " +
                 std::to_string(Percentile(served.latency_ms, 0.99)) +
                 " over " + std::to_string(served.latency_ms.size()) +
                 " requests; not an end-to-end metric");
    report->E2e("forecast_mape_pct", mape, e.service->keys().size());
    return;
  }

  const spans::Profile trace = DrainTrace(options);
  ReportServeLayers(trace, served, report);
  report->Layer("service.tick_ms.p50", Percentile(served.traced_tick_ms, 0.5),
                served.traced_tick_ms.size());
  report->Layer("trace.overhead_frac",
                Ratio(Percentile(served.traced_latency_ms, 0.5),
                      Percentile(served.latency_ms, 0.5)) -
                    1.0,
                served.traced_latency_ms.size() + served.latency_ms.size());
  // Every request's time is either in its handler span or around it (the
  // HTTP share), so only requests the handler never saw stay unattributed.
  double handle_ms = 0.0;
  for (const char* name : kHandleSpans) handle_ms += trace.total_ms(name);
  const double explained_ms = handle_ms + trace.self_ms("http.request");
  report->Layer("trace.unattributed_frac",
                std::max(0.0, 1.0 - Ratio(explained_ms,
                                          trace.total_ms("http.request"))),
                trace.count("http.request"));
  report->Layer("trace.spans", static_cast<double>(trace.spans()), 1);
}

}  // namespace perfbench
