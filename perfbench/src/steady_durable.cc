// olap_steady_durable: ingest- and durability-bound. An OLAP estate (paper
// Experiment One) on the HES technique with a state directory, so every
// tick is journalled and every 24th tick writes a snapshot (the default
// cadence). Set-up starts the estate and lands its first HES wave; then the
// estate ticks a fixed 1,200 simulated hours. No series comes due during
// the run: the age limit outlasts it and the degradation and drift
// triggers are off, so core stays idle while the agent, repository/store,
// guardrail, journal, snapshot and view-publish layers work. The estate
// ends with a crash: the state directory is copied as the process left it,
// without a checkpoint, and a fresh service recovers from the copy. An
// untraced run makes such estates for --seconds (at least three), each on
// its own cluster seed derived from --seed.
//
// End-to-end: throughput = series-hours ingested per second of tick time,
// each kind of tick (plain, store seal, snapshot) at its median cost over
// the run; latency = tick wall time (hour boundary until the view shows
// the hour).
//
// Correctness: right after Recover() the registry, schedule, cached
// forecasts, active alerts and hourly history equal the live service's.
// Each alert's prognosis (predicted breach epoch, upper-only flag) is
// refreshed every tick without a journal event, so Recover() restores it as
// of the last snapshot; it is compared after one more tick on both
// services, together with everything else.

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "quality/guardrail.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using namespace capplan;

constexpr int kInstances = 10;  // x 3 metrics = 30 series
constexpr int kMinEstates = 3;  // untraced runs
constexpr int kTicks = 1200;  // 50 simulated days, 50 snapshots
// Ticks per block (five snapshots): a traced run alternates untraced and
// traced blocks, so both halves span the whole run.
constexpr int kBlock = 120;
constexpr int kCheckpointReps = 3;
constexpr double kServeSeconds = 3.0;  // traced runs only

// HES, and no refit comes due during an estate's ticks. An empty
// `state_dir` leaves the service without durability.
service::EstateServiceConfig SteadyConfig(const std::string& state_dir) {
  service::EstateServiceConfig config;
  config.pipeline.technique = core::Technique::kHes;
  config.state_dir = state_dir;
  config.staleness.max_age_seconds =
      static_cast<std::int64_t>(kTicks + 24) * 3600;
  config.staleness.rmse_degradation_factor = 1e9;
  config.guardrail.early_refit_on_drift = false;
  return config;
}

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Hex(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += Hex(v) + ";";
  return out;
}

// Everything Recover() must rebuild, rendered exactly (doubles in hex).
std::map<std::string, std::string> DurableState(
    const service::EstateService& svc) {
  std::map<std::string, std::string> state;
  state["clock"] = std::to_string(svc.now()) + " tick " +
                   std::to_string(svc.tick_count());
  const auto view = svc.View();
  for (const std::string& key : svc.keys()) {
    if (const auto m = svc.registry().Get(key); m.ok()) {
      state["registry " + key] =
          m->technique + "|" + m->spec + "|" + Hex(m->test_rmse) + "|" +
          Hex(m->test_mape) + "|" + std::to_string(m->fitted_at_epoch) +
          "|" + Hex(m->ar_coef) + "|" + Hex(m->ma_coef) + "|" +
          Hex(m->periods) + "|" + std::to_string(m->generation) + "|" +
          std::to_string(m->promoted_at_epoch) + "|" + Hex(m->live_mape);
    }
    if (const serve::InstanceStatus* row = view->Find(key);
        row != nullptr && row->has_forecast) {
      state["forecast " + key] =
          row->spec + "|" + std::to_string(row->forecast_start_epoch) + "|" +
          std::to_string(row->forecast_step_seconds) + "|" +
          std::to_string(static_cast<int>(row->degradation)) + "|" +
          Hex(row->forecast.mean) + "|" + Hex(row->forecast.lower) + "|" +
          Hex(row->forecast.upper);
    }
    if (const tsa::TimeSeries* hourly = svc.FindHourly(key)) {
      state["history " + key] =
          std::to_string(hourly->start_epoch()) + "|" + Hex(hourly->values());
    }
  }
  for (const service::ScheduleEntry& e : svc.ScheduleEntries()) {
    state["schedule " + e.key] =
        std::to_string(e.due_epoch) + "|" +
        std::to_string(e.consecutive_failures) + "|" +
        (e.quarantined ? "q" : "-") + (e.in_flight ? "f" : "-");
  }
  for (const service::ServiceAlert& a : svc.ActiveAlerts()) {
    state["alert " + a.key] = std::to_string(a.raised_at_epoch);
    state["prognosis " + a.key] =
        std::string(a.upper_only ? "upper" : "mean") + "|" +
        std::to_string(a.predicted_breach_epoch);
  }
  return state;
}

// Compares every entry except those starting with `skip` (when non-empty);
// returns how many of the skipped entries differ.
std::size_t CheckRecovered(const std::map<std::string, std::string>& live,
                           const std::map<std::string, std::string>& recovered,
                           const std::string& when, const std::string& skip,
                           Report* report) {
  std::size_t skipped_diffs = 0;
  for (const auto& [what, value] : live) {
    const auto it = recovered.find(what);
    if (!skip.empty() && what.rfind(skip, 0) == 0) {
      if (it == recovered.end() || it->second != value) ++skipped_diffs;
      continue;
    }
    report->Check(it != recovered.end() && it->second == value,
                  "olap_steady_durable: " + when + ", " + what +
                      " differs from the live service (live " +
                      value.substr(0, 80) + ", recovered " +
                      (it == recovered.end() ? std::string("none")
                                             : it->second.substr(0, 80)) +
                      ")");
  }
  for (const auto& [what, value] : recovered) {
    report->Check(live.count(what) == 1, "olap_steady_durable: " + when +
                                             ", recovered service has extra " +
                                             what);
  }
  return skipped_diffs;
}

// Store blocks sealed so far, raw and hourly tier.
std::uint64_t SealedBlocks(const service::EstateService& svc) {
  const repo::MetricsRepository& repo = svc.shard_metrics(0);
  return repo.raw_store().stats().blocks_sealed +
         repo.hourly_store().stats().blocks_sealed;
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

// Scores each hour a tick brought in against the view's cached forecast, on
// shadow trackers — the replay of the service's guardrail pass.
class ScoreReplay {
 public:
  explicit ScoreReplay(quality::LiveAccuracyTracker::Options options)
      : options_(options) {}

  void Run(const service::EstateService& svc, repo::MetricsRepository& repo,
           std::uint64_t booked_to) {
    const auto view = svc.View();
    pairs_.clear();
    for (const serve::InstanceStatus& row : view->instances) {
      const tsa::TimeSeries* hourly = repo.FindHourly(row.key);
      if (!row.has_forecast || hourly == nullptr || hourly->empty()) continue;
      const std::size_t last = hourly->size() - 1;
      const std::int64_t idx =
          (hourly->TimestampAt(last) - row.forecast_start_epoch) /
          row.forecast_step_seconds;
      if (idx < 0 ||
          idx >= static_cast<std::int64_t>(row.forecast.mean.size())) {
        continue;
      }
      auto it = trackers_.try_emplace(row.key, options_).first;
      pairs_.push_back({&it->second, (*hourly)[last],
                        row.forecast.mean[static_cast<std::size_t>(idx)]});
    }
    spans::Span span("quality.score");
    span.BookTo(booked_to);
    for (const Pair& p : pairs_) p.tracker->Score(p.actual, p.predicted);
    scored_ += pairs_.size();
  }

  std::size_t scored() const { return scored_; }

 private:
  struct Pair {
    quality::LiveAccuracyTracker* tracker;
    double actual;
    double predicted;
  };

  quality::LiveAccuracyTracker::Options options_;
  std::map<std::string, quality::LiveAccuracyTracker> trackers_;
  std::vector<Pair> pairs_;
  std::size_t scored_ = 0;
};

// The view-publish step at the end of every tick: copy the rows into a
// fresh EstateView and swap it into a channel.
void PublishReplay(const service::EstateService& svc,
                   serve::ViewChannel* channel, std::uint64_t booked_to) {
  const auto view = svc.View();
  spans::Span span("serve.view_publish");
  span.BookTo(booked_to);
  channel->Publish(serve::MergeShardRows(view->now_epoch, view->tick,
                                         {view->instances}));
}

// What sets the two steady workloads apart.
struct Steady {
  std::string name;
  workload::WorkloadScenario scenario;
  bool durable;  // state directory: journal, snapshots, crash + Recover
};

// Selection layers oltp_steady_ingest reports from a traced kAuto refit
// wave (oltp_refit_wave's traced cycle), appended to its ticks.
constexpr const char* kSelectionLayers[] = {
    "quality.repair.share",     "core.pipeline.share",
    "quality.repair_ms",        "core.route_ms",
    "core.pipeline_ms.p50",     "core.pipeline_ms.max",
    "core.candidates_evaluated", "core.candidates_pruned",
    "core.candidates_useful_frac", "models.tbats_filter_runs",
    "service.drain_ms",         "service.queue_depth.max",
    "service.pool_busy_frac"};

void RunSteady(const Steady& kind, const RunOptions& options,
               Report* report) {
  const std::string& name = kind.name;
  const std::string base =
      options.work_dir + "/" + name + "-" + std::to_string(options.seed);

  // The untraced run makes estates for --seconds, each on its own cluster
  // seed derived from --seed: at least kMinEstates, and another only if, at
  // the median estate time so far, it ends within the budget. The traced
  // run makes one estate and alternates untraced blocks (the overhead
  // baseline) with traced blocks, which replay each layer's public call
  // after every tick.
  const bool traced_run = options.trace;
  const int min_estates = traced_run ? 1 : kMinEstates;
  std::vector<double> estate_ms;
  std::vector<double> setup_ms;
  std::vector<double> tick_ms;
  // Untraced ticks by kind: plain, sealed a store block, wrote a snapshot.
  std::vector<double> kind_ms[3];
  std::vector<double> traced_ms;
  std::vector<double> save_ms;
  std::vector<double> recover_ms;
  std::uint64_t journal_untraced = 0;  // bytes the untraced ticks appended
  std::size_t refits_during_run = 0;
  std::size_t stale_prognoses = 0;
  std::size_t scored = 0;
  double mape = 0.0;
  std::size_t n_models = 0;
  std::size_t n_series = 0;
  double snapshot_bytes = 0.0;
  double compression = 0.0;
  double peak_rss_mb = 0.0;
  // The last estate, its crash copy and the service recovered from it; the
  // traced run measures more layers on them after the loop.
  Estate e;
  service::EstateServiceConfig config;
  service::EstateServiceConfig crashed;
  std::unique_ptr<service::EstateService> recovered;
  const auto run_t0 = Clock::now();
  for (int r = 0;; ++r) {
    if (r >= min_estates &&
        (traced_run || MsSince(run_t0) + Percentile(estate_ms, 0.5) >
                           options.seconds * 1e3)) {
      break;
    }
    const auto estate_t0 = Clock::now();
    recovered.reset();
    e = Estate{};
    std::filesystem::remove_all(base);

    // Set-up: construct + Start + the first HES wave.
    config = SteadyConfig(kind.durable ? base + "/state" : "");
    auto t0 = Clock::now();
    e = StartEstate(kind.scenario,
                    options.seed * 1000 + static_cast<unsigned>(r),
                    kInstances, config);
    Require(e.service->Tick().status(), "EstateService::Tick");
    Require(e.service->DrainRefits(), "EstateService::DrainRefits");
    setup_ms.push_back(MsSince(t0));
    service::EstateService& svc = *e.service;
    // Without a state directory there is no journal (FileBytes reads 0).
    const std::string journal =
        kind.durable ? config.state_dir + "/journal.log" : "";

    spans::Enable(false);
    std::unique_ptr<IngestReplay> ingest;
    ScoreReplay scores(config.guardrail.tracker);
    serve::ViewChannel publish_channel;
    const std::string shadow_segments = base + "/shadow-segments";
    for (int i = 0; i < kTicks; ++i) {
      const bool tracing = traced_run && (i / kBlock) % 2 == 1;
      if (tracing && i % kBlock == 0) {
        if (ingest == nullptr) {
          ingest = std::make_unique<IngestReplay>(e, config, svc.now());
        } else {
          ingest->CatchUp(svc.now());
        }
      }
      spans::Enable(tracing);
      spans::Span cycle("cycle.tick");
      std::uint64_t tick_span = 0;
      const std::uint64_t journal_before = FileBytes(journal);
      const std::uint64_t sealed_before = SealedBlocks(svc);
      t0 = Clock::now();
      Result<service::TickReport> tick = [&] {
        spans::Span span("service.tick");
        tick_span = span.id();
        return svc.Tick();
      }();
      const double ms = MsSince(t0);
      ++report->attempted;
      if (!tick.ok()) {
        ++report->failed;
        continue;
      }
      refits_during_run += tick->refits_dispatched;
      const bool snapshot =
          svc.tick_count() %
              static_cast<std::uint64_t>(config.snapshot_every_ticks) ==
          0;
      if (!tracing) {
        tick_ms.push_back(ms);
        kind_ms[snapshot && kind.durable            ? 2
                : SealedBlocks(svc) != sealed_before ? 1
                                                     : 0]
            .push_back(ms);
        journal_untraced += FileBytes(journal) - journal_before;
        continue;
      }
      traced_ms.push_back(ms);
      ingest->Tick(svc.now(), tick_span);
      scores.Run(svc, ingest->repository(), tick_span);
      PublishReplay(svc, &publish_channel, tick_span);
      if (snapshot && kind.durable) {
        {
          spans::Span span("service.checkpoint");
          span.BookTo(tick_span);
          Require(svc.Checkpoint(), "EstateService::Checkpoint");
        }
        // The segment flush inside the snapshot, on its own (not booked:
        // the checkpoint replay already covers it).
        spans::Span span("repo.save_segments");
        const auto s0 = Clock::now();
        std::filesystem::create_directories(shadow_segments);
        Require(ingest->repository().SaveSegments(shadow_segments),
                "MetricsRepository::SaveSegments");
        save_ms.push_back(MsSince(s0));
      }
    }
    spans::Enable(false);
    // Memory one estate needs: later estates reuse the freed heap, so the
    // high-water mark is read once, after the first.
    if (r == 0) peak_rss_mb = PeakRssMb();
    scored += scores.scored();
    n_series = svc.keys().size();
    for (const std::string& key : svc.keys()) {
      if (const auto m = svc.registry().Get(key); m.ok()) {
        mape += m->test_mape;
        ++n_models;
      }
    }
    if (!kind.durable) {
      // No state directory: the ingest path is checked instead. Every
      // series' hourly history equals a direct replay of its agent's polls
      // into a fresh repository.
      IngestReplay direct(e, config, svc.now());
      for (const std::string& key : svc.keys()) {
        const tsa::TimeSeries* got = svc.FindHourly(key);
        const tsa::TimeSeries* want = direct.repository().FindHourly(key);
        report->Check(got != nullptr && want != nullptr &&
                          got->start_epoch() == want->start_epoch() &&
                          SameBits(got->values(), want->values()),
                      name + ": " + key +
                          " history differs from a direct agent -> "
                          "repository replay");
      }
      estate_ms.push_back(MsSince(estate_t0));
      continue;
    }
    snapshot_bytes =
        static_cast<double>(DirBytes(config.state_dir) - FileBytes(journal));
    const store::StoreStats& raw = svc.shard_metrics(0).raw_store().stats();
    const store::StoreStats& hourly =
        svc.shard_metrics(0).hourly_store().stats();
    compression = Ratio(
        static_cast<double>(raw.sealed_raw_bytes + hourly.sealed_raw_bytes),
        static_cast<double>(raw.sealed_bytes + hourly.sealed_bytes));

    // Crash: the state directory as the process left it, no checkpoint.
    const auto live = DurableState(svc);
    crashed = config;
    crashed.state_dir = base + "/crashed";
    std::filesystem::copy(config.state_dir, crashed.state_dir,
                          std::filesystem::copy_options::recursive);
    recovered = std::make_unique<service::EstateService>(
        e.cluster.get(), e.watches, crashed);
    spans::Enable(traced_run);
    ++report->attempted;
    Status recover_status;
    {
      spans::Span span("service.recover");
      t0 = Clock::now();
      recover_status = recovered->Recover();
      recover_ms.push_back(MsSince(t0));
    }
    spans::Enable(false);
    report->Check(recover_status.ok(),
                  name + ": Recover failed: " +
                      recover_status.ToString());
    if (recover_status.ok()) {
      stale_prognoses += CheckRecovered(live, DurableState(*recovered),
                                        "after Recover", "prognosis ", report);
      Require(svc.Tick().status(), "EstateService::Tick");
      Require(recovered->Tick().status(), "EstateService::Tick");
      CheckRecovered(DurableState(svc), DurableState(*recovered),
                     "one tick after Recover", "", report);
    } else {
      ++report->failed;
    }
    estate_ms.push_back(MsSince(estate_t0));
  }
  const std::size_t n_ticks = tick_ms.size() + traced_ms.size();
  report->Check(refits_during_run == 0,
                name + ": " + std::to_string(refits_during_run) +
                    " refits came due during the run");
  report->Note(name + ": " + std::to_string(estate_ms.size()) +
               " estates, " + std::to_string(n_ticks) + " hourly ticks of " +
               std::to_string(n_series) + " series");
  if (kind.durable) {
    report->Note(name + ": recover median " +
                 std::to_string(Percentile(recover_ms, 0.5)) + " ms, " +
                 std::to_string(stale_prognoses) +
                 " alert prognoses restored as of the last snapshot");
  }

  if (!traced_run) {
    recovered.reset();
    e = Estate{};
    std::filesystem::remove_all(base);
    report->E2e("setup_s", Percentile(setup_ms, 0.5) / 1e3, setup_ms.size());
    report->E2e("peak_rss_mb", peak_rss_mb, 1);
    // Series-hours per second of tick time, each kind of tick at its
    // median cost over the run: the run's mean tick, with the rare costly
    // kinds counted in full but no single tick's jitter.
    double busy_ms = 0.0;
    for (const std::vector<double>& ms : kind_ms) {
      busy_ms += static_cast<double>(ms.size()) * Percentile(ms, 0.5);
    }
    report->E2e("throughput_per_s",
                Ratio(static_cast<double>(n_series * tick_ms.size()),
                      busy_ms / 1e3),
                tick_ms.size());
    report->E2e("latency_ms.p50", Percentile(tick_ms, 0.5), tick_ms.size());
    report->Note(name + ": latency_ms.p99 " +
                 std::to_string(Percentile(tick_ms, 0.99)) + " over " +
                 std::to_string(tick_ms.size()) + " ticks (" +
                 std::to_string(kind_ms[1].size()) + " sealed a block, " +
                 std::to_string(kind_ms[2].size()) +
                 " wrote a snapshot); not an end-to-end metric");
    report->E2e("forecast_mape_pct",
                Ratio(mape, static_cast<double>(n_models)), n_models);
    return;
  }

  ServeResult served;
  if (kind.durable) {
    // Traced run only: the segment reload inside Recover and the checkpoint
    // the snapshot ticks make, timed on their own.
    spans::Enable(true);
    {
      repo::MetricsRepository loaded;
      spans::Span span("repo.load_segments");
      Require(loaded.LoadSegments(crashed.state_dir + "/shard_0"),
              "MetricsRepository::LoadSegments");
    }
    for (int i = 0; i < kCheckpointReps; ++i) {
      spans::Span span("service.checkpoint.standalone");
      Require(recovered->Checkpoint(), "EstateService::Checkpoint");
    }
    spans::Enable(false);
    // The serving layers, measured on this estate by a short query phase
    // (its few ticks stay inside the age limit, so still no refit comes
    // due).
    served =
        ServeEstate(e, options, kServeSeconds, /*verify_every=*/4, report);
  }
  recovered.reset();
  e = Estate{};
  std::filesystem::remove_all(base);

  const spans::Profile trace = DrainTrace(options);
  if (kind.durable) ReportServeLayers(trace, served, report);
  const double cycle_ms = Sum(traced_ms);
  double booked = 0.0;
  for (const char* layer : {"agent.collect", "repo.append", "quality.score",
                            "serve.view_publish", "service.checkpoint"}) {
    booked += trace.total_ms(layer);
    report->Layer(std::string(layer) + ".share",
                  Ratio(trace.total_ms(layer), cycle_ms), trace.count(layer));
  }
  report->Layer("repo.save_segments.share",
                Ratio(trace.total_ms("repo.save_segments"), cycle_ms),
                trace.count("repo.save_segments"));
  report->Layer("agent.collect_us",
                trace.mean_us("agent.collect"),
                trace.count("agent.collect"));
  report->Layer("repo.append_us",
                trace.mean_us("repo.append"),
                trace.count("repo.append"));
  report->Layer("quality.score_ns",
                1e6 * Ratio(trace.total_ms("quality.score"),
                            static_cast<double>(scored)),
                scored);
  report->Layer("service.tick_ms.p50", Percentile(traced_ms, 0.5),
                traced_ms.size());
  report->Layer("service.tick_ms.p99", Percentile(tick_ms, 0.99),
                tick_ms.size());
  report->Layer("service.checkpoint_ms",
                Percentile(trace.durations_ms("service.checkpoint.standalone"),
                           0.5),
                trace.count("service.checkpoint.standalone"));
  report->Layer("repo.save_segments_ms", Percentile(save_ms, 0.5),
                save_ms.size());
  report->Layer("service.journal_bytes_per_tick",
                Ratio(static_cast<double>(journal_untraced),
                      static_cast<double>(tick_ms.size())),
                tick_ms.size());
  report->Layer("store.snapshot_bytes", snapshot_bytes, 1);
  report->Layer("repo.load_segments_ms", trace.total_ms("repo.load_segments"),
                trace.count("repo.load_segments"));
  report->Layer("service.recover_ms", Percentile(recover_ms, 0.5),
                recover_ms.size());
  report->Layer("store.compression_ratio", compression, 1);
  report->Layer("trace.overhead_frac",
                Ratio(Percentile(traced_ms, 0.5), Percentile(tick_ms, 0.5)) -
                    1.0,
                n_ticks);
  report->Layer("trace.unattributed_frac",
                std::max(0.0, 1.0 - Ratio(booked, cycle_ms)),
                traced_ms.size());
  report->Layer("trace.spans", static_cast<double>(trace.spans()), 1);

  if (!kind.durable) {
    // The selection layers, from one traced pair of kAuto refit waves on
    // their own OLTP estate (its spans go to their own trace file).
    RunOptions wave = options;
    wave.workload = "oltp_refit_wave";
    wave.seconds = 1.0;  // the minimum: one pair
    Report selection;
    RunRefitWave(wave, &selection);
    for (const char* layer : kSelectionLayers) {
      report->layers[layer] = selection.layers[layer];
    }
    report->failures.insert(report->failures.end(),
                            selection.failures.begin(),
                            selection.failures.end());
    report->attempted += selection.attempted;
    report->failed += selection.failed;
  }
}

}  // namespace

void RunSteadyDurable(const RunOptions& options, Report* report) {
  RunSteady({"olap_steady_durable", workload::WorkloadScenario::Olap(),
             /*durable=*/true},
            options, report);
}

void RunSteadyIngest(const RunOptions& options, Report* report) {
  RunSteady({"oltp_steady_ingest", workload::WorkloadScenario::Oltp(),
             /*durable=*/false},
            options, report);
}

}  // namespace perfbench
