// oltp_refit_wave: selection-bound. A fresh OLTP estate (paper Experiment
// Two: trend, 07:00/09:00 logon surges, 6-hourly backups) with the default
// service configuration — Technique::kAuto, so every refit runs the full
// Figure-4 race. Start schedules every watch at once, so the first Tick
// dispatches the whole estate as one refit wave and DrainRefits waits for
// it. One cycle = one wave on a freshly started estate. A run makes waves
// for --seconds (at least three), each on its own cluster seed derived from
// --seed, so its figures average over several inputs.
//
// End-to-end: throughput = refits per second of wave time, latency = wave
// wall time (hour boundary until the view carries every new forecast), the
// median over the run's waves (the p99 is printed, not reported).
// Correctness: every key's selected spec and forecast bytes equal a direct
// core::Pipeline::Run on the same window with the options the service
// uses, and no refit landed on a degraded rung.

#include <future>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/lattice/period_router.h"
#include "core/pipeline.h"
#include "models/tbats.h"
#include "quality/sentinel.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using namespace capplan;

// One instance x {cpu, memory, logical IOPS}: three series, fewer than
// refit_batch_size, so the wave is one batch job.
constexpr int kInstances = 1;
constexpr int kMinWaves = 3;
constexpr int kSetupReps = 15;

// The options the service hands the pipeline for the first fit of a key
// (EstateService::PrepareBatches).
core::PipelineOptions ServiceOptions(
    const service::EstateServiceConfig& config) {
  core::PipelineOptions opts = config.pipeline;
  opts.model_repository = nullptr;
  opts.n_threads = 1;
  opts.horizon_override =
      static_cast<std::size_t>(config.staleness.max_age_seconds / 3600 + 48);
  opts.degrade_on_failure = config.always_forecast;
  return opts;
}

// A direct run of one series through the layers the service's refit job
// calls: sentinel repair, then the pipeline.
struct DirectRun {
  std::string key;
  Status status;
  core::PipelineReport report;
  bool quality_gated = false;
};

// What the check needs from one key of a finished wave, kept after the
// estate is gone.
struct Landed {
  std::string key;
  tsa::TimeSeries hourly;  // the history the wave's refit saw
  Result<repo::StoredModel> model = Status::NotFound("no model");
  serve::InstanceStatus row;
};

DirectRun RunDirect(const Landed& landed,
                    const service::EstateServiceConfig& config,
                    std::uint64_t booked_to) {
  DirectRun run;
  run.key = landed.key;
  const tsa::TimeSeries& hourly = landed.hourly;
  const std::size_t len = std::min(config.fit_window_hours, hourly.size());
  auto window = hourly.Slice(hourly.size() - len, len);
  if (!window.ok()) {
    run.status = window.status();
    return run;
  }
  window->set_name(landed.key);

  quality::QualityReport quality;
  Result<tsa::TimeSeries> repaired = [&] {
    spans::Span span("quality.repair");
    span.BookTo(booked_to);
    return quality::DataQualitySentinel(config.quality)
        .Repair(*window, &quality);
  }();
  if (!repaired.ok()) {
    run.status = repaired.status();
    return run;
  }
  core::PipelineOptions opts = ServiceOptions(config);
  if (config.quality_gate && !quality.trainable &&
      opts.technique != core::Technique::kHes) {
    opts.technique = core::Technique::kHes;
    run.quality_gated = true;
  }
  {
    // Routing runs again inside Pipeline::Run; this span only sizes it and
    // is not booked, so the pipeline span keeps the whole selection.
    spans::Span span("core.route");
    core::lattice::PeriodRouter(opts.router).Route(repaired->values());
  }
  Result<core::PipelineReport> report = [&] {
    spans::Span span("core.pipeline");
    span.BookTo(booked_to);
    return core::Pipeline(opts).Run(*repaired);
  }();
  if (!report.ok()) {
    run.status = report.status();
    return run;
  }
  run.report = std::move(*report);
  return run;
}

void CheckDirect(const Landed& landed, const DirectRun& run,
                 Report* report) {
  const std::string where = "oltp_refit_wave " + run.key + ": ";
  report->Check(run.status.ok(),
                where + "direct pipeline failed: " + run.status.ToString());
  if (!run.status.ok()) return;
  report->Check(landed.model.ok(), where + "no model in the registry");
  if (landed.model.ok()) {
    const repo::StoredModel& model = *landed.model;
    report->Check(
        model.spec == run.report.chosen_spec &&
            model.technique == core::TechniqueName(run.report.chosen_family),
        where + "service selected " + model.technique + " " + model.spec +
            ", direct run selected " +
            core::TechniqueName(run.report.chosen_family) + " " +
            run.report.chosen_spec);
  }
  const serve::InstanceStatus& row = landed.row;
  report->Check(row.has_forecast, where + "no forecast in the view");
  if (!row.has_forecast) return;
  const models::Forecast& fc = run.report.forecast;
  report->Check(SameBits(row.forecast.mean, fc.mean) &&
                    SameBits(row.forecast.lower, fc.lower) &&
                    SameBits(row.forecast.upper, fc.upper),
                where + "forecast bytes differ from the direct run");
  report->Check(row.degradation == core::DegradationLevel::kFull &&
                    run.report.degradation == core::DegradationLevel::kFull &&
                    !run.quality_gated,
                where + "refit landed on a degraded rung");
}

struct Wave {
  bool traced = false;
  double setup_ms = 0.0;
  double wave_ms = 0.0;
  double tick_ms = 0.0;
  double drain_ms = 0.0;
  std::size_t refits = 0;
  std::size_t failed = 0;
  std::size_t queue_depth = 0;
  std::uint64_t filter_runs = 0;
  std::vector<Landed> landed;
};

}  // namespace

void RunRefitWave(const RunOptions& options, Report* report) {
  const service::EstateServiceConfig config;  // the service defaults
  const workload::WorkloadScenario scenario =
      workload::WorkloadScenario::Oltp();
  auto start = [&](int wave) {
    const std::uint64_t seed = options.seed * 1000 +
                               static_cast<std::uint64_t>(wave);
    return StartEstate(scenario, seed, kInstances, config);
  };

  std::vector<double> setup_ms;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    Estate e = start(i % kMinWaves);
    setup_ms.push_back(MsSince(t0));
  }

  // The traced run makes its waves in pairs on the same input, untraced
  // (the overhead baseline) then traced; the traced wave is followed by the
  // replays of each layer's public calls on that wave's inputs.
  //
  // Waves run for --seconds: a new cycle (a wave, or a pair when traced)
  // starts only if, at the median wave time so far, it ends within the
  // budget, once the minimum is made.
  const bool traced_run = options.trace;
  const int per_cycle = traced_run ? 2 : 1;
  const int min_waves = traced_run ? 2 : kMinWaves;
  std::vector<Wave> waves;
  std::vector<DirectRun> traced_direct;
  std::vector<double> all_wave_ms;
  const auto run_t0 = Clock::now();
  for (int i = 0;; ++i) {
    if (i % per_cycle == 0 && i >= min_waves &&
        MsSince(run_t0) + per_cycle * Percentile(all_wave_ms, 0.5) >
            options.seconds * 1e3) {
      break;
    }
    Wave w;
    w.traced = traced_run && i % 2 == 1;
    const int input = traced_run ? i / 2 : i;
    spans::Enable(w.traced);
    auto t0 = Clock::now();
    Estate e = start(input);
    w.setup_ms = MsSince(t0);
    service::EstateService& svc = *e.service;
    std::unique_ptr<IngestReplay> ingest;
    if (w.traced) {
      ingest = std::make_unique<IngestReplay>(e, config, svc.now());
    }

    spans::Span cycle("cycle.wave");
    const std::uint64_t filter0 = models::TbatsModel::TotalFilterRuns();
    t0 = Clock::now();
    std::uint64_t tick_span = 0;
    std::uint64_t drain_span = 0;
    {
      spans::Span span("service.tick");
      tick_span = span.id();
      auto tick = svc.Tick();
      Require(tick.status(), "EstateService::Tick");
      w.refits = tick->refits_dispatched;
    }
    w.tick_ms = MsSince(t0);
    w.queue_depth = svc.RefitQueueDepth();
    const auto d0 = Clock::now();
    {
      spans::Span span("service.drain");
      drain_span = span.id();
      Require(svc.DrainRefits(), "EstateService::DrainRefits");
    }
    w.drain_ms = MsSince(d0);
    w.wave_ms = MsSince(t0);
    all_wave_ms.push_back(w.wave_ms);
    w.filter_runs = models::TbatsModel::TotalFilterRuns() - filter0;
    const auto view = svc.View();
    for (const serve::InstanceStatus& row : view->instances) {
      if (!row.has_forecast ||
          row.degradation != core::DegradationLevel::kFull) {
        ++w.failed;
      }
      Landed landed;
      landed.key = row.key;
      landed.hourly = *svc.FindHourly(row.key);
      landed.model = svc.registry().Get(row.key);
      landed.row = row;
      w.landed.push_back(std::move(landed));
    }
    if (w.traced) {
      // The wave's ingest, then each series' refit through the public
      // calls the service's batch job makes.
      ingest->Tick(svc.now(), tick_span);
      for (const Landed& landed : w.landed) {
        traced_direct.push_back(RunDirect(landed, config, drain_span));
      }
    }
    cycle.End();
    waves.push_back(std::move(w));
  }
  spans::Enable(false);
  const double peak_rss_mb = PeakRssMb();

  // Correctness: every key of every wave against a direct run (the traced
  // waves' replays are those runs; the rest run here, four at a time).
  ThreadPool pool(4);
  std::vector<std::future<std::pair<const Landed*, DirectRun>>> pending;
  for (const Wave& w : waves) {
    if (w.traced) continue;
    for (const Landed& landed : w.landed) {
      pending.push_back(pool.Submit([&config, &landed] {
        return std::make_pair(&landed, RunDirect(landed, config, 0));
      }));
    }
  }
  for (auto& f : pending) {
    const auto [landed, run] = f.get();
    CheckDirect(*landed, run, report);
  }
  std::size_t traced_i = 0;
  for (const Wave& w : waves) {
    if (!w.traced) continue;
    for (const Landed& landed : w.landed) {
      CheckDirect(landed, traced_direct[traced_i++], report);
    }
  }

  std::vector<double> wave_ms;
  std::vector<double> traced_ms;
  double refits = 0.0;
  double mape = 0.0;
  std::size_t models = 0;
  for (const Wave& w : waves) {
    setup_ms.push_back(w.setup_ms);
    report->attempted += w.refits;
    report->failed += w.failed;
    for (const Landed& landed : w.landed) {
      if (landed.model.ok()) {
        mape += landed.model->test_mape;
        ++models;
      }
    }
    if (w.traced) {
      traced_ms.push_back(w.wave_ms);
      continue;
    }
    wave_ms.push_back(w.wave_ms);
    refits += static_cast<double>(w.refits);
  }
  report->Note("oltp_refit_wave: " + std::to_string(waves.size()) +
               " waves of " + std::to_string(waves.front().landed.size()) +
               " series");

  if (!traced_run) {
    report->E2e("setup_s", Percentile(setup_ms, 0.5) / 1e3, setup_ms.size());
    report->E2e("peak_rss_mb", peak_rss_mb, 1);
    report->E2e("throughput_per_s", Ratio(refits, Sum(wave_ms) / 1e3),
                wave_ms.size());
    report->E2e("latency_ms.p50", Percentile(wave_ms, 0.5), wave_ms.size());
    report->Note("oltp_refit_wave: latency_ms.p99 " +
                 std::to_string(Percentile(wave_ms, 0.99)) + " over " +
                 std::to_string(wave_ms.size()) +
                 " waves; not an end-to-end metric");
    report->E2e("forecast_mape_pct", Ratio(mape, static_cast<double>(models)),
                models);
    return;
  }

  const spans::Profile trace = DrainTrace(options);
  const std::vector<double>& pipeline_ms = trace.durations_ms("core.pipeline");
  double evaluated = 0.0;
  double pruned = 0.0;
  double succeeded = 0.0;
  for (const DirectRun& run : traced_direct) {
    evaluated += static_cast<double>(run.report.candidates_evaluated);
    pruned += static_cast<double>(run.report.candidates_pruned);
    succeeded += static_cast<double>(run.report.candidates_succeeded);
  }
  double drain = 0.0;
  std::vector<double> tick_ms;
  double filter_runs = 0.0;
  std::size_t queue_max = 0;
  for (const Wave& w : waves) {
    if (!w.traced) continue;
    drain += w.drain_ms;
    tick_ms.push_back(w.tick_ms);
    filter_runs += static_cast<double>(w.filter_runs);
    queue_max = std::max(queue_max, w.queue_depth);
  }
  const double n_traced = static_cast<double>(traced_ms.size());
  const double cycle_ms = Sum(traced_ms);
  double booked = 0.0;
  for (const char* layer :
       {"agent.collect", "repo.append", "quality.repair", "core.pipeline"}) {
    booked += trace.total_ms(layer);
    report->Layer(std::string(layer) + ".share",
                  Ratio(trace.total_ms(layer), cycle_ms), trace.count(layer));
  }
  report->Layer("agent.collect_us", trace.mean_us("agent.collect"),
                trace.count("agent.collect"));
  report->Layer("repo.append_us", trace.mean_us("repo.append"),
                trace.count("repo.append"));
  report->Layer("service.tick_ms.p50", Percentile(tick_ms, 0.5),
                tick_ms.size());
  report->Layer("quality.repair_ms", trace.mean_us("quality.repair") / 1e3,
                trace.count("quality.repair"));
  report->Layer("core.route_ms", trace.mean_us("core.route") / 1e3,
                trace.count("core.route"));
  report->Layer("core.pipeline_ms.p50", Percentile(pipeline_ms, 0.5),
                pipeline_ms.size());
  report->Layer("core.pipeline_ms.max", Percentile(pipeline_ms, 1.0),
                pipeline_ms.size());
  report->Layer("core.candidates_evaluated", Ratio(evaluated, n_traced),
                traced_direct.size());
  report->Layer("core.candidates_pruned", Ratio(pruned, n_traced),
                traced_direct.size());
  report->Layer("core.candidates_useful_frac", Ratio(succeeded, evaluated),
                traced_direct.size());
  report->Layer("models.tbats_filter_runs", Ratio(filter_runs, n_traced),
                traced_ms.size());
  report->Layer("service.drain_ms", Ratio(drain, n_traced),
                traced_ms.size());
  report->Layer("service.queue_depth.max", static_cast<double>(queue_max),
                traced_ms.size());
  report->Layer("service.pool_busy_frac",
                Ratio(trace.total_ms("core.pipeline"),
                      static_cast<double>(config.fit_threads) * cycle_ms),
                traced_ms.size());
  report->Layer("trace.overhead_frac",
                Ratio(Sum(traced_ms), Sum(wave_ms)) - 1.0,
                traced_ms.size() + wave_ms.size());
  report->Layer("trace.unattributed_frac",
                std::max(0.0, 1.0 - Ratio(booked, cycle_ms)),
                traced_ms.size());
  report->Layer("trace.spans", static_cast<double>(trace.spans()), 1);
}

}  // namespace perfbench
